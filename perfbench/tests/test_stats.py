import statistics

import pytest

from pb import stats


@pytest.mark.parametrize("n, pct, beyond", [
    (99, 90.0, 9), (100, 90.0, 10), (1000, 99.0, 10), (9999, 99.9, 9),
    (10000, 99.9, 10), (12000, 99.9, 12),
])
def test_a_tail_needs_ten_samples_beyond_it(n, pct, beyond):
    values = list(range(n))
    assert stats.samples_beyond(n, pct) == beyond
    reported = stats.tail(values, pct)
    if beyond >= stats.MIN_BEYOND:
        assert reported == stats.percentile(values, pct)
    else:
        assert reported == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile([5.0], 90.0) == 5.0
    assert stats.samples_beyond(100, 90.0) == 10
    # a tail without ten samples beyond it is not reported
    assert stats.tail(values, 90.0) == 90
    assert stats.tail(values, 99.0) == 0.0


def test_spread_is_the_drivers_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)


def test_best_quartile_counts_in_from_the_best_end():
    times = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0]
    assert stats.best_quartile(times) == 3.0
    assert stats.best_quartile(times, lower=False) == 7.0
    assert stats.best_quartile([4.0]) == 4.0
    assert stats.best_quartile([4.0, 2.0, 3.0]) == 2.0
    assert stats.column_best_quartiles([[1, 30], [3, 10], [2, 20]]) == [1, 10]
