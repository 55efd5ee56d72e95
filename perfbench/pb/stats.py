"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples
    (rounded first: 99.9 % of 10000 is 9990, not 9990.000000000002)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``pct`` % of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[_rank(len(values), pct) - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``pct``."""
    return n - _rank(n, pct)


def tail(values: Sequence[float], pct: float) -> float:
    """:func:`percentile`, or 0.0 when fewer than :data:`MIN_BEYOND`
    samples lie beyond it (too few to call it a percentile)."""
    if samples_beyond(len(values), pct) < MIN_BEYOND:
        return 0.0
    return percentile(values, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def best_quartile(values: Sequence[float], lower: bool = True) -> float:
    """The value a quarter of the way in from the best end.

    How a run condenses one value per round into its report.  The
    reference box has stretches of 20-30 s in which cache-sensitive code
    runs up to a third slower: a median needs more than half of a run's
    rounds outside such a stretch, this needs a quarter of them, and
    unlike the best round it is not set by one lucky sample.
    """
    ordered = sorted(values, reverse=not lower)
    return float(ordered[(len(ordered) - 1) // 4])


def column_best_quartiles(rows: List[List[float]]) -> List[float]:
    """Per-column :func:`best_quartile` of equally long rows of times
    (one row per round)."""
    return [best_quartile(col) for col in zip(*rows)]
