"""Model-guided strategy selection."""

import numpy as np
import pytest

from repro.core import CommPattern, all_strategies, select_strategy, strategy_by_name
from repro.core.selector import predict_times
from repro.machine import JobLayout, lassen


@pytest.fixture(scope="module")
def layout():
    return JobLayout(lassen(), num_nodes=4, ppn=40)


def heavy_pattern():
    """Many small duplicated messages -> node-aware territory."""
    sends = {
        s: {d: np.arange(64) for d in range(16) if d != s}
        for s in range(16)
    }
    return CommPattern(16, sends)


class TestRegistry:
    def test_all_strategies_unique_labels(self):
        labels = [s.label for s in all_strategies()]
        assert len(labels) == 13 and len(set(labels)) == 13

    def test_strategy_by_name(self):
        s = strategy_by_name("3-Step (device-aware)")
        assert s.name == "3-Step" and s.data_path == "device-aware"
        # names the label and every available strategy
        with pytest.raises(KeyError, match=r"unknown strategy 'bogus'; "
                                           r"available: .*Standard \(staged\)"):
            strategy_by_name("bogus")

    @pytest.mark.parametrize("label", [s.label for s in all_strategies()])
    def test_every_label_resolves_to_its_strategy(self, label):
        assert strategy_by_name(label).label == label


class TestPrediction:
    def test_predict_times_covers_all(self, layout):
        times = predict_times(heavy_pattern(), layout)
        assert len(times) == 13
        assert all(t > 0 for t in times.values())

    def test_select_returns_minimum(self, layout):
        strategy, times = select_strategy(heavy_pattern(), layout)
        assert times[strategy.label] == min(times.values())

    def test_staged_only_filter(self, layout):
        strategy, _times = select_strategy(heavy_pattern(), layout,
                                           staged_only=True)
        assert strategy.data_path == "staged"

    def test_selection_is_node_aware_for_heavy_duplication(self, layout):
        strategy, _ = select_strategy(heavy_pattern(), layout)
        assert strategy.name != "Standard"
