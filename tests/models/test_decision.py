"""The one decision rule: candidates, ties, grids, margins."""

import numpy as np
import pytest

from repro.models.decision import decide
from repro.models.strategies import STRATEGY_SPECS

LABELS = [spec.label for spec in STRATEGY_SPECS]
BOUNDS = sorted(spec.label for spec in STRATEGY_SPECS if spec.best_case)
DEVICE = {spec.label for spec in STRATEGY_SPECS if spec.device_aware}
INF = float("inf")


def test_ties_go_to_the_earliest_label():
    d = decide(["b", "a", "c"], [2.0, 1.0, 1.0])
    assert (d.winner_idx, d.winner, d.runner_up, d.margin) == (1, "a", "c",
                                                              0.0)


def test_a_best_case_row_never_wins_even_when_fastest():
    times = [1.0 if label in BOUNDS else 2.0 for label in LABELS]
    d = decide(LABELS, times)
    assert (d.winner, d.runner_up) == (LABELS[0], LABELS[1])
    assert decide(["a", BOUNDS[0]], [5.0, 1.0]).margin == INF


def test_device_ok_false_drops_every_device_aware_row():
    times = [0.1 if label in DEVICE else 1.0 + i / 100
             for i, label in enumerate(LABELS)]
    assert decide(LABELS, times).winner in DEVICE
    staged = decide(LABELS, times, device_ok=False)
    assert staged.winner == "Standard (staged)"
    assert staged.runner_up not in DEVICE
    assert decide(["x", "y"], [3.0, 2.0], device_ok=False).winner == "y"


def test_margin_edge_cases():
    assert decide(["a", "b", "c"], [4.0, 2.0, 3.0]).margin == 0.5
    one = decide(["a"], [5.0])
    assert (one.winner, one.runner_up, one.margin) == ("a", "", INF)
    assert decide(["a", "b"], [0.0, 1.0]).margin == 0.0


def test_empty_candidate_set():
    for labels in ([], BOUNDS):
        d = decide(labels, [1.0] * len(labels))
        assert (d.winner_idx, d.winner, d.runner_up) == (-1, "", "")
    grid = decide([], np.empty((0, 2, 3)))
    assert (grid.winner_idx == -1).all()
    assert grid.winner.tolist() == [[""] * 3] * 2
    with pytest.raises(ValueError, match="2 labels"):
        decide(["a", "b"], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("device_ok", [True, False])
def test_grid_equals_the_point_decision_in_every_cell(device_ok):
    times = np.random.default_rng(3).uniform(1.0, 2.0, (len(LABELS), 4, 5))
    times[:, 0, 0] = 1.0                                  # all-way tie
    times[:, 1, 1] = 0.0                                  # zero time
    times[LABELS.index(BOUNDS[0]), 2, 2] = 0.5            # bound fastest
    grid = decide(LABELS, times, device_ok=device_ok)
    for cell in np.ndindex(4, 5):
        point = decide(LABELS, times[(slice(None),) + cell],
                       device_ok=device_ok)
        assert (grid.winner_idx[cell], grid.winner[cell],
                grid.runner_up[cell], grid.margin[cell]) == (
            point.winner_idx, point.winner, point.runner_up, point.margin)
    one = decide(["a"], np.ones((1, 2)))
    assert one.runner_up.tolist() == ["", ""] and np.isinf(one.margin).all()
