"""``fused_scenario_times``: one stage walk, point or batch by shape.

The sweep funnel costs exactly one cell with the scalar algebra and
anything wider with the array algebra.  These tests pin what callers
rely on: a cell costs the same bits on either side of that seam and
fails with the same error, and ``stack_plans`` — the call shape the
perfbench probe uses — is the per-plan array walk.
"""

import numpy as np
import pytest

from repro.machine import resolve_machine
from repro.models.pattern_summary import SummaryBatch
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    fused_scenario_times,
    scenario_summary,
)
from repro.models.strategies import all_strategy_models, model_label
from repro.paths import SCALAR_OPS, cost_plan, stack_plans

MACHINES = ["lassen", "summit", "frontier_like"]
SIZES = np.logspace(0, 7, 12)


def _batch(machine):
    summaries = [scenario_summary(machine, sc, float(size))
                 for sc in PAPER_SCENARIOS for size in SIZES]
    return SummaryBatch.from_summaries(summaries)


@pytest.mark.parametrize("machine_name", MACHINES)
def test_fused_scalar_plans_match_cost_plan(machine_name):
    """Width-1 case: plans compiled from scalar summaries, no arrays."""
    machine = resolve_machine(machine_name)
    summary = scenario_summary(machine, PAPER_SCENARIOS[0], 4096.0)
    models = all_strategy_models(machine, include_extended=True)
    plans = [m.compile_plan(summary) for m in models]
    stacked = stack_plans(machine, plans).evaluate()
    assert stacked.shape == (len(plans), 1)
    for s, (model, plan) in enumerate(zip(models, plans)):
        assert float(stacked[s, 0]) == cost_plan(machine, plan, SCALAR_OPS), \
            model_label(model)
        assert float(stacked[s, 0]) == model.time(summary), model_label(model)


def test_stack_plans_over_a_batch_is_the_array_walk():
    """The perfbench probe's call: batch plans, explicit width."""
    machine = resolve_machine("lassen")
    batch = _batch(machine)
    models = all_strategy_models(machine, include_extended=True)
    plans = [m.compile_plan_batch(batch) for m in models]
    stacked = stack_plans(machine, plans, n=batch.node_bytes.size).evaluate()
    assert stacked.shape == (len(plans), batch.node_bytes.size)
    for row, model in zip(stacked, models):
        assert np.array_equal(row, model.time_sweep(batch)), \
            model_label(model)


def test_stack_plans_requires_at_least_one_plan():
    with pytest.raises(ValueError, match="at least one plan"):
        stack_plans(resolve_machine("lassen"), [])


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("dup_fraction", [0.0, 0.25])
def test_fused_scenario_times_bit_identical_to_scalar_models(
        machine_name, dup_fraction):
    """The sweep entry point equals the historical per-cell loop."""
    machine = resolve_machine(machine_name)
    scenarios = [Scenario(num_dest_nodes=sc.num_dest_nodes,
                          num_messages=sc.num_messages,
                          dup_fraction=dup_fraction)
                 for sc in PAPER_SCENARIOS[:2]]
    sizes = [float(s) for s in SIZES]
    labels, times = fused_scenario_times(machine, scenarios, sizes)
    models = all_strategy_models(machine)
    assert list(labels) == [model_label(m) for m in models]
    assert times.shape == (len(models), len(scenarios), len(sizes))
    for s, model in enumerate(models):
        for c, sc in enumerate(scenarios):
            for z, size in enumerate(sizes):
                summary = scenario_summary(machine, sc, size)
                expected = model.time(summary,
                                      dup_fraction=sc.dup_fraction)
                assert float(times[s, c, z]) == expected, \
                    (model_label(model), c, z)


def _hex(times):
    return [float(t).hex() for t in np.ravel(times)]


@pytest.mark.parametrize("machine_name", MACHINES)
def test_one_cell_alone_equals_the_cell_inside_a_batch(machine_name):
    """The seam: one cell takes the scalar walk, two the array walk."""
    machine = resolve_machine(machine_name)
    here = Scenario(num_dest_nodes=8, num_messages=256, dup_fraction=0.25)
    other = Scenario(num_dest_nodes=16, num_messages=32)
    for size in (0.0, 8.0, 4096.0, 3.0e5):
        labels, alone = fused_scenario_times(machine, [here], [size],
                                             include_extended=True)
        assert len(labels) == 15 and alone.shape == (15, 1, 1)
        _, row = fused_scenario_times(machine, [here], [size, 1.0e6],
                                      include_extended=True)
        _, col = fused_scenario_times(machine, [here, other], [size],
                                      include_extended=True)
        assert row.shape == (15, 1, 2) and col.shape == (15, 2, 1)
        assert _hex(row[:, 0, 0]) == _hex(alone) == _hex(col[:, 0, 0])


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
def test_bad_sizes_raise_the_same_error_for_one_cell_and_for_two(bad):
    machine = resolve_machine("lassen")
    messages = []
    for sizes in ([bad], [bad, 8.0]):
        with pytest.raises(ValueError, match="msg sizes must be >= 0") as err:
            fused_scenario_times(machine, PAPER_SCENARIOS[:1], sizes)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n_scenarios", [0, 1, 2])
@pytest.mark.parametrize("n_sizes", [0, 1, 2])
def test_empty_requests_keep_their_shapes(n_scenarios, n_sizes):
    machine = resolve_machine("lassen")
    scenarios, sizes = PAPER_SCENARIOS[:n_scenarios], [8.0, 64.0][:n_sizes]
    labels, times = fused_scenario_times(machine, scenarios, sizes)
    assert times.shape == (len(labels), n_scenarios, n_sizes)
    labels, times = fused_scenario_times(machine, scenarios, sizes, models=[])
    assert labels == [] and times.shape == (0, n_scenarios, n_sizes)
    assert times.dtype == np.float64
