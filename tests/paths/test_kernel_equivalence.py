"""One plan, three evaluations: scalar == vectorized == plan cost.

Every strategy model compiles to the same :class:`repro.paths.HopPlan`
whether costed point-wise (``time``), batched (``time_sweep``) or
through the standalone kernel (``cost_plan``) — across every machine
preset, not just Lassen.
"""

import numpy as np
import pytest

from repro.machine import resolve_machine
from repro.models.scenarios import PAPER_SCENARIOS, scenario_summary
from repro.models.strategies import all_strategy_models, model_label
from repro.models.pattern_summary import SummaryBatch
from repro.paths import SCALAR_OPS, cost_plan

MACHINES = ["lassen", "summit", "frontier_like"]
SIZES = np.logspace(0, 7, 15)


def _summaries(machine):
    return [scenario_summary(machine, sc, float(size))
            for sc in PAPER_SCENARIOS for size in SIZES]


@pytest.mark.parametrize("machine_name", MACHINES)
def test_scalar_coster_equals_vectorized_coster(machine_name):
    machine = resolve_machine(machine_name)
    summaries = _summaries(machine)
    batch = SummaryBatch.from_summaries(summaries)
    for model in all_strategy_models(machine):
        vec = model.time_sweep(batch)
        pointwise = np.array([model.time(s) for s in summaries])
        assert vec.shape == pointwise.shape
        # bit-identical, not merely close: compare hex representations
        mismatched = [
            (i, float(p).hex(), float(v).hex())
            for i, (p, v) in enumerate(zip(pointwise, vec)) if p != v
        ]
        assert not mismatched, (model_label(model), machine_name,
                                mismatched[:3])


@pytest.mark.parametrize("machine_name", MACHINES)
def test_scalar_coster_equals_vectorized_with_dup_removal(machine_name):
    machine = resolve_machine(machine_name)
    summaries = _summaries(machine)
    batch = SummaryBatch.from_summaries(summaries)
    for model in all_strategy_models(machine):
        vec = model.time_sweep(batch, dup_fraction=0.25)
        pointwise = np.array([model.time(s, dup_fraction=0.25)
                              for s in summaries])
        assert np.array_equal(vec, pointwise), model_label(model)


@pytest.mark.parametrize("machine_name", MACHINES)
def test_compiled_plan_cost_equals_model_time(machine_name):
    machine = resolve_machine(machine_name)
    summaries = _summaries(machine)
    for model in all_strategy_models(machine):
        for summary in summaries[:: 7]:
            plan = model.compile_plan(summary)
            assert plan.strategy == model.name
            assert plan.data_path == model.data_path
            assert cost_plan(machine, plan, SCALAR_OPS) == model.time(summary)


def test_plans_are_machine_sensitive():
    """The same summary compiles to different costs on different machines."""
    lassen = resolve_machine("lassen")
    frontier = resolve_machine("frontier_like")
    for model_l, model_f in zip(all_strategy_models(lassen),
                                all_strategy_models(frontier)):
        s_l = scenario_summary(lassen, PAPER_SCENARIOS[0], 4096.0)
        s_f = scenario_summary(frontier, PAPER_SCENARIOS[0], 4096.0)
        assert model_l.time(s_l) != model_f.time(s_f), model_label(model_l)
