"""Vectorized model path vs. scalar path: bit-exact agreement."""

import numpy as np
import pytest

from repro.machine import lassen, summit
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    best_strategy,
    best_strategy_sweep,
    scenario_summary,
    scenario_summary_batch,
    sweep_scenario,
)
from repro.models.strategies import all_strategy_models, model_label
from repro.models.pattern_summary import SummaryBatch

# spans every protocol regime, both threshold edges, zero and huge sizes
SIZES = [0.0, 1.0, 512.0, 513.0, 4096.0, 8192.0, 8193.0,
         1e5, 1 << 20, 1e7]

SCENARIOS = list(PAPER_SCENARIOS) + [
    Scenario(num_dest_nodes=4, num_messages=32, dup_fraction=0.25),
    Scenario(num_dest_nodes=16, num_messages=256, dup_fraction=0.25),
]


@pytest.mark.parametrize("machine_factory", [lassen, summit])
@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.label for s in SCENARIOS])
def test_time_sweep_bit_identical_to_pointwise_time(machine_factory, scenario):
    machine = machine_factory()
    models = all_strategy_models(machine)
    swept = sweep_scenario(machine, scenario, SIZES, models=models)
    for model in models:
        expected = [
            model.time(scenario_summary(machine, scenario, s),
                       dup_fraction=scenario.dup_fraction)
            for s in SIZES
        ]
        got = swept[model_label(model)]
        # bit-exact, not approx: the vectorized path replicates the
        # scalar floating-point operation order
        assert [float.hex(float(t)) for t in got] == \
               [float.hex(t) for t in expected], model_label(model)


def test_time_sweep_accepts_summary_sequences():
    machine = lassen()
    sc = PAPER_SCENARIOS[0]
    summaries = [scenario_summary(machine, sc, s) for s in SIZES]
    for model in all_strategy_models(machine):
        from_list = model.time_sweep(summaries)
        from_batch = model.time_sweep(
            scenario_summary_batch(machine, sc, SIZES))
        assert np.array_equal(from_list, from_batch)


def test_summary_batch_matches_scalar_summaries():
    machine = lassen()
    for sc in SCENARIOS:
        batch = scenario_summary_batch(machine, sc, SIZES)
        for i, size in enumerate(SIZES):
            scalar = scenario_summary(machine, sc, size)
            assert batch.num_dest_nodes[i] == scalar.num_dest_nodes
            assert batch.messages_per_node_pair[i] == \
                scalar.messages_per_node_pair
            assert batch.bytes_per_node_pair[i] == scalar.bytes_per_node_pair
            assert batch.node_bytes[i] == scalar.node_bytes
            assert batch.proc_bytes[i] == scalar.proc_bytes
            assert batch.proc_messages[i] == scalar.proc_messages
            assert batch.proc_dest_nodes[i] == scalar.proc_dest_nodes
            assert batch.active_gpus[i] == scalar.active_gpus


def test_empty_pattern_sweeps_to_zero():
    machine = lassen()
    batch = scenario_summary_batch(machine, PAPER_SCENARIOS[0], [0.0, 8.0])
    for model in all_strategy_models(machine):
        times = model.time_sweep(batch)
        assert times[0] == 0.0
        assert times[1] > 0.0


def test_best_strategy_sweep_matches_scalar_scan():
    machine = lassen()
    for sc in SCENARIOS:
        swept = best_strategy_sweep(machine, sc, SIZES)
        pointwise = [best_strategy(machine, sc, s) for s in SIZES]
        assert swept == pointwise


def test_duplicate_removal_only_shrinks_bytes():
    machine = lassen()
    batch = scenario_summary_batch(machine, PAPER_SCENARIOS[0], SIZES)
    shrunk = batch.with_duplicate_removal(0.25)
    assert np.array_equal(shrunk.bytes_per_node_pair,
                          batch.bytes_per_node_pair * 0.75)
    assert np.array_equal(shrunk.node_bytes, batch.node_bytes * 0.75)
    assert np.array_equal(shrunk.proc_bytes, batch.proc_bytes * 0.75)
    assert np.array_equal(shrunk.proc_messages, batch.proc_messages)
    with pytest.raises(ValueError):
        batch.with_duplicate_removal(1.0)


def test_from_summaries_round_trip():
    machine = lassen()
    sc = PAPER_SCENARIOS[1]
    summaries = [scenario_summary(machine, sc, s) for s in (16.0, 4096.0)]
    batch = SummaryBatch.from_summaries(summaries)
    assert batch.node_bytes.tolist() == [s.node_bytes for s in summaries]
    assert batch.active_gpus.tolist() == [s.active_gpus for s in summaries]
