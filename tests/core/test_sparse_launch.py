"""``run_exchange`` starts only the plan's ranks; the oracle starts all.

A rank outside ``plan.by_rank`` runs ``return 0.0, None`` at t = 0 and
touches no resource, so leaving it out may change nothing observable:
virtual times, delivered payloads, transport statistics and the message
trace must equal, bit for bit, those of a launch over every rank.
"""

import numpy as np
import pytest

from repro.core import CommPattern, all_strategies, run_exchange
from repro.core.base import default_data
from repro.faults import DeviceOutage, FaultPlan
from repro.machine import frontier_like, lassen, summit
from repro.mpi import SimJob

MACHINES = [lassen(), summit(), frontier_like()]
#: elements per message: 128 B (short), 2 KiB (eager), 32 KiB (rendezvous)
SIZES = {"short": 16, "eager": 256, "rendezvous": 4096}
STRATEGIES = all_strategies()


def mesh_pattern(num_gpus, elems):
    """Every GPU sends to three others, on and off node, sizes differing."""
    sends = {}
    for g in range(num_gpus):
        dests = {(g + d) % num_gpus for d in (1, 2, num_gpus // 2)} - {g}
        sends[g] = {d: np.arange(0, 2 * (elems + g), 2) for d in sorted(dests)}
    return CommPattern(num_gpus, sends)


def full_launch(job, strategy, pattern, data):
    """What ``run_exchange`` reports, from a launch over every rank."""
    plan = strategy.plan(pattern, job.layout)
    result = job.run(strategy.program, plan, data)
    assert all(value is not None for value in result.values)
    rank_times = [elapsed for elapsed, _ in result.values]
    received = {job.layout.global_gpu_of(rank): delivered
                for rank, (_, delivered) in enumerate(result.values)
                if delivered is not None}
    return max(rank_times), rank_times, received, result.stats


def assert_sparse_equals_full(machine, strategy, pattern, **job_kwargs):
    def make_job():
        return SimJob(machine, num_nodes=2, ppn=machine.max_ppn, trace=True,
                      **job_kwargs)

    sparse_job, full_job = make_job(), make_job()
    data = default_data(pattern, sparse_job.layout, seed=5)
    got = run_exchange(sparse_job, strategy, pattern, data)
    comm_time, rank_times, received, stats = full_launch(
        full_job, strategy, pattern, data)

    started = len(sparse_job.sim._processes)
    assert started == len(strategy.plan(pattern, sparse_job.layout).by_rank)
    assert len(full_job.sim._processes) == full_job.layout.size
    assert started < full_job.layout.size or strategy.uses_helpers

    assert got.comm_time.hex() == comm_time.hex()
    assert [t.hex() for t in got.rank_times] == [t.hex() for t in rank_times]
    assert got.received.keys() == received.keys()
    for gpu, by_src in received.items():
        assert got.received[gpu].keys() == by_src.keys()
        for src, values in by_src.items():
            assert got.received[gpu][src].tobytes() == values.tobytes()
    assert got.stats == stats and stats.messages > 0
    assert sparse_job.transport.trace_log == full_job.transport.trace_log
    return got


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_sparse_launch_equals_full_launch(machine, strategy, size):
    pattern = mesh_pattern(2 * machine.gpus_per_node, SIZES[size])
    assert_sparse_equals_full(machine, strategy, pattern)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
def test_with_timing_noise(strategy):
    # Noise is drawn per message in booking order: equal times mean the
    # remaining events kept their relative order.
    pattern = mesh_pattern(8, SIZES["eager"])
    noisy = assert_sparse_equals_full(lassen(), strategy, pattern,
                                      noise_sigma=0.2, seed=11)
    exact = run_exchange(SimJob(lassen(), 2, 40), strategy, pattern)
    assert noisy.comm_time != exact.comm_time


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
def test_with_device_outage(strategy):
    # Device-aware strategies degrade to their staged path, one
    # ``degraded`` count per rank that runs the program.
    pattern = mesh_pattern(8, SIZES["rendezvous"])
    got = assert_sparse_equals_full(
        lassen(), strategy, pattern, seed=3,
        faults=FaultPlan(outages=[DeviceOutage()]))
    assert (got.stats.degraded > 0) == (not strategy.staged)
