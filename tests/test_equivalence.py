"""Fast-path equivalence pins: optimized hot paths stay bit-identical.

``tests/data/golden_times.json`` holds full-precision (``float.hex``)
virtual times captured from the pre-optimization kernel.  These tests
prove the determinism contract the optimizations advertise: immediate-
queue scheduling, route/locality caches, sweep state reuse and the
vectorized models all reproduce the slow path's results *bit for bit* —
not approximately.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.benchpress.pingpong import pingpong_sweep
from repro.core import all_strategies
from repro.machine import lassen
from repro.machine.locality import Locality, TransportKind
from repro.mpi.job import SimJob
from repro.sparse.distributed import DistributedCSR
from repro.sparse.spmv import distributed_spmv
from repro.sparse.suite import SUITE, suite_sweep

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_times.json").read_text())

SWEEP_SIZES = [1, 256, 512, 1024, 8192, 16384, 1 << 20]


def _hex(x) -> str:
    return float.hex(float(x))


@pytest.mark.parametrize("kind,locality", [
    (TransportKind.CPU, Locality.OFF_NODE),
    (TransportKind.CPU, Locality.ON_SOCKET),
    (TransportKind.CPU, Locality.ON_NODE),
    (TransportKind.GPU, Locality.OFF_NODE),
])
def test_pingpong_sweep_bit_identical_to_golden(kind, locality):
    """Sweep reuse + engine fast paths reproduce captured times exactly."""
    job = SimJob(lassen(), num_nodes=2, ppn=40)
    times = pingpong_sweep(job, locality, SWEEP_SIZES, kind=kind,
                           iterations=2)
    expected = GOLDEN[f"pingpong/{kind.name}/{locality.name}"]
    assert [_hex(t) for t in times] == expected


def test_fig4_2_validation_bit_identical_to_golden():
    """Measured + modelled Figure-4.2 values match the golden capture:
    the audikw_1 suite panel's ``series`` and ``model`` at 8 GPUs."""
    panel = suite_sweep(lassen(), ["audikw_1"], (8,), 4000)["audikw_1"]
    for part, row in (("measured", "series"), ("model", "model")):
        got = {k: _hex(v) for k, (v,) in panel[row].items()}
        assert got == GOLDEN[f"fig4_2/{part}"]


def test_seeded_noise_spmv_bit_identical_to_golden():
    """Noise streams survive the optimizations: same seed, same times.

    Two consecutive runs from one job draw *different* (but seeded)
    noise forks — both are pinned, so any change to the fork order or
    the perturbation call pattern fails loudly.
    """
    matrix = SUITE["audikw_1"].build(4000)
    job = SimJob(lassen(), num_nodes=2, ppn=40, noise_sigma=0.05, seed=7)
    dist = DistributedCSR(matrix, num_gpus=8)
    v = np.random.default_rng(3).standard_normal(dist.n)
    strategy = next(s for s in all_strategies()
                    if s.label == "Standard (staged)")
    res = distributed_spmv(job, dist, strategy, v)
    assert _hex(res.comm_time) == GOLDEN["spmv_noise/comm_time"]
    assert res.messages == GOLDEN["spmv_noise/messages"]
    checksum = float(np.dot(res.w, np.arange(dist.n) % 13))
    assert _hex(checksum) == GOLDEN["spmv_noise/w_checksum"]
    res2 = distributed_spmv(job, dist, strategy, v)
    assert _hex(res2.comm_time) == GOLDEN["spmv_noise/comm_time_rep2"]
    assert res2.comm_time != res.comm_time  # independent noise draws


class TestResetStateEquivalence:
    """``run(reset_state=True)`` is observably a full rebuild."""

    @staticmethod
    def _pingpong(ctx):
        if ctx.rank == 0:
            yield ctx.comm.send(4096, dest=ctx.size - 1, tag=5)
            yield ctx.comm.recv(source=ctx.size - 1, tag=5)
        elif ctx.rank == ctx.size - 1:
            yield ctx.comm.recv(source=0, tag=5)
            yield ctx.comm.send(4096, dest=0, tag=5)
        return ctx.now

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    def test_reset_runs_match_fresh_runs(self, noise_sigma):
        fresh = SimJob(lassen(), num_nodes=2, ppn=4,
                       noise_sigma=noise_sigma, seed=13)
        reused = SimJob(lassen(), num_nodes=2, ppn=4,
                        noise_sigma=noise_sigma, seed=13)
        for _ in range(3):
            a = fresh.run(self._pingpong)
            b = reused.run(self._pingpong, reset_state=True)
            assert _hex(a.elapsed) == _hex(b.elapsed)
            assert a.rank_times == b.rank_times
            assert a.stats.messages == b.stats.messages
            assert a.stats.by_protocol == b.stats.by_protocol
            assert a.stats.by_locality == b.stats.by_locality

    def test_reset_clears_per_rep_stats(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4)
        first = job.run(self._pingpong, reset_state=True)
        second = job.run(self._pingpong, reset_state=True)
        # stats describe one rep, not the accumulated history
        assert first.stats.messages == second.stats.messages == 2
