"""Every strategy delivers exactly the same data as direct exchange.

This is the load-bearing correctness property of the whole package: all
13 registered implementations — Standard, 3-Step, 2-Step, 3-Step H and
Neighbor P (each staged and device-aware), Split + MD, Split + DD and
ML 3-Step — are *routings* of the same irregular exchange, so delivered
payloads must be bit-identical for any pattern — including patterns
with heavy duplication, empty rows, single active senders, and
cap-straddling volumes.  Registering a strategy puts it here.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    CommPattern,
    all_strategies,
    run_exchange,
    verify_exchange,
)
from repro.core.base import default_data
from repro.machine import lassen
from repro.mpi import SimJob

STRATEGIES = all_strategies()


def job_for(num_nodes, ppn=8):
    return SimJob(lassen(), num_nodes=num_nodes, ppn=ppn)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
class TestCanonicalPatterns:
    def test_random_pattern(self, strategy):
        job = job_for(3)
        pattern = CommPattern.random(12, 300, 5, 40, seed=1)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)
        assert res.comm_time > 0

    def test_single_hot_sender(self, strategy):
        """One GPU sends identical data to every other GPU."""
        job = job_for(3)
        sends = {0: {d: np.arange(64) for d in range(1, 12)}}
        pattern = CommPattern(12, sends)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)

    def test_pairwise_ring(self, strategy):
        """Each GPU sends only to its successor (minimal pattern)."""
        job = job_for(3)
        sends = {g: {(g + 1) % 12: np.arange(g + 1)} for g in range(12)}
        pattern = CommPattern(12, sends)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)

    def test_on_node_only(self, strategy):
        """No inter-node traffic at all."""
        job = job_for(2)
        sends = {0: {1: np.arange(10)}, 2: {3: np.arange(5)},
                 5: {4: np.arange(3)}}
        pattern = CommPattern(8, sends)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)

    def test_empty_pattern(self, strategy):
        job = job_for(2)
        pattern = CommPattern(8, {})
        res = run_exchange(job, strategy, pattern)
        assert res.comm_time == 0.0 and res.received == {}

    def test_large_messages_cross_split_cap(self, strategy):
        """Node-pair volumes far above the 8 KiB cap."""
        job = job_for(2)
        sends = {g: {(g + 4) % 8: np.arange(4000)} for g in range(8)}
        pattern = CommPattern(8, sends)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)

    def test_asymmetric_pattern(self, strategy):
        """Sends without matching reverse traffic."""
        job = job_for(3)
        sends = {
            0: {11: np.array([0, 7, 9])},
            7: {0: np.arange(200), 1: np.arange(100, 300)},
        }
        pattern = CommPattern(12, sends)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)

    def test_noise_does_not_affect_correctness(self, strategy):
        job = SimJob(lassen(), num_nodes=2, ppn=8, noise_sigma=0.3, seed=11)
        pattern = CommPattern.random(8, 200, 4, 30, seed=2)
        data = default_data(pattern, job.layout)
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)


@st.composite
def patterns(draw):
    num_gpus = draw(st.sampled_from([8, 12]))
    local_n = draw(st.integers(min_value=16, max_value=128))
    sends = {}
    n_senders = draw(st.integers(min_value=1, max_value=num_gpus))
    senders = draw(st.permutations(range(num_gpus)))[:n_senders]
    for src in senders:
        n_dests = draw(st.integers(min_value=1, max_value=min(5, num_gpus - 1)))
        dests = [d for d in draw(st.permutations(range(num_gpus)))
                 if d != src][:n_dests]
        dmap = {}
        for d in dests:
            k = draw(st.integers(min_value=1, max_value=local_n))
            start = draw(st.integers(min_value=0, max_value=local_n - k))
            dmap[d] = np.arange(start, start + k)
        sends[src] = dmap
    return CommPattern(num_gpus, sends)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pattern=patterns(), seed=st.integers(min_value=0, max_value=99))
def test_all_strategies_agree_on_random_patterns(pattern, seed):
    """Property: all 13 implementations deliver identical payloads."""
    nodes = (pattern.num_gpus + 3) // 4
    job = SimJob(lassen(), num_nodes=nodes, ppn=8)
    data = default_data(pattern, job.layout, seed=seed)
    reference = None
    for strategy in STRATEGIES:
        res = run_exchange(job, strategy, pattern, data)
        verify_exchange(res, pattern, data)
        snapshot = {
            dest: {src: arr.copy() for src, arr in by_src.items()}
            for dest, by_src in res.received.items()
        }
        if reference is None:
            reference = snapshot
        else:
            assert snapshot.keys() == reference.keys()
            for dest in snapshot:
                assert snapshot[dest].keys() == reference[dest].keys()
                for src in snapshot[dest]:
                    assert np.array_equal(snapshot[dest][src],
                                          reference[dest][src])
