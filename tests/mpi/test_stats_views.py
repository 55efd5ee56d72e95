"""``TransportStats.by_protocol`` / ``by_locality`` are views of one tally.

A message bumps one ``(protocol, locality)`` count; the two per-axis
``Counter``s every caller reads are derived from it.  They must be what
two separately kept ``Counter``s would hold — rebuilt here from the
message trace, which records each message's protocol and locality on
its own — on the cells ``tests/test_equivalence.py`` pins.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.selector import strategy_by_name
from repro.machine import lassen
from repro.machine.locality import Locality, Protocol
from repro.mpi.job import SimJob
from repro.sparse.distributed import DistributedCSR
from repro.sparse.spmv import distributed_spmv
from repro.sparse.suite import SUITE


def _check_views(stats, trace_log):
    by_protocol = Counter(t.protocol for t in trace_log)
    by_locality = Counter(t.locality for t in trace_log)
    assert stats.messages == len(trace_log) > 0
    assert sum(stats.tally.values()) == stats.messages
    for view, want, members in ((stats.by_protocol, by_protocol, Protocol),
                                (stats.by_locality, by_locality, Locality)):
        assert isinstance(view, Counter)
        assert view == want and want == view
        assert list(view) == list(want)  # first-seen order, as two Counters
        for member in members:
            assert (member in view) == (member in want)
            assert view.get(member) == want.get(member)
            assert view.get(member, 0) == view[member] == want[member]
    assert stats.by_locality[Locality.OFF_NODE] == stats.off_node_messages


@pytest.mark.parametrize("label", ["Standard (staged)", "3-Step (staged)",
                                   "2-Step (device-aware)"])
def test_views_on_the_seeded_spmv_cell(label):
    matrix = SUITE["audikw_1"].build(4000)
    job = SimJob(lassen(), num_nodes=2, ppn=40, noise_sigma=0.05, seed=7,
                 trace=True)
    dist = DistributedCSR(matrix, num_gpus=8)
    v = np.random.default_rng(3).standard_normal(dist.n)
    distributed_spmv(job, dist, strategy_by_name(label), v)
    _check_views(job.transport.stats, job.transport.trace_log)


def test_views_on_the_pingpong_cell_and_after_a_reset():
    def pingpong(ctx):
        if ctx.rank == 0:
            yield ctx.comm.send(4096, dest=ctx.size - 1, tag=5)
            yield ctx.comm.recv(source=ctx.size - 1, tag=5)
        elif ctx.rank == ctx.size - 1:
            yield ctx.comm.recv(source=0, tag=5)
            yield ctx.comm.send(4096, dest=0, tag=5)
        return ctx.now

    job = SimJob(lassen(), num_nodes=2, ppn=4, trace=True)
    first = job.run(pingpong, reset_state=True)
    _check_views(first.stats, job.transport.trace_log)
    assert first.stats.by_protocol == Counter({Protocol.EAGER: 2})
    assert Protocol.SHORT not in first.stats.by_protocol
    assert first.stats.by_locality.get(Locality.ON_NODE, 0) == 0
    job.transport.clear_trace()
    second = job.run(pingpong, reset_state=True)
    assert second.stats.by_protocol == first.stats.by_protocol
    assert second.stats.by_locality == first.stats.by_locality


def test_views_of_an_idle_transport_are_empty_counters():
    job = SimJob(lassen(), num_nodes=1, ppn=4)
    stats = job.transport.stats
    assert stats.by_protocol == Counter() == stats.by_locality
    assert stats.by_protocol[Protocol.EAGER] == 0
