"""Point-to-point semantics: matching, wildcards, ordering, data integrity."""

import numpy as np
import pytest

from repro.machine import lassen
from repro.mpi import ANY_SOURCE, ANY_TAG, SimJob
from repro.mpi.communicator import Message


@pytest.fixture
def job():
    return SimJob(lassen(), num_nodes=2, ppn=4)


class TestBasicSendRecv:
    def test_payload_delivered_intact(self, job):
        data = np.arange(256, dtype=np.float64)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(data, dest=3, tag=5)
            elif ctx.rank == 3:
                msg = yield ctx.comm.recv(source=0, tag=5)
                assert isinstance(msg, Message)
                assert msg.source == 0 and msg.tag == 5
                assert np.array_equal(msg.data, data)
                return "got"
            return None

        res = job.run(program)
        assert res.values[3] == "got"

    def test_send_before_recv_posted(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(64, dest=1, tag=1)
            elif ctx.rank == 1:
                yield ctx.timeout(1e-3)  # post late
                msg = yield ctx.comm.recv(source=0, tag=1)
                return ctx.now
            return None

        res = job.run(program)
        assert res.values[1] >= 1e-3  # completes no earlier than the post

    def test_recv_before_send_posted(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.timeout(1e-3)
                yield ctx.comm.send(64, dest=1, tag=1)
            elif ctx.rank == 1:
                msg = yield ctx.comm.recv(source=0, tag=1)
                return ctx.now
            return None

        res = job.run(program)
        assert res.values[1] > 1e-3

    def test_invalid_dest_rejected(self, job):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(1, dest=99)
            return None
            yield

        with pytest.raises(Exception):
            job.run(program)


class TestMatching:
    def test_tag_selectivity(self, job):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(np.array([1.0]), dest=1, tag=10)
                ctx.comm.isend(np.array([2.0]), dest=1, tag=20)
                yield ctx.timeout(0)
            elif ctx.rank == 1:
                m20 = yield ctx.comm.recv(source=0, tag=20)
                m10 = yield ctx.comm.recv(source=0, tag=10)
                return (m20.data[0], m10.data[0])
            return None

        res = job.run(program)
        assert res.values[1] == (2.0, 1.0)

    def test_any_source_any_tag(self, job):
        def program(ctx):
            if ctx.rank in (0, 2):
                yield ctx.comm.send(np.array([float(ctx.rank)]), dest=1,
                                    tag=ctx.rank + 1)
            elif ctx.rank == 1:
                a = yield ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                b = yield ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                return sorted([a.source, b.source])
            return None

        res = job.run(program)
        assert res.values[1] == [0, 2]

    def test_non_overtaking_same_source_tag(self, job):
        """Messages on one (src, dest, tag) arrive in send order."""
        def program(ctx):
            if ctx.rank == 0:
                for k in range(8):
                    ctx.comm.isend(np.array([float(k)]), dest=1, tag=7)
                yield ctx.timeout(0)
            elif ctx.rank == 1:
                got = []
                for _ in range(8):
                    msg = yield ctx.comm.recv(source=0, tag=7)
                    got.append(msg.data[0])
                return got
            return None

        res = job.run(program)
        assert res.values[1] == [float(k) for k in range(8)]

    def test_wildcard_does_not_steal_specific_match(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(np.array([1.0]), dest=1, tag=3)
            elif ctx.rank == 2:
                yield ctx.comm.send(np.array([2.0]), dest=1, tag=4)
            elif ctx.rank == 1:
                specific = ctx.comm.irecv(source=2, tag=4)
                anymsg = ctx.comm.irecv(source=ANY_SOURCE, tag=ANY_TAG)
                s = yield specific.wait()
                a = yield anymsg.wait()
                return (s.source, a.source)
            return None

        res = job.run(program)
        assert res.values[1][0] == 2

    def test_request_test_and_value(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(32, dest=1)
            elif ctx.rank == 1:
                req = ctx.comm.irecv(source=0)
                assert not req.test()
                with pytest.raises(RuntimeError):
                    _ = req.value
                msg = yield req.wait()
                assert req.test() and req.value is msg
            return None

        job.run(program)


class TestExchanges:
    def test_all_to_all_by_point_to_point(self, job):
        """Every rank sends one distinct value to every other rank."""
        def program(ctx):
            others = [r for r in range(ctx.size) if r != ctx.rank]
            recvs = [ctx.comm.irecv(source=s, tag=2) for s in others]
            sends = [ctx.comm.isend(np.array([100.0 * ctx.rank + d]),
                                    dest=d, tag=2) for d in others]
            msgs = yield ctx.comm.waitall(recvs + sends)
            return {m.source: m.data[0] for m in msgs[:len(recvs)]}

        res = job.run(program)
        for rank, got in enumerate(res.values):
            assert got == {s: 100.0 * s + rank
                           for s in range(8) if s != rank}

    def test_sparse_senders(self, job):
        """Only rank 0 sends; the ANY_SOURCE receive on rank 1 gets it
        and nothing else waits."""
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(np.ones(4), dest=1, tag=0)
            elif ctx.rank == 1:
                msg = yield ctx.comm.recv(source=ANY_SOURCE, tag=0)
                return msg.source, msg.nbytes
            return None

        res = job.run(program)
        assert res.values[1] == (0, 32)
        assert all(v is None for r, v in enumerate(res.values) if r != 1)


class TestWaitall:
    def test_waitall_returns_in_request_order(self, job):
        def program(ctx):
            if ctx.rank == 0:
                # Bigger message (tag 2) sent first, arrives later anyway
                ctx.comm.isend(10**6, dest=1, tag=2)
                ctx.comm.isend(8, dest=1, tag=1)
                yield ctx.timeout(0)
            elif ctx.rank == 1:
                reqs = [ctx.comm.irecv(source=0, tag=1),
                        ctx.comm.irecv(source=0, tag=2)]
                msgs = yield ctx.comm.waitall(reqs)
                return [m.tag for m in msgs]
            return None

        res = job.run(program)
        assert res.values[1] == [1, 2]

    def test_waitall_empty(self, job):
        def program(ctx):
            msgs = yield ctx.comm.waitall([])
            return msgs

        res = job.run(program)
        assert res.values[0] == []
