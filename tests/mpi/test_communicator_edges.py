"""Communicator edge cases and error paths."""

import numpy as np
import pytest

from repro.machine import lassen
from repro.mpi import ANY_TAG, SimJob
from repro.mpi.communicator import Communicator


@pytest.fixture
def job():
    return SimJob(lassen(), num_nodes=2, ppn=4)


class TestValidation:
    def test_negative_tag_rejected(self, job):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(1, dest=1, tag=-5)
            return None
            yield

        with pytest.raises(Exception, match="invalid tag"):
            job.run(program)

    def test_out_of_range_source_rejected(self, job):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.irecv(source=99)
            return None
            yield

        with pytest.raises(Exception, match="source"):
            job.run(program)

    def test_duplicate_ranks_rejected(self, job):
        with pytest.raises(ValueError, match="duplicate"):
            Communicator(job.transport, [0, 0, 1], name="bad")

    def test_handle_requires_membership(self, job):
        sub = Communicator(job.transport, [0, 1, 2], name="sub")
        with pytest.raises(ValueError, match="not in communicator"):
            sub.handle(5)

    def test_contains_and_local_rank(self, job):
        sub = Communicator(job.transport, [3, 1, 5], name="sub")
        assert sub.contains(5) and not sub.contains(0)
        assert sub.local_rank(3) == 0 and sub.local_rank(5) == 2

    def test_tag_bound(self, job):
        """The largest legal tag, 2**31 - 1, is sent and matched."""
        top = 2**31 - 1

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(7, dest=1, tag=top)
            if ctx.rank == 1:
                msg = yield ctx.comm.recv(source=0, tag=top)
                return msg.data
            return None

        res = job.run(program)
        assert res.values[1] == 7

    @pytest.mark.parametrize("call", ["isend", "irecv"])
    @pytest.mark.parametrize("tag", [-2, -100, 2**31, 2**40])
    def test_tag_outside_bound_rejected(self, job, call, tag):
        # irecv also takes ANY_TAG (-1); any other tag must be in
        # [0, 2**31) for both calls, or nothing could ever match it
        comm = job.world.handle(0)
        with pytest.raises(ValueError, match=rf"^invalid tag {tag}$"):
            if call == "isend":
                comm.isend(1, dest=1, tag=tag)
            else:
                comm.irecv(source=1, tag=tag)

    @pytest.mark.parametrize("recv_tag", ["exact", "any"])
    @pytest.mark.parametrize("tag", [0, 2**31 - 1])
    def test_legal_tag_is_matched(self, job, tag, recv_tag):
        want = tag if recv_tag == "exact" else ANY_TAG

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(3, dest=1, tag=tag)
            if ctx.rank == 1:
                msg = yield ctx.comm.recv(source=0, tag=want)
                return msg.tag
            return None

        assert job.run(program).values[1] == tag

    @pytest.mark.parametrize("source", [-2, 8, 99])
    def test_source_outside_range_rejected(self, job, source):
        comm = job.world.handle(0)
        with pytest.raises(ValueError,
                           match=rf"^source {source} out of range for 'world'"):
            comm.irecv(source=source, tag=0)

    @pytest.mark.parametrize("dest", [-1, 8, 99])
    def test_dest_outside_range_rejected(self, job, dest):
        comm = job.world.handle(0)
        with pytest.raises(ValueError,
                           match=rf"^dest {dest} out of range for 'world' "
                                 r"\(size 8\)$"):
            comm.isend(1, dest=dest, tag=0)


class TestSubCommunicators:
    def test_local_ranks_relabelled(self, job):
        # even world ranks -> sub ranks 0..3 in world order
        evens = Communicator(job.transport, range(0, 8, 2), name="evens")
        assert [evens.handle(w).rank for w in range(0, 8, 2)] == [0, 1, 2, 3]

    def test_messages_between_subcomm_use_local_ranks(self, job):
        per_node = [Communicator(job.transport, range(4 * n, 4 * n + 4),
                                 name=f"node{n}") for n in range(2)]

        def program(ctx):
            sub = per_node[ctx.node].handle(ctx.rank)
            payload = np.array([float(ctx.rank)])
            if sub.rank == 0:
                sub.isend(payload, dest=3, tag=1)
            received = None
            if sub.rank == 3:
                msg = yield sub.recv(source=0, tag=1)
                assert msg.source == 0
                received = msg.data[0]
            return received

        # reuse_state: the communicators above live on this transport
        res = job.run(program, reuse_state=True)
        assert res.values[3] == 0.0   # node 0's sub rank 0 is world 0
        assert res.values[7] == 4.0   # node 1's sub rank 0 is world 4

    def test_subcommunicator_isolated_from_parent(self, job):
        """The same (source, dest, tag) on two communicators never
        cross-matches, whichever receive is posted first."""
        pair = Communicator(job.transport, [0, 1], name="pair")

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(np.array([1.0]), dest=1, tag=3)
                pair.handle(0).isend(np.array([2.0]), dest=1, tag=3)
            elif ctx.rank == 1:
                # a shared queue would hand the world message to this one
                on_sub = yield pair.handle(1).recv(source=0, tag=3)
                on_world = yield ctx.comm.recv(source=0, tag=3)
                return on_world.data[0], on_sub.data[0]
            return None

        res = job.run(program, reuse_state=True)
        assert res.values[1] == (1.0, 2.0)

    def test_overlapping_subcommunicators(self, job):
        evens = Communicator(job.transport, range(0, 8, 2), name="evens")
        node0 = Communicator(job.transport, range(4), name="node0")
        shared = [w for w in range(8) if evens.contains(w) and node0.contains(w)]
        assert shared == [0, 2]
        assert [(evens.handle(w).rank, node0.handle(w).rank)
                for w in shared] == [(0, 0), (1, 2)]
        assert evens.handle(6).size == 4 and node0.handle(3).size == 4

    @pytest.mark.parametrize("members", [
        [0, 2, 4, 6], [1, 3, 5, 7], [7, 6, 5, 4, 3, 2, 1, 0], [4, 5, 6, 7],
    ], ids=["evens", "odds", "reversed", "node1"])
    def test_gather_over_point_to_point(self, job, members):
        """Every member sends to local rank 0, which receives per source:
        values come back in local-rank order."""
        sub = Communicator(job.transport, members, name="sub")

        def program(ctx):
            if not sub.contains(ctx.rank):
                return None
            comm = sub.handle(ctx.rank)
            if comm.rank != 0:
                yield comm.send(np.array([10.0 * ctx.rank]), dest=0, tag=9)
                return None
            reqs = [comm.irecv(source=s, tag=9) for s in range(1, comm.size)]
            msgs = yield comm.waitall(reqs)
            return [10.0 * ctx.rank] + [m.data[0] for m in msgs]

        res = job.run(program, reuse_state=True)
        assert res.values[members[0]] == [10.0 * w for w in members]


class TestRequests:
    def test_send_request_value_is_none(self, job):
        def program(ctx):
            if ctx.rank == 0:
                req = ctx.comm.isend(64, dest=1, tag=1)
                yield req.wait()
                return req.value
            elif ctx.rank == 1:
                yield ctx.comm.recv(source=0, tag=1)
            return "recv"

        res = job.run(program)
        assert res.values[0] is None

    def test_message_nbytes_property(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(np.zeros(16), dest=1, tag=1)
            elif ctx.rank == 1:
                msg = yield ctx.comm.recv(source=0, tag=1)
                return msg.nbytes
            return None

        assert job.run(program).values[1] == 128
