"""Hierarchical 3-Step: the full node hierarchy (paper Section 2.3.1).

The paper notes that 3-Step "can be extended to include further
breakdown of data exchanges to include intra-socket data communication
before the intra-node communication phase", and that this full-
hierarchy variant is what delivers optimal GPU-to-GPU performance in
Hidayetoglu et al. [13] — on machines like Lassen/Summit the on-socket
GPU interconnect (alpha ~1.9e-6) is an order of magnitude faster than
the cross-socket path (alpha ~2.0e-5), so concentrating cross-socket
traffic into one message per socket pays off.

Five phases (gather and redistribution are both hierarchical):

1. **Socket gather** — contributors send their deduplicated unions to
   their socket's *leader* for the destination node.
2. **Node gather** — socket leaders forward one combined buffer to the
   node's paired sender.
3. **Inter-node** — one buffer per node pair (as plain 3-Step).
4. **Socket scatter** — the paired receiver keeps its own socket's
   records and sends one combined message per other socket to that
   socket's *redistribution leader*.
5. **Final redistribute** — leaders (and the paired receiver on its own
   socket) deliver per-GPU records to their owners.

On-node (same node) messages still go direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Set, Tuple

import numpy as np

from repro.core.base import (
    TAG_GATHER,
    TAG_INTER,
    TAG_LOCAL,
    TAG_REDIST,
    TAG_SGATHER,
    TAG_SREDIST,
    CommunicationStrategy,
    NodePlan,
    PlanBuilder,
    RankPlan,
    expand_messages,
    flatten_messages,
    host_copies,
    whole_copy,
)
from repro.core.pattern import CommPattern
from repro.core.records import NodeRecord, Record, group_by, records_nbytes
from repro.core.three_step import pair_receiver, pair_sender
from repro.machine.topology import JobLayout
from repro.mpi.job import RankContext


def socket_leader(layout: JobLayout, node: int, socket: int,
                  dest_node: int) -> int:
    """The owner rank on (node, socket) leading the gather for a
    destination node — round-robin over the socket's GPUs."""
    gps = layout.machine.gpus_per_socket
    local_gpu = socket * gps + dest_node % gps
    return layout.owner_of_gpu(node, local_gpu)


def redist_leader(layout: JobLayout, receiver: int, socket: int) -> int:
    """The rank on ``socket`` of the receiver's node that fans out the
    receiver's cross-socket records (index-matched to the receiver)."""
    gps = layout.machine.gpus_per_socket
    rgpu = layout.gpu_of(receiver)
    local_gpu = socket * gps + (rgpu % gps)
    return layout.owner_of_gpu(layout.node_of(receiver), local_gpu)


@dataclass
class _RankPlan(RankPlan):
    #: contributor -> socket leader: (leader_rank, dest_node, union idx)
    sgather_sends: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    #: unions this rank keeps because it leads its socket for dest_node
    leader_own: Dict[int, List[np.ndarray]] = field(default_factory=dict)
    #: as socket leader: dest_node -> (#TAG_SGATHER msgs, pair sender rank)
    lead: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: as pair sender: dest_node -> (recv rank, # TAG_GATHER leader msgs)
    forward: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: as pair receiver: sockets to fan out to (socket -> RL rank)
    scatter_to: Dict[int, int] = field(default_factory=dict)
    #: as redistribution leader: # TAG_SREDIST msgs expected
    n_sredist_recv: int = 0


def _build_plan(pattern: CommPattern, layout: JobLayout) -> NodePlan:
    b = PlanBuilder(pattern, layout, _RankPlan)
    node_of = b.node_of
    b.plan_local_sends()

    # Socket-level gather structure.
    #   contributors[(node, socket, dest_node)] = {contributor ranks}
    contributors: Dict[Tuple[int, int, int], Set[int]] = {}
    for (src_gpu, dest_node), (union, _pos) in sorted(b.dedup.items()):
        src_rank = layout.owner_of_global_gpu(src_gpu)
        src_node = node_of[src_gpu]
        socket = layout.socket_of(src_rank)
        rp = b.rank(src_rank, src_gpu)
        rp.send_bytes += len(union) * pattern.itemsize
        leader = socket_leader(layout, src_node, socket, dest_node)
        if leader == src_rank:
            rp.leader_own.setdefault(dest_node, []).append(union)
        else:
            rp.sgather_sends.append((leader, dest_node, union))
        contributors.setdefault((src_node, socket, dest_node),
                                set()).add(src_rank)

    # Leader duties and pair-sender expectations.
    #   node_dests[(node, dest_node)] = {sockets with contributors}
    node_dests: Dict[Tuple[int, int], Set[int]] = {}
    for (node, socket, dest_node), who in sorted(contributors.items()):
        leader = socket_leader(layout, node, socket, dest_node)
        sender = pair_sender(layout, node, dest_node)
        n_msgs = len(who - {leader})
        b.rank(leader).lead[dest_node] = (n_msgs, sender)
        node_dests.setdefault((node, dest_node), set()).add(socket)

    for (node, dest_node), sockets in sorted(node_dests.items()):
        sender = pair_sender(layout, node, dest_node)
        receiver = pair_receiver(layout, node, dest_node)
        # Leaders on other sockets forward one TAG_GATHER message each;
        # if the sender's own socket has contributors, its leader IS a
        # separate rank only when round-robin picked someone else.
        n_leader_msgs = sum(
            1 for socket in sockets
            if socket_leader(layout, node, socket, dest_node) != sender)
        b.rank(sender).forward[dest_node] = (receiver, n_leader_msgs)
        b.rank(receiver).n_inter_recv += 1

    # Receive side: final expectations, then scatter duties.
    b.plan_receivers()

    # For every (origin node k, dest node l): receiver R(k,l) scatters.
    pair_traffic: Dict[Tuple[int, int], Set[int]] = {}
    for (src_gpu, dest_node), (_u, pos) in b.dedup.items():
        for dest_gpu in pos:
            pair_traffic.setdefault((node_of[src_gpu], dest_node),
                                    set()).add(dest_gpu)
    # Final redistribution senders per dest gpu.  A rank can address the
    # same owner in two roles (paired receiver for one origin AND
    # redistribution leader for another receiver) and sends one message
    # per role, so count (rank, role) pairs.
    redist_senders: Dict[int, Set[Tuple[int, str]]] = {}
    for (origin, dest_node), dest_gpus in sorted(pair_traffic.items()):
        receiver = pair_receiver(layout, origin, dest_node)
        r_socket = layout.socket_of(receiver)
        rrp = b.rank(receiver)
        for dest_gpu in dest_gpus:
            owner = layout.owner_of_global_gpu(dest_gpu)
            socket = layout.socket_of(owner)
            if socket == r_socket:
                redist_senders.setdefault(dest_gpu, set()).add(
                    (receiver, "recv"))
            else:
                rl = redist_leader(layout, receiver, socket)
                if socket not in rrp.scatter_to:
                    rrp.scatter_to[socket] = rl
                    b.rank(rl).n_sredist_recv += 1
                redist_senders.setdefault(dest_gpu, set()).add((rl, "lead"))

    for dest_gpu, senders in redist_senders.items():
        owner = layout.owner_of_global_gpu(dest_gpu)
        n = sum(1 for rank, _role in senders if rank != owner)
        b.rank(owner, dest_gpu).n_redist_recv = n

    return b.node_plan()


class _HierarchicalBase(CommunicationStrategy):
    name = "3-Step H"
    trace_phases = ("socket-gather", "gather", "inter-node",
                    "socket-redistribute", "redistribute",
                    "on-node direct")

    def plan(self, pattern: CommPattern, layout: JobLayout) -> NodePlan:
        return _build_plan(pattern, layout)

    def program(self, ctx: RankContext, plan: NodePlan,
                data: Sequence[np.ndarray]) -> Generator:
        rp = plan.by_rank.get(ctx.rank)
        if rp is None:
            return 0.0, None
            yield  # pragma: no cover
        t0 = ctx.now
        staged = self.effective_staged(ctx)
        yield from host_copies(ctx, rp.gpu, whole_copy(rp.send_bytes, staged),
                               d2h=True)

        local_reqs = [ctx.comm.irecv(tag=TAG_LOCAL)
                      for _ in range(rp.n_local_recv)]
        n_sgather = sum(n for n, _s in rp.lead.values())
        sgather_reqs = [ctx.comm.irecv(tag=TAG_SGATHER)
                        for _ in range(n_sgather)]
        n_gather = sum(n for _r, n in rp.forward.values())
        gather_reqs = [ctx.comm.irecv(tag=TAG_GATHER)
                       for _ in range(n_gather)]
        inter_reqs = [ctx.comm.irecv(tag=TAG_INTER)
                      for _ in range(rp.n_inter_recv)]
        sredist_reqs = [ctx.comm.irecv(tag=TAG_SREDIST)
                        for _ in range(rp.n_sredist_recv)]
        redist_reqs = [ctx.comm.irecv(tag=TAG_REDIST)
                       for _ in range(rp.n_redist_recv)]
        send_reqs: list = []

        # Phase 0: on-node direct messages.
        self._send_local(ctx, rp, data, staged, send_reqs)

        # Phase 1: intra-socket gather to the socket leaders.
        with ctx.phase("socket-gather"):
            self._send_unions(ctx, rp, data, rp.sgather_sends, TAG_SGATHER,
                              staged, send_reqs)

        # Phase 2: socket leaders forward to the paired sender (a leader
        # that IS the paired sender keeps its bucket for phase 3).
        leader_buckets: Dict[int, List[NodeRecord]] = {
            node: [NodeRecord(rp.gpu, node, 0, data[rp.gpu][u])
                   for u in unions]
            for node, unions in rp.leader_own.items()
        }
        if rp.lead:
            with ctx.phase("gather"):
                msgs = yield ctx.comm.waitall(sgather_reqs)
                for nrec in flatten_messages(msgs):
                    leader_buckets.setdefault(nrec.dest_node, []).append(nrec)
                self._forward(ctx, leader_buckets,
                              [(node, sender) for node, (_n, sender)
                               in sorted(rp.lead.items())
                               if sender != ctx.rank],
                              TAG_GATHER, staged, send_reqs)

        # Phase 3: paired sender ships one buffer per destination node.
        if rp.forward:
            with ctx.phase("inter-node"):
                buckets: Dict[int, List[NodeRecord]] = {}
                for dest_node in rp.forward:
                    if (dest_node in rp.lead
                            and rp.lead[dest_node][1] == ctx.rank):
                        buckets[dest_node] = leader_buckets.get(dest_node, [])
                msgs = yield ctx.comm.waitall(gather_reqs)
                for nrec in flatten_messages(msgs):
                    buckets.setdefault(nrec.dest_node, []).append(nrec)
                self._forward(ctx, buckets,
                              [(node, recv_rank) for node, (recv_rank, _n)
                               in sorted(rp.forward.items())],
                              TAG_INTER, staged, send_reqs)

        # Phase 4: paired receiver expands, delivers on its own socket
        # and sends one combined message per other socket.
        kept: List[Record] = []
        if rp.n_inter_recv:
            with ctx.phase("socket-redistribute"):
                msgs = yield ctx.comm.waitall(inter_reqs)
                own_socket: List[Record] = []
                per_socket: Dict[int, List[Record]] = {}
                for dest_gpu, recs in sorted(group_by(
                        expand_messages(plan.positions, msgs),
                        "dest_gpu").items()):
                    owner = ctx.layout.owner_of_global_gpu(dest_gpu)
                    socket = ctx.layout.socket_of(owner)
                    if socket == ctx.socket:
                        own_socket.extend(recs)
                    else:
                        per_socket.setdefault(socket, []).extend(recs)
                self._deliver(ctx, own_socket, kept, send_reqs, staged)
                for socket, recs in sorted(per_socket.items()):
                    nbytes = records_nbytes(recs)
                    send_reqs.append(ctx.comm.isend(
                        self._wrap(ctx, recs, nbytes, staged),
                        dest=rp.scatter_to[socket], tag=TAG_SREDIST,
                        nbytes=nbytes))

        # Phase 5: redistribution leaders deliver to final owners.
        if rp.n_sredist_recv:
            with ctx.phase("redistribute"):
                msgs = yield ctx.comm.waitall(sredist_reqs)
                self._deliver(ctx, flatten_messages(msgs), kept, send_reqs,
                              staged)

        return (yield from self._finish(ctx, rp, t0, kept, local_reqs,
                                        redist_reqs, send_reqs,
                                        whole_copy(rp.recv_bytes, staged)))


class ThreeStepHierarchicalStaged(_HierarchicalBase):
    """Hierarchical 3-Step staged through host processes."""

    data_path = "staged"


class ThreeStepHierarchicalDevice(_HierarchicalBase):
    """Hierarchical 3-Step fully GPU-to-GPU — the [13] configuration."""

    data_path = "device-aware"
