"""3-Step node-aware communication (paper Section 2.3.1, Figure 2.3).

For every node pair ``(k, l)`` with traffic a single *paired* process on
``k`` is responsible for node ``l`` (chosen round-robin over the GPU
owner ranks, so all processes stay active):

1. **Gather** — every on-node process sends its data destined to node
   ``l`` to the paired sender (one message per contributing process).
2. **Inter-node** — the paired sender ships ONE combined buffer to the
   paired receiver on ``l``.
3. **Redistribute** — the paired receiver expands the buffer and
   forwards each record to its final destination GPU on-node.

Both redundancies of standard communication are eliminated: one
inter-node message per node pair, and each source entry crosses the
network once per destination *node* (the gather contributions are
already deduplicated unions — Figure 2.2's data redundancy).  On-node
messages bypass the scheme and go directly.

:func:`_build_plan` runs the scheme once per *leader group* of
``group_size`` contiguous GPUs per node: 3-Step is the one-group case
(``group_size`` = GPUs per node), multi-leader 3-Step
(:mod:`repro.core.multileader`) passes the machine's leader-group size.
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
from repro.core.records import NodeRecord, Record
from repro.machine.topology import JobLayout
from repro.mpi.job import RankContext


def _leader(layout: JobLayout, node: int, peer_node: int, group: int,
            group_size: int) -> int:
    """Rank on ``node`` leading ``group``'s stream to or from
    ``peer_node`` — round-robin over the group's contiguous GPUs."""
    base = group * group_size
    width = min(group_size, layout.machine.gpus_per_node - base)
    return layout.owner_of_gpu(node, base + peer_node % width)


def pair_sender(layout: JobLayout, src_node: int, dest_node: int) -> int:
    """Rank on ``src_node`` responsible for sending to ``dest_node``."""
    return _leader(layout, src_node, dest_node, 0,
                   layout.machine.gpus_per_node)


def pair_receiver(layout: JobLayout, src_node: int, dest_node: int) -> int:
    """Rank on ``dest_node`` responsible for receiving from ``src_node``."""
    return _leader(layout, dest_node, src_node, 0,
                   layout.machine.gpus_per_node)


@dataclass
class _RankPlan(RankPlan):
    #: deduplicated gather contributions: (pair_rank, dest_node, union idx)
    gather_sends: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    #: own unions for nodes where *this* rank is the paired sender
    own_contrib: Dict[int, np.ndarray] = field(default_factory=dict)
    #: dest_node -> (recv_pair_rank, n_gather_msgs_expected)
    forward: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def _build_plan(pattern: CommPattern, layout: JobLayout,
                group_size: int) -> NodePlan:
    gpn = layout.machine.gpus_per_node
    b = PlanBuilder(pattern, layout, _RankPlan)
    node_of = b.node_of
    b.plan_local_sends()

    def group_of(gpu: int) -> int:
        return (gpu % gpn) // group_size

    # Deduplicated gather contributions, routed to the group's sender.
    contributors: Dict[Tuple[int, int, int], Set[int]] = {}
    for (src_gpu, dest_node), (union, _pos) in sorted(b.dedup.items()):
        src_rank = layout.owner_of_global_gpu(src_gpu)
        src_node = node_of[src_gpu]
        group = group_of(src_gpu)
        rp = b.rank(src_rank, src_gpu)
        rp.send_bytes += len(union) * pattern.itemsize
        sender = _leader(layout, src_node, dest_node, group, group_size)
        if sender == src_rank:
            rp.own_contrib[dest_node] = union
        else:
            rp.gather_sends.append((sender, dest_node, union))
        contributors.setdefault((src_node, dest_node, group),
                                set()).add(src_rank)

    # Forwarding duties and inter-node receive counts: one stream per
    # (node pair, group).
    for (src_node, dest_node, group), who in sorted(contributors.items()):
        sender = _leader(layout, src_node, dest_node, group, group_size)
        receiver = _leader(layout, dest_node, src_node, group, group_size)
        b.rank(sender).forward[dest_node] = (receiver, len(who - {sender}))
        b.rank(receiver).n_inter_recv += 1

    for gpu, rank, rp in b.plan_receivers():
        # A paired receiver combines records from every (origin node,
        # group) it handles into ONE redistribution message per
        # destination owner, so count distinct receiver ranks.
        origins = {(node_of[src], group_of(src)) for src in rp.expected
                   if node_of[src] != node_of[gpu]}
        receivers = {_leader(layout, node_of[gpu], k, g, group_size)
                     for k, g in origins}
        rp.n_redist_recv = len(receivers - {rank})

    return b.node_plan()


class _ThreeStepBase(CommunicationStrategy):
    name = "3-Step"
    trace_phases = ("gather", "inter-node", "redistribute",
                    "on-node direct")

    def plan(self, pattern: CommPattern, layout: JobLayout) -> NodePlan:
        return _build_plan(pattern, layout, layout.machine.gpus_per_node)

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

        # Post every receive up front (rendezvous wants posted receivers).
        local_reqs = [ctx.comm.irecv(tag=TAG_LOCAL)
                      for _ in range(rp.n_local_recv)]
        gather_total = sum(n for _r, n in rp.forward.values())
        gather_reqs = [ctx.comm.irecv(tag=TAG_GATHER)
                       for _ in range(gather_total)]
        inter_reqs = [ctx.comm.irecv(tag=TAG_INTER)
                      for _ in range(rp.n_inter_recv)]
        redist_reqs = [ctx.comm.irecv(tag=TAG_REDIST)
                       for _ in range(rp.n_redist_recv)]
        send_reqs: list = []

        # Step 0: on-node direct messages.
        self._send_local(ctx, rp, data, staged, send_reqs)

        # Step 1: deduplicated gather contributions at the paired senders.
        with ctx.phase("gather"):
            self._send_unions(ctx, rp, data, rp.gather_sends, TAG_GATHER,
                              staged, send_reqs)

        # Step 2: forward one combined buffer per destination node.
        if rp.forward:
            with ctx.phase("inter-node"):
                buckets: Dict[int, List[NodeRecord]] = {
                    node: [NodeRecord(rp.gpu, node, 0, data[rp.gpu][union])]
                    for node, union in rp.own_contrib.items()
                }
                msgs = yield ctx.comm.waitall(gather_reqs)
                for nrec in flatten_messages(msgs):
                    buckets.setdefault(nrec.dest_node, []).append(nrec)
                self._forward(ctx, buckets,
                              [(node, recv_rank) for node, (recv_rank, _n)
                               in sorted(rp.forward.items())],
                              TAG_INTER, staged, send_reqs)

        # Step 3: expand unions and redistribute on-node.
        kept: List[Record] = []
        if rp.n_inter_recv:
            with ctx.phase("redistribute"):
                msgs = yield ctx.comm.waitall(inter_reqs)
                self._deliver(ctx, expand_messages(plan.positions, msgs),
                              kept, send_reqs, staged)

        return (yield from self._finish(ctx, rp, t0, kept, local_reqs,
                                        redist_reqs, send_reqs,
                                        whole_copy(rp.recv_bytes, staged)))


class ThreeStepStaged(_ThreeStepBase):
    """3-Step with all hops staged through host processes."""

    data_path = "staged"


class ThreeStepDevice(_ThreeStepBase):
    """3-Step with every hop GPU-to-GPU (device-aware)."""

    data_path = "device-aware"
