"""2-Step node-aware communication (paper Section 2.3.2, Figure 2.4).

Every process is paired with the process of the *same local index* on
every other node (P0 -> P4, P1 -> P5, ... in Figure 2.4):

1. **Inter-node** — each process sends, per destination node, one
   message holding the deduplicated union of its data needed by *any*
   process on that node, directly to its pair there (no on-node
   gather).
2. **Redistribute** — the receiving pairs expand the unions and forward
   records to their final destination GPUs on-node.

This removes the data redundancy of standard communication but keeps
multiple messages per node pair (one per active source process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence, Set, Tuple

import numpy as np

from repro.core.base import (
    TAG_INTER,
    TAG_LOCAL,
    TAG_REDIST,
    CommunicationStrategy,
    NodePlan,
    PlanBuilder,
    RankPlan,
    expand_messages,
    host_copies,
    whole_copy,
)
from repro.core.pattern import CommPattern
from repro.core.records import Record
from repro.machine.topology import JobLayout
from repro.mpi.job import RankContext


def pair_rank(layout: JobLayout, dest_node: int, local_gpu: int) -> int:
    """The rank on ``dest_node`` paired with local GPU index ``local_gpu``."""
    return layout.owner_of_gpu(dest_node, local_gpu)


@dataclass
class _RankPlan(RankPlan):
    #: dest_node -> (pair rank there, union index array)
    inter_sends: Dict[int, Tuple[int, np.ndarray]] = field(default_factory=dict)


def _build_plan(pattern: CommPattern, layout: JobLayout) -> NodePlan:
    gpn = layout.machine.gpus_per_node
    b = PlanBuilder(pattern, layout, _RankPlan)
    node_of = b.node_of
    b.plan_local_sends()

    # Deduplicated inter-node messages straight to the pairs.
    for (src_gpu, dest_node), (union, _pos) in sorted(b.dedup.items()):
        src_rank = layout.owner_of_global_gpu(src_gpu)
        rp = b.rank(src_rank, src_gpu)
        receiver = pair_rank(layout, dest_node, src_gpu % gpn)
        rp.inter_sends[dest_node] = (receiver, union)
        rp.send_bytes += len(union) * pattern.itemsize
        b.rank(receiver).n_inter_recv += 1

    for gpu, rank, rp in b.plan_receivers():
        my_node = node_of[gpu]
        pair_receivers: Set[int] = set()
        for src in rp.expected:
            if node_of[src] != my_node:
                pair_receivers.add(pair_rank(layout, my_node, src % gpn))
        rp.n_redist_recv = len(pair_receivers - {rank})

    return b.node_plan()


class _TwoStepBase(CommunicationStrategy):
    name = "2-Step"
    trace_phases = ("inter-node", "redistribute", "on-node direct")

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
        inter_reqs = [ctx.comm.irecv(tag=TAG_INTER)
                      for _ in range(rp.n_inter_recv)]
        redist_reqs = [ctx.comm.irecv(tag=TAG_REDIST)
                       for _ in range(rp.n_redist_recv)]
        send_reqs: list = []

        # On-node direct messages.
        self._send_local(ctx, rp, data, staged, send_reqs)

        # Step 1: one deduplicated message per destination node.
        with ctx.phase("inter-node"):
            sends = [(receiver, node, union) for node, (receiver, union)
                     in sorted(rp.inter_sends.items())]
            self._send_unions(ctx, rp, data, sends, TAG_INTER, staged,
                              send_reqs)

        # Step 2: expand and redistribute on-node.
        kept: List[Record] = []
        if rp.n_inter_recv:
            with ctx.phase("redistribute"):
                msgs = yield ctx.comm.waitall(inter_reqs)
                self._deliver(ctx, expand_messages(plan.positions, msgs),
                              kept, send_reqs, staged)

        return (yield from self._finish(ctx, rp, t0, kept, local_reqs,
                                        redist_reqs, send_reqs,
                                        whole_copy(rp.recv_bytes, staged)))


class TwoStepStaged(_TwoStepBase):
    """2-Step with all hops staged through host processes."""

    data_path = "staged"


class TwoStepDevice(_TwoStepBase):
    """2-Step with every hop GPU-to-GPU (device-aware)."""

    data_path = "device-aware"
