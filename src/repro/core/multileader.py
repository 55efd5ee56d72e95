"""Multi-leader node-aware communication ("ML 3-Step").

3-Step aggregation funnels each node pair's traffic through ONE paired
sender — on a multi-NIC node that leaves all but one injection port
idle and serializes the on-node gather through a single rank.  The
multi-leader variant partitions a node's GPUs into ``L`` contiguous
*leader groups* (one per NIC or socket, whichever is more numerous)
and runs the 3-Step scheme independently per group:

1. **Gather** — group members send their deduplicated unions to the
   group's paired sender (socket-local on socket-aligned groups).
2. **Inter-node** — each group's sender ships one combined buffer per
   destination node, so up to ``L`` concurrent streams per node pair
   inject through distinct NICs.
3. **Redistribute** — the group's paired receiver on the destination
   node expands and forwards on-node.

With ``L`` equal to the GPU count (frontier-like: 4 GPUs, 4 NICs) the
gather step vanishes entirely — every GPU is its own leader.  The
trade: ``L``x more inter-node messages (latency) against ``L``-way NIC
parallelism and a shallower gather (bandwidth); the regime map decides
where each side wins.

It is 3-Step with a different group size: the DES program and the plan
builder (:func:`repro.core.three_step._build_plan`) are 3-Step's, called
with the machine's leader-group size instead of one group per node.
"""

from __future__ import annotations

from repro.core.base import NodePlan
from repro.core.pattern import CommPattern
from repro.core.three_step import _build_plan, _leader, _ThreeStepBase
from repro.machine.topology import JobLayout


def group_sender(layout: JobLayout, src_node: int, dest_node: int,
                 group: int) -> int:
    """Rank on ``src_node`` leading ``group``'s sends to ``dest_node``."""
    size, _num = layout.machine.leader_group_geometry
    return _leader(layout, src_node, dest_node, group, size)


def group_receiver(layout: JobLayout, src_node: int, dest_node: int,
                   group: int) -> int:
    """Rank on ``dest_node`` receiving ``group``'s stream from ``src_node``."""
    size, _num = layout.machine.leader_group_geometry
    return _leader(layout, dest_node, src_node, group, size)


class MultiLeaderStaged(_ThreeStepBase):
    """Multi-leader 3-Step staged through host processes."""

    name = "ML 3-Step"
    data_path = "staged"

    def plan(self, pattern: CommPattern, layout: JobLayout) -> NodePlan:
        size, _num = layout.machine.leader_group_geometry
        return _build_plan(pattern, layout, size)
