"""Split node-aware communication (paper Section 2.3.3, Algorithms 1+2).

Split eliminates the data redundancy of standard communication (each
source entry crosses the network once per destination *node*, as a
deduplicated union stream) while spreading inter-node traffic over
*all* on-node CPU processes (up to 40 on Lassen), splitting large
node-pair volumes into messages of at most ``message_cap`` bytes and
conglomerating small ones.

Algorithm 1 (setup, here computed centrally and untimed):

* messages are split by origin (on-node traffic goes direct);
* per receiving node, the effective cap is resolved — volumes under the
  cap are conglomerated to one message per origin node; if the node's
  total volume over the cap exceeds PPN messages, the cap is raised to
  ``ceil(total / PPN)`` (lines 12–17);
* chunks are assigned to receiving processes in descending size order
  starting at local rank 0, and to sending processes from local rank
  PPN-1 downward (line 18), keeping every process active.

Algorithm 2 (execution, timed):

1. on-node direct exchange (``local_comm``),
2. distribution of chunk data to assigned sender processes
   (``local_Scomm``),
3. inter-node chunk exchange (``global_comm``),
4. on-node redistribution to destination GPUs (``local_Rcomm``).

**Split + MD** stages through a single host process per GPU, which then
distributes chunks via on-node messages.  **Split + DD** copies with a
team of ``ppg`` duplicate-device-pointer host processes (4 on Lassen,
Table 3's concurrent-copy parameters), so each team member already
holds a slice and fewer distribution messages are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import (
    TAG_DIST,
    TAG_INTER,
    TAG_LOCAL,
    TAG_REDIST,
    CommunicationStrategy,
    NodePlan,
    PlanBuilder,
    RankPlan,
    expand_messages,
    host_copies,
)
from repro.core.pattern import CommPattern
from repro.core.records import NodeRecord, Record, node_records_nbytes
from repro.machine.topology import JobLayout
from repro.mpi.job import RankContext

#: (src_gpu, dest_node, offset, index slice) — a deduplicated union
#: stream piece before data binding.
IndexRec = Tuple[int, int, int, np.ndarray]


def _split_index_records(stream: List[IndexRec], cap_elems: int
                         ) -> List[List[IndexRec]]:
    """Chunk a stream of index records to at most ``cap_elems`` each."""
    if cap_elems < 1:
        raise ValueError(f"cap_elems must be >= 1, got {cap_elems}")
    chunks: List[List[IndexRec]] = []
    current: List[IndexRec] = []
    room = cap_elems
    queue = list(stream)
    i = 0
    while i < len(queue):
        src, dnode, off, idx = queue[i]
        n = len(idx)
        if n == 0:
            i += 1
            continue
        if n <= room:
            current.append((src, dnode, off, idx))
            room -= n
            i += 1
        else:
            if room > 0:
                current.append((src, dnode, off, idx[:room]))
                queue[i] = (src, dnode, off + room, idx[room:])
            chunks.append(current)
            current = []
            room = cap_elems
    if current:
        chunks.append(current)
    return chunks


@dataclass
class SplitSetup:
    """Resolved Algorithm-1 quantities for one receiving node (Table 1)."""

    node: int
    total_in_recv_vol: int
    max_in_recv_size: int
    num_in_nodes: int
    effective_cap: int
    conglomerated: bool


@dataclass
class _Chunk:
    cid: int
    src_node: int
    dst_node: int
    send_rank: int = -1
    recv_rank: int = -1
    nbytes: int = 0
    #: holder world rank -> index records it contributes
    parts: Dict[int, List[IndexRec]] = field(default_factory=dict)


@dataclass
class _RankPlan(RankPlan):
    #: D2H operations: (slice_bytes, nproc, team_bytes)
    d2h_ops: List[Tuple[int, int, int]] = field(default_factory=list)
    #: distribution sends: (send_rank, cid, index records)
    dist_sends: List[Tuple[int, int, List[IndexRec]]] = field(default_factory=list)
    #: chunks this rank sends inter-node: (cid, recv_rank, nbytes)
    send_chunks: List[Tuple[int, int, int]] = field(default_factory=list)
    #: own contributions to chunks this rank itself sends
    own_parts: Dict[int, List[IndexRec]] = field(default_factory=dict)
    n_dist_recv: int = 0
    #: H2D operations: (slice_bytes, nproc, team_bytes)
    h2d_ops: List[Tuple[int, int, int]] = field(default_factory=list)


@dataclass
class _Plan(NodePlan):
    setups: Dict[int, SplitSetup]
    chunks: List[_Chunk]


class _SplitBase(CommunicationStrategy):
    """Shared Split machinery; subclasses fix ``ppg`` (MD=1, DD=4)."""

    name = "Split"
    trace_phases = ("distribute", "inter-node", "redistribute",
                    "on-node direct")
    data_path = "staged"
    uses_helpers = True
    ppg = 1

    def __init__(self, message_cap: Optional[int] = None) -> None:
        self.message_cap = message_cap

    def _cap(self, layout: JobLayout) -> int:
        if self.message_cap is not None:
            if self.message_cap < 1:
                raise ValueError(
                    f"message_cap must be >= 1, got {self.message_cap}")
            return self.message_cap
        # Paper default: the rendezvous-protocol switchover size.
        return layout.machine.comm_params.thresholds.eager_limit

    # ------------------------------------------------------------------ setup
    def plan(self, pattern: CommPattern, layout: JobLayout) -> _Plan:
        cap = self._cap(layout)
        itemsize = pattern.itemsize
        ppn = layout.ppn
        num_nodes = layout.num_nodes
        b = PlanBuilder(pattern, layout, _RankPlan)
        node_of = b.node_of

        # ---- line 8: split messages by origin (on-node vs off-node) ----
        b.plan_local_sends()

        # Deduplicated inter-node streams per (src_node, dst_node).
        streams: Dict[Tuple[int, int], List[IndexRec]] = {}
        off_bytes_of_gpu: Dict[int, int] = {}
        for (src_gpu, dst_node), (union, _pos) in sorted(b.dedup.items()):
            streams.setdefault((node_of[src_gpu], dst_node), []).append(
                (src_gpu, dst_node, 0, union))
            off_bytes_of_gpu[src_gpu] = (off_bytes_of_gpu.get(src_gpu, 0)
                                         + len(union) * itemsize)

        # ---- lines 10-17: per receiving node, resolve cap and chunk ----
        setups: Dict[int, SplitSetup] = {}
        chunks: List[_Chunk] = []
        for node in range(num_nodes):
            incoming = {src: s for (src, dst), s in streams.items()
                        if dst == node}
            if not incoming:
                continue
            vol = {k: sum(len(idx) for *_x, idx in s) * itemsize
                   for k, s in incoming.items()}
            total = sum(vol.values())
            max_size = max(vol.values())
            conglomerated = max_size <= cap
            cap_eff = cap
            if not conglomerated and total / cap > ppn:
                cap_eff = math.ceil(total / ppn)
            setups[node] = SplitSetup(
                node=node,
                total_in_recv_vol=total,
                max_in_recv_size=max_size,
                num_in_nodes=len(incoming),
                effective_cap=cap_eff,
                conglomerated=conglomerated,
            )
            cap_elems = max(1, cap_eff // itemsize)
            for k in sorted(incoming):
                if conglomerated:
                    pieces = [incoming[k]]
                else:
                    pieces = _split_index_records(incoming[k], cap_elems)
                for piece in pieces:
                    nbytes = sum(len(idx) for *_x, idx in piece) * itemsize
                    chunk = _Chunk(cid=len(chunks), src_node=k, dst_node=node,
                                   nbytes=nbytes)
                    chunk.parts[-1] = piece  # holders resolved below
                    chunks.append(chunk)

        # ---- line 18: assign receive and send processes -----------------
        by_dst: Dict[int, List[_Chunk]] = {}
        by_src: Dict[int, List[_Chunk]] = {}
        for c in chunks:
            by_dst.setdefault(c.dst_node, []).append(c)
            by_src.setdefault(c.src_node, []).append(c)
        for node, cs in by_dst.items():
            cs.sort(key=lambda c: (-c.nbytes, c.cid))
            base = node * ppn
            for i, c in enumerate(cs):
                c.recv_rank = base + (i % ppn)
        for node, cs in by_src.items():
            cs.sort(key=lambda c: (-c.nbytes, c.cid))
            base = node * ppn
            for i, c in enumerate(cs):
                c.send_rank = base + (ppn - 1 - (i % ppn))

        # ---- resolve holders (who has each record after the D2H copy) --
        team_of_gpu: Dict[int, List[int]] = {}
        if self.ppg > 1:
            for gpu in off_bytes_of_gpu:
                team_of_gpu[gpu] = layout.host_team(
                    node_of[gpu], gpu % layout.machine.gpus_per_node, self.ppg)
        dd_assign: Dict[Tuple[int, int, int], int] = {}
        if self.ppg > 1:
            per_gpu_records: Dict[int, List[Tuple[int, int, int, int]]] = {}
            for c in chunks:
                for (src, dnode, off, idx) in c.parts[-1]:
                    per_gpu_records.setdefault(src, []).append(
                        (src, dnode, off, len(idx)))
            for gpu, recs in per_gpu_records.items():
                team = team_of_gpu[gpu]
                load = [0] * len(team)
                for (src, dnode, off, n) in recs:
                    j = load.index(min(load))
                    load[j] += n
                    dd_assign[(src, dnode, off)] = team[j]
        for c in chunks:
            piece = c.parts.pop(-1)
            for (src, dnode, off, idx) in piece:
                if self.ppg > 1:
                    holder = dd_assign[(src, dnode, off)]
                else:
                    holder = layout.owner_of_global_gpu(src)
                c.parts.setdefault(holder, []).append((src, dnode, off, idx))

        # ---- build per-rank plans ---------------------------------------
        for c in chunks:
            sender = b.rank(c.send_rank)
            sender.send_chunks.append((c.cid, c.recv_rank, c.nbytes))
            b.rank(c.recv_rank).n_inter_recv += 1
            for holder, recs in sorted(c.parts.items()):
                if holder == c.send_rank:
                    sender.own_parts.setdefault(c.cid, []).extend(recs)
                else:
                    b.rank(holder).dist_sends.append(
                        (c.send_rank, c.cid, recs))
                    sender.n_dist_recv += 1

        # ---- copies -------------------------------------------------------
        for gpu in range(pattern.num_gpus):
            owner = layout.owner_of_global_gpu(gpu)
            rp = b.rank(owner)
            local_bytes = rp.send_bytes if rp.gpu == gpu else 0
            off_bytes = off_bytes_of_gpu.get(gpu, 0)
            if self.ppg == 1:
                total = local_bytes + off_bytes
                if total:
                    rp.d2h_ops.append((total, 1, total))
            else:
                if local_bytes:
                    rp.d2h_ops.append((local_bytes, 1, local_bytes))
                if off_bytes:
                    team = team_of_gpu[gpu]
                    share = math.ceil(off_bytes / len(team))
                    for member in team:
                        b.rank(member).d2h_ops.append(
                            (share, len(team), off_bytes))

        # ---- receive side: expected data + redistribution counts ---------
        for gpu, owner, rp in b.plan_receivers():
            my_node = node_of[gpu]
            if self.ppg == 1:
                rp.h2d_ops.append((rp.recv_bytes, 1, rp.recv_bytes))
            else:
                local_in = sum(n for src, n in rp.expected.items()
                               if node_of[src] == my_node) * itemsize
                off_in = rp.recv_bytes - local_in
                if local_in:
                    rp.h2d_ops.append((local_in, 1, local_in))
                if off_in:
                    rp.h2d_ops.append(
                        (math.ceil(off_in / self.ppg), self.ppg, off_in))
            # Distinct receiving processes holding union entries this
            # GPU needs (a chunk covers union range [off, off+n)).
            sources: Set[int] = set()
            for c in chunks:
                if c.dst_node != my_node or c.recv_rank in sources:
                    continue
                for recs in c.parts.values():
                    hit = False
                    for (src, dnode, off, idx) in recs:
                        pos = b.positions.get((src, dnode), {}).get(gpu)
                        if pos is None:
                            continue
                        k0 = np.searchsorted(pos, off, side="left")
                        k1 = np.searchsorted(pos, off + len(idx), side="left")
                        if k1 > k0:
                            sources.add(c.recv_rank)
                            hit = True
                            break
                    if hit:
                        break
            rp.n_redist_recv = len(sources - {owner})

        return b.node_plan(_Plan, setups=setups, chunks=chunks)

    # ------------------------------------------------------------------ run
    def program(self, ctx: RankContext, plan: _Plan,
                data: Sequence[np.ndarray]) -> Generator:
        rp = plan.by_rank.get(ctx.rank)
        if rp is None:
            return 0.0, None
            yield  # pragma: no cover
        t0 = ctx.now
        # D2H copies (owners; plus team members under DD).
        yield from host_copies(ctx, rp.gpu, rp.d2h_ops, d2h=True)

        local_reqs = [ctx.comm.irecv(tag=TAG_LOCAL)
                      for _ in range(rp.n_local_recv)]
        dist_reqs = [ctx.comm.irecv(tag=TAG_DIST)
                     for _ in range(rp.n_dist_recv)]
        inter_reqs = [ctx.comm.irecv(tag=TAG_INTER)
                      for _ in range(rp.n_inter_recv)]
        redist_reqs = [ctx.comm.irecv(tag=TAG_REDIST)
                       for _ in range(rp.n_redist_recv)]
        send_reqs: list = []

        def materialize(recs: List[IndexRec]) -> List[NodeRecord]:
            return [NodeRecord(src, dnode, off, data[src][idx])
                    for (src, dnode, off, idx) in recs]

        # Algorithm 2 line 1: on-node direct messages.
        self._send_local(ctx, rp, data, True, send_reqs)

        # Line 2: distribute chunk parts to their assigned sender procs.
        with ctx.phase("distribute"):
            for send_rank, cid, recs in rp.dist_sends:
                payload = (cid, materialize(recs))
                nbytes = node_records_nbytes(payload[1])
                send_reqs.append(ctx.comm.isend(payload, dest=send_rank,
                                                tag=TAG_DIST, nbytes=nbytes))

        # Line 3: inter-node chunk exchange.
        if rp.send_chunks:
            with ctx.phase("inter-node"):
                buckets: Dict[int, List[NodeRecord]] = {
                    cid: materialize(recs)
                    for cid, recs in rp.own_parts.items()
                }
                msgs = yield ctx.comm.waitall(dist_reqs)
                for msg in msgs:
                    cid, recs = msg.data
                    buckets.setdefault(cid, []).extend(recs)
                self._forward(ctx, buckets,
                              [(cid, recv_rank) for cid, recv_rank, _n
                               in sorted(rp.send_chunks)],
                              TAG_INTER, True, send_reqs)

        # Line 4: expand unions and redistribute to destination owners.
        kept: List[Record] = []
        if rp.n_inter_recv:
            with ctx.phase("redistribute"):
                msgs = yield ctx.comm.waitall(inter_reqs)
                self._deliver(ctx, expand_messages(plan.positions, msgs),
                              kept, send_reqs, True)

        return (yield from self._finish(ctx, rp, t0, kept, local_reqs,
                                        redist_reqs, send_reqs, rp.h2d_ops))


class SplitMD(_SplitBase):
    """Split + MD: single host copy per GPU, on-node message distribution."""

    name = "Split + MD"
    ppg = 1


class SplitDD(_SplitBase):
    """Split + DD: duplicate-device-pointer team copies (ppg = 4)."""

    name = "Split + DD"
    ppg = 4
