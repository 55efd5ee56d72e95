"""Standard communication: direct messages, no node awareness.

Every GPU's host process (staged) or every GPU (device-aware) sends one
message per destination GPU, exactly as the pattern dictates — the
baseline of Section 2.3 with both redundancies intact (many inter-node
messages, duplicate data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

import numpy as np

from repro.core.base import (
    TAG_P2P,
    CommunicationStrategy,
    build_records,
    flatten_messages,
    host_copies,
    whole_copy,
)
from repro.core.pattern import CommPattern
from repro.core.records import assemble
from repro.machine.topology import JobLayout
from repro.mpi.job import RankContext


@dataclass
class _RankPlan:
    gpu: int
    sends: List[Tuple[int, int, np.ndarray]]  # (dest_rank, dest_gpu, idx)
    n_recv: int
    send_bytes: int
    recv_bytes: int
    expected: Dict[int, int]  # src_gpu -> element count


@dataclass
class _Plan:
    by_rank: Dict[int, _RankPlan]
    itemsize: int


def _build_plan(pattern: CommPattern, layout: JobLayout) -> _Plan:
    by_rank: Dict[int, _RankPlan] = {}
    for gpu in range(pattern.num_gpus):
        rank = layout.owner_of_global_gpu(gpu)
        sends = [
            (layout.owner_of_global_gpu(dest), dest, idx)
            for dest, idx in sorted(pattern.sends_of(gpu).items())
        ]
        expected = pattern.expected_recv_lengths(gpu)
        send_bytes = sum(len(idx) for _r, _d, idx in sends) * pattern.itemsize
        recv_bytes = sum(expected.values()) * pattern.itemsize
        if sends or expected:
            by_rank[rank] = _RankPlan(
                gpu=gpu,
                sends=sends,
                n_recv=len(expected),
                send_bytes=send_bytes,
                recv_bytes=recv_bytes,
                expected=expected,
            )
    return _Plan(by_rank=by_rank, itemsize=pattern.itemsize)


class _StandardBase(CommunicationStrategy):
    name = "Standard"
    trace_phases = ("direct",)

    def plan(self, pattern: CommPattern, layout: JobLayout) -> _Plan:
        return _build_plan(pattern, layout)

    def program(self, ctx: RankContext, plan: _Plan,
                data: Sequence[np.ndarray]) -> Generator:
        rp = plan.by_rank.get(ctx.rank)
        if rp is None:
            return 0.0, None
            yield  # pragma: no cover - makes this a generator
        t0 = ctx.now
        # Device-aware variants degrade to the staged path while a fault
        # plan's copy-engine outage is active (see effective_staged).
        staged = self.effective_staged(ctx)
        records = build_records(rp.gpu, data, {d: i for _r, d, i in rp.sends})
        # One packed D2H copy of everything leaving this GPU.
        yield from host_copies(ctx, rp.gpu, whole_copy(rp.send_bytes, staged),
                               d2h=True)

        with ctx.phase("direct"):
            recv_reqs = [ctx.comm.irecv(tag=TAG_P2P) for _ in range(rp.n_recv)]
            send_reqs = []
            for dest_rank, dest_gpu, _idx in rp.sends:
                rec = records[dest_gpu]
                send_reqs.append(ctx.comm.isend(
                    self._wrap(ctx, [rec], rec.nbytes, staged), dest=dest_rank,
                    tag=TAG_P2P, nbytes=rec.nbytes))
            msgs = yield ctx.comm.waitall(recv_reqs)
            yield ctx.comm.waitall(send_reqs)

        yield from host_copies(ctx, rp.gpu, whole_copy(rp.recv_bytes, staged),
                               d2h=False)
        elapsed = ctx.now - t0
        delivered = None
        if rp.expected:
            delivered = assemble(flatten_messages(msgs), rp.expected, rp.gpu)
        return elapsed, delivered


class StandardStaged(_StandardBase):
    """Standard communication staged through host processes."""

    data_path = "staged"


class StandardDevice(_StandardBase):
    """Standard device-aware communication (GPUDirect-style)."""

    data_path = "device-aware"
