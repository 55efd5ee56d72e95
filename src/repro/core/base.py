"""Strategy base class, the exchange runner, and correctness checking.

Every strategy is a :class:`CommunicationStrategy` with two halves:

``plan(pattern, layout)``
    Central, untimed setup (the analog of Algorithm 1 — in practice this
    is amortized over many exchanges, and the paper benchmarks the
    communication itself), producing per-rank plans with exact message
    lists and receive counts.

``program(ctx, plan, data)``
    The SPMD generator performing ONE exchange in virtual time; owner
    ranks return ``(elapsed, {src_gpu: assembled array})``.

:func:`run_exchange` executes a strategy on a pattern and reports the
paper's statistic — the maximum per-rank communication time — together
with every delivered payload; :func:`verify_exchange` asserts bit-exact
delivery against the pattern's ground truth.

The node-aware strategies are one skeleton with different middles, so
the steps they share are written here once: :class:`PlanBuilder` (owner
activation, on-node direct sends, expected lengths) on the set-up side,
and the :class:`CommunicationStrategy` step methods (device wrapping,
on-node sends, node-record sends, redistribution, the wait-and-assemble
tail) plus :func:`host_copies` on the program side.  Each program keeps
its own phase order, ``yield`` points and ``ctx.phase`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pattern import CommPattern
from repro.core.records import (
    NodeRecord,
    Record,
    assemble,
    expand_node_record,
    group_by,
    node_records_nbytes,
    records_nbytes,
)
from repro.machine.topology import JobLayout
from repro.mpi.buffers import DeviceBuffer
from repro.mpi.job import JobResult, RankContext, SimJob
from repro.mpi.transport import TransportStats, register_phase

# Tag space shared by all strategies (phases never interleave ambiguously
# because receive counts per phase are exact).  Each tag registers its
# human-readable phase name with the transport, so message traces and
# exported spans carry named phases instead of raw integers.
TAG_P2P = register_phase(1, "direct")          # standard direct messages
TAG_LOCAL = register_phase(2, "on-node direct")  # on-node direct messages
TAG_GATHER = register_phase(3, "gather")       # 3-step on-node gather
TAG_INTER = register_phase(4, "inter-node")    # inter-node phase
TAG_REDIST = register_phase(5, "redistribute")  # on-node redistribution
TAG_DIST = register_phase(6, "distribute")     # split: feed sender procs
TAG_SGATHER = register_phase(7, "socket-gather")    # intra-socket gather
TAG_SREDIST = register_phase(8, "socket-redistribute")  # cross-socket


class CommunicationStrategy:
    """Base class for the Table-5 strategies."""

    #: display name, e.g. ``"3-Step"``
    name: str = "abstract"
    #: ``"staged"`` or ``"device-aware"``
    data_path: str = "staged"
    #: whether the strategy uses helper (non-GPU-owner) ranks
    uses_helpers: bool = False
    #: tracer lanes (phase names registered in this module) the DES
    #: program can emit messages on, in pipeline order.  The hop-plan
    #: structural check requires every traced phase to be either costed
    #: by a :class:`repro.paths.HopPlan` stage or listed in the model's
    #: ``uncosted_phases`` — this declaration ties the implementation to
    #: that contract at the class level.
    trace_phases: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.name} ({self.data_path})"

    @property
    def staged(self) -> bool:
        return self.data_path == "staged"

    def effective_staged(self, ctx: RankContext) -> bool:
        """Whether this rank should stage payloads through the host *now*.

        Staged strategies always stage.  Device-aware strategies query
        the transport's copy-engine health at program start: during a
        :class:`~repro.faults.FaultPlan` device outage they gracefully
        degrade to the staged-through-host path (recording one
        ``degraded`` count and a trace instant per rank) instead of
        pushing payloads onto a dead device path.
        """
        if self.staged:
            return True
        transport = ctx.job.transport
        if transport.device_path_ok():
            return False
        transport.note_degraded(ctx.rank)
        return True

    def plan(self, pattern: CommPattern, layout: JobLayout) -> Any:
        """Central setup; the result's ``by_rank`` maps every rank with
        work to its per-rank plan (:func:`run_exchange` starts only
        those ranks)."""
        raise NotImplementedError

    def program(self, ctx: RankContext, plan: Any,
                data: Sequence[np.ndarray]) -> Generator:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"

    # -- program steps the strategies share -----------------------------------
    def _wrap(self, ctx: RankContext, obj, nbytes: int, staged: bool):
        """Payload for the wire: device-buffer-wrapped on the GPU path."""
        if staged:
            return obj
        gpu = ctx.global_gpu
        if gpu is None:
            raise RuntimeError(
                f"{self.label} requires GPU owner ranks "
                f"(rank {ctx.rank} owns none)"
            )
        return DeviceBuffer(gpu, obj, nbytes=nbytes)

    def _send_local(self, ctx: RankContext, rp: "RankPlan",
                    data: Sequence[np.ndarray], staged: bool,
                    send_reqs: list) -> None:
        """On-node direct messages: one whole record per destination GPU."""
        for dest_rank, dest_gpu, idx in rp.local_sends:
            recs = [Record(rp.gpu, dest_gpu, 0, data[rp.gpu][idx])]
            nbytes = records_nbytes(recs)
            send_reqs.append(ctx.comm.isend(
                self._wrap(ctx, recs, nbytes, staged), dest=dest_rank,
                tag=TAG_LOCAL, nbytes=nbytes))

    def _send_unions(self, ctx: RankContext, rp: "RankPlan",
                     data: Sequence[np.ndarray], sends, tag: int,
                     staged: bool, send_reqs: list) -> None:
        """One node record per ``(dest_rank, dest_node, union idx)``."""
        for dest_rank, dest_node, union in sends:
            nrec = NodeRecord(rp.gpu, dest_node, 0, data[rp.gpu][union])
            send_reqs.append(ctx.comm.isend(
                self._wrap(ctx, [nrec], nrec.nbytes, staged), dest=dest_rank,
                tag=tag, nbytes=nrec.nbytes))

    def _forward(self, ctx: RankContext, buckets: Dict[Any, List[NodeRecord]],
                 targets, tag: int, staged: bool, send_reqs: list) -> None:
        """Ship each bucket of node records to its target as one message;
        ``targets`` lists ``(bucket key, dest_rank)`` in send order."""
        for key, dest_rank in targets:
            nrecs = buckets.get(key, [])
            nbytes = node_records_nbytes(nrecs)
            send_reqs.append(ctx.comm.isend(
                self._wrap(ctx, nrecs, nbytes, staged), dest=dest_rank,
                tag=tag, nbytes=nbytes))

    def _deliver(self, ctx: RankContext, records: List[Record],
                 kept: List[Record], send_reqs: list, staged: bool) -> None:
        """Redistribute by destination GPU: this rank's records go to
        ``kept``, every other owner gets one TAG_REDIST message."""
        for dest_gpu, recs in sorted(group_by(records, "dest_gpu").items()):
            owner = ctx.layout.owner_of_global_gpu(dest_gpu)
            if owner == ctx.rank:
                kept.extend(recs)
            else:
                nbytes = records_nbytes(recs)
                send_reqs.append(ctx.comm.isend(
                    self._wrap(ctx, recs, nbytes, staged), dest=owner,
                    tag=TAG_REDIST, nbytes=nbytes))

    def _finish(self, ctx: RankContext, rp: "RankPlan", t0: float,
                kept: List[Record], local_reqs: list, redist_reqs: list,
                send_reqs: list, h2d_ops) -> Generator:
        """Wait for the on-node and redistributed records and for every
        send, copy the result to the GPU, assemble; returns the rank's
        ``(elapsed, delivered)``."""
        local_msgs = yield ctx.comm.waitall(local_reqs)
        redist_msgs = yield ctx.comm.waitall(redist_reqs)
        yield ctx.comm.waitall(send_reqs)
        yield from host_copies(ctx, rp.gpu, h2d_ops, d2h=False)
        elapsed = ctx.now - t0
        delivered = None
        if rp.expected:
            records = (kept + flatten_messages(local_msgs)
                       + flatten_messages(redist_msgs))
            delivered = assemble(records, rp.expected, rp.gpu)
        return elapsed, delivered


@dataclass
class ExchangeResult:
    """Outcome of one simulated exchange."""

    strategy: str
    #: max over ranks of per-rank communication time (paper's statistic)
    comm_time: float
    #: per-rank communication times
    rank_times: List[float]
    #: delivered data: ``received[dest_gpu][src_gpu] = array``
    received: Dict[int, Dict[int, np.ndarray]]
    stats: TransportStats

    @property
    def total_messages(self) -> int:
        return self.stats.messages


def default_data(pattern: CommPattern, layout: JobLayout,
                 seed: int = 0) -> List[np.ndarray]:
    """Deterministic per-GPU vectors sized to cover the pattern's indices."""
    rng = np.random.default_rng(seed)
    data = []
    for gpu in range(layout.num_gpus):
        max_idx = -1
        for idx in pattern.sends_of(gpu).values():
            if len(idx):
                max_idx = max(max_idx, int(idx.max()))
        n = max_idx + 1
        data.append(rng.standard_normal(n) if n > 0 else np.empty(0))
    return data


def run_exchange(job: SimJob, strategy: CommunicationStrategy,
                 pattern: CommPattern,
                 data: Optional[Sequence[np.ndarray]] = None,
                 plan: Any = None) -> ExchangeResult:
    """Execute one exchange of ``pattern`` under ``strategy``.

    ``data`` defaults to deterministic random vectors; pass ``plan`` to
    reuse a previously computed setup (e.g. across noise repetitions).
    """
    if pattern.num_gpus > job.layout.num_gpus:
        raise ValueError(
            f"pattern needs {pattern.num_gpus} GPUs; job has "
            f"{job.layout.num_gpus}"
        )
    if data is None:
        data = default_data(pattern, job.layout)
    if plan is None:
        plan = strategy.plan(pattern, job.layout)

    # Only the plan's ranks have work; every other rank's program returns
    # ``(0.0, None)`` at t = 0 without touching a resource, so it is not
    # started at all (same virtual times, no process or events for it).
    job_result: JobResult = job.run(strategy.program, plan, data,
                                    ranks=plan.by_rank)
    rank_times = [0.0] * job.layout.size
    received: Dict[int, Dict[int, np.ndarray]] = {}
    for rank, value in enumerate(job_result.values):
        if value is None:
            continue
        rank_times[rank], delivered = value
        if delivered is not None:
            received[job.layout.global_gpu_of(rank)] = delivered
    return ExchangeResult(
        strategy=strategy.label,
        comm_time=max(rank_times),
        rank_times=rank_times,
        received=received,
        stats=job_result.stats,
    )


def expected_delivery(pattern: CommPattern, data: Sequence[np.ndarray]
                      ) -> Dict[int, Dict[int, np.ndarray]]:
    """Ground truth: what every destination GPU must end up holding."""
    out: Dict[int, Dict[int, np.ndarray]] = {}
    for dest in range(pattern.num_gpus):
        recvs = pattern.recvs_of(dest)
        if recvs:
            out[dest] = {src: data[src][idx] for src, idx in recvs.items()}
    return out


def verify_exchange(result: ExchangeResult, pattern: CommPattern,
                    data: Sequence[np.ndarray]) -> None:
    """Raise ``AssertionError`` unless delivery is bit-exact."""
    expected = expected_delivery(pattern, data)
    for dest, by_src in expected.items():
        got = result.received.get(dest)
        assert got is not None, (
            f"{result.strategy}: gpu {dest} received nothing "
            f"(expected from {sorted(by_src)})"
        )
        assert set(got) == set(by_src), (
            f"{result.strategy}: gpu {dest} sources {sorted(got)} != "
            f"expected {sorted(by_src)}"
        )
        for src, arr in by_src.items():
            assert np.array_equal(got[src], arr), (
                f"{result.strategy}: corrupt payload gpu {src} -> gpu {dest}"
            )
    for dest, by_src in result.received.items():
        extra = set(by_src) - set(expected.get(dest, {}))
        assert not extra, (
            f"{result.strategy}: gpu {dest} received unexpected data "
            f"from {sorted(extra)}"
        )


# ---------------------------------------------------------------------------
# Shared program helpers
# ---------------------------------------------------------------------------
def build_records(gpu: int, data: Sequence[np.ndarray],
                  dests: Dict[int, np.ndarray]) -> Dict[int, Record]:
    """Materialize one whole-message :class:`Record` per destination GPU."""
    return {
        dest: Record(gpu, dest, 0, data[gpu][idx])
        for dest, idx in dests.items()
    }


def flatten_messages(messages) -> List[Record]:
    """Concatenate record lists from delivered messages (unwraps device
    buffers)."""
    out: List[Record] = []
    for msg in messages:
        payload = msg.data
        if hasattr(payload, "gpu") and hasattr(payload, "data"):
            payload = payload.data  # DeviceBuffer
        out.extend(payload)
    return out


def expand_messages(positions: Dict[Tuple[int, int], Dict[int, np.ndarray]],
                    messages) -> List[Record]:
    """Fan delivered union-stream node records out into per-GPU records."""
    expanded: List[Record] = []
    for nrec in flatten_messages(messages):
        expanded.extend(expand_node_record(
            nrec, positions[(nrec.src_gpu, nrec.dest_node)]))
    return expanded


def whole_copy(nbytes: int, staged: bool) -> List[Tuple[int, int, int]]:
    """The copy ops of one whole-buffer host staging copy (none on the
    device path or for nothing to copy)."""
    return [(nbytes, 1, nbytes)] if staged and nbytes else []


def host_copies(ctx: RankContext, gpu: int, ops, d2h: bool) -> Generator:
    """Start a rank's host staging copies together, then wait for each.

    ``ops`` holds ``(slice_bytes, nproc, team_bytes)`` per copy; ``nproc
    > 1`` is one slice of a duplicate-device-pointer team copy.
    """
    gpu = max(gpu, 0)
    if d2h:
        events = [ctx.copy.d2h(DeviceBuffer(gpu, nbytes), nproc=nproc,
                               team_bytes=team)[0]
                  for nbytes, nproc, team in ops]
    else:
        events = [ctx.copy.h2d(nbytes, gpu=gpu, nproc=nproc,
                               team_bytes=team)[0]
                  for nbytes, nproc, team in ops]
    for ev in events:
        yield ev


# ---------------------------------------------------------------------------
# Shared plan steps
# ---------------------------------------------------------------------------
@dataclass
class RankPlan:
    """One rank's share of an exchange; each strategy adds its duties."""

    gpu: int = -1
    #: on-node direct messages: (dest_rank, dest_gpu, idx)
    local_sends: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)
    n_local_recv: int = 0
    n_inter_recv: int = 0
    n_redist_recv: int = 0
    #: bytes leaving / reaching this rank's GPU (the staged copies)
    send_bytes: int = 0
    recv_bytes: int = 0
    #: src_gpu -> element count this rank's GPU assembles
    expected: Dict[int, int] = field(default_factory=dict)

    @property
    def idle(self) -> bool:
        """Nothing to send, receive or assemble (owning a GPU is no work)."""
        return not any(value for name, value in vars(self).items()
                       if name != "gpu")


@dataclass
class NodePlan:
    by_rank: Dict[int, RankPlan]
    #: (src_gpu, dest_node) -> {dest_gpu: positions in the union stream}
    positions: Dict[Tuple[int, int], Dict[int, np.ndarray]]
    itemsize: int


class PlanBuilder:
    """The set-up steps every node-aware plan shares.

    Construction resolves the pattern's node map and deduplicated unions
    and activates the owner rank of every GPU with traffic; the
    strategy's builder then adds its own duties through :meth:`rank`.
    """

    def __init__(self, pattern: CommPattern, layout: JobLayout,
                 rank_plan: type) -> None:
        self.pattern = pattern
        self.layout = layout
        self.node_of = pattern.node_of_gpu(layout)
        #: (src_gpu, dest_node) -> (union idx, {dest_gpu: positions})
        self.dedup = pattern.node_dedup(layout)
        self.positions = {key: pos for key, (_u, pos) in self.dedup.items()}
        self.by_rank: Dict[int, RankPlan] = {}
        self._rank_plan = rank_plan
        for gpu in range(pattern.num_gpus):
            if pattern.sends_of(gpu) or pattern.recvs_of(gpu):
                self.rank(layout.owner_of_global_gpu(gpu), gpu)

    def rank(self, rank: int, gpu: int = -1) -> RankPlan:
        """``rank``'s plan, created on first use (``gpu``: the GPU it owns)."""
        rp = self.by_rank.get(rank)
        if rp is None:
            rp = self.by_rank[rank] = self._rank_plan()
        if gpu >= 0:
            rp.gpu = gpu
        return rp

    def plan_local_sends(self) -> None:
        """On-node messages bypass the node-aware scheme and go direct."""
        pattern, layout, node_of = self.pattern, self.layout, self.node_of
        for gpu in range(pattern.num_gpus):
            rp = self.rank(layout.owner_of_global_gpu(gpu), gpu)
            for dest, idx in sorted(pattern.sends_of(gpu).items()):
                if node_of[dest] == node_of[gpu]:
                    dest_rank = layout.owner_of_global_gpu(dest)
                    rp.local_sends.append((dest_rank, dest, idx))
                    self.rank(dest_rank, dest).n_local_recv += 1
                    rp.send_bytes += len(idx) * pattern.itemsize

    def plan_receivers(self) -> List[Tuple[int, int, RankPlan]]:
        """Record what every receiving GPU assembles; returns its
        ``(gpu, owner rank, plan)`` triples for the redistribution counts."""
        pattern, layout = self.pattern, self.layout
        out = []
        for gpu in range(pattern.num_gpus):
            recvs = pattern.expected_recv_lengths(gpu)
            if recvs:
                rank = layout.owner_of_global_gpu(gpu)
                rp = self.rank(rank, gpu)
                rp.expected = recvs
                rp.recv_bytes = sum(recvs.values()) * pattern.itemsize
                out.append((gpu, rank, rp))
        return out

    def node_plan(self, plan_type: type = NodePlan, **extra) -> NodePlan:
        """The finished plan over the ranks with work."""
        by_rank = {r: p for r, p in self.by_rank.items() if not p.idle}
        return plan_type(by_rank=by_rank, positions=self.positions,
                         itemsize=self.pattern.itemsize, **extra)
