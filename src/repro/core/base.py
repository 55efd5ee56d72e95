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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pattern import CommPattern
from repro.core.records import Record, assemble
from repro.machine.topology import JobLayout
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
