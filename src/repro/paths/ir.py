"""The HopPlan intermediate representation.

A *hop plan* is the declarative form of one (strategy, data path)
combination of paper Table 5: an ordered sequence of :class:`HopStage`
records, each describing typed message hops over the machine — how many
messages, how large, over which locality, serialized how (one after the
other vs. rate-limited in parallel).  The plan is the single source of
truth shared by two consumers:

* the costing kernel's stage walk — one point under the scalar algebra
  (``StrategyModel.time``), a batch under the array algebra
  (``StrategyModel.time_sweep``),
* the DES structural cross-check (:mod:`repro.paths.check`), which
  verifies that the transport operations a ``core.*`` program actually
  emitted (per tracer phase lane) are consistent with the plan's stages.

Quantities (``count``, ``nbytes``, …) are either Python scalars (plans
compiled from one :class:`~repro.models.pattern_summary.PatternSummary`)
or numpy arrays (plans compiled from a
:class:`~repro.models.pattern_summary.SummaryBatch` sweep); the costing
kernel in :mod:`repro.paths.kernel` is generic over both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.machine.locality import CopyDirection, Locality, TransportKind


class HopKind(enum.Enum):
    """Transport type of one hop."""

    CPU_SEND = "cpu-send"    # host-to-host MPI message
    GPU_SEND = "gpu-send"    # device-aware MPI message
    MEMCPY = "memcpy"        # D2H / H2D staging copy

    @property
    def transport_kind(self) -> Optional[TransportKind]:
        """The Table-2 row family this hop's messages are costed from."""
        if self is HopKind.CPU_SEND:
            return TransportKind.CPU
        if self is HopKind.GPU_SEND:
            return TransportKind.GPU
        return None


class Serialization(enum.Enum):
    """How a hop's ``count`` messages occupy the wire.

    SEQUENTIAL
        One after the other: ``count * (alpha + beta * nbytes)`` —
        the postal model of the on-node gather fan-outs (eq. 4.1/4.2).
    MAX_RATE
        Latencies serialize but payloads stream concurrently, limited
        by the busiest-process bandwidth and (CPU path) the node's NIC
        injection rate — eq. (4.3)'s max-rate form, or eq. (4.4)'s
        postal form with the optional GPU injection guard.
    """

    SEQUENTIAL = "sequential"
    MAX_RATE = "max-rate"


class StageKind(enum.Enum):
    """What a stage's cost represents.

    TRANSFER
        A per-exchange data-movement term — every pre-hierarchy stage.
    SETUP
        One-time channel establishment (persistent neighborhood
        collectives: buffer registration + the RTS/CTS handshakes the
        pre-posted channels skip later).  Setup stages amortize over
        ``HopStage.amortize_over`` exchanges and are invisible to the
        DES message trace (the cross-check skips them).
    """

    TRANSFER = "transfer"
    SETUP = "setup"


class CheckMode(enum.Enum):
    """How the DES cross-check compares a stage against a trace lane.

    The analytic models describe the *busiest* participant, and some
    stages are deliberate worst-case bounds — so each stage declares how
    literally its numbers should match the simulated message trace.
    """

    EXACT_RANK = "exact-rank"    # busiest-rank messages/bytes match exactly
    NODE_TOTAL = "node-total"    # phase totals match node_count/node_bytes
    BOUND_RANK = "bound-rank"    # busiest-rank bytes bounded by the model
    BOUND_TOTAL = "bound-total"  # phase-total bytes bounded by the payload
    SKIP = "skip"                # not observable in the message trace


@dataclass(frozen=True, eq=False)
class Hop:
    """One typed hop: ``count`` messages of ``nbytes`` each.

    ``nbytes`` is the *individual* message size (it drives protocol
    selection); MAX_RATE hops carry the busiest-process total in
    ``total_bytes`` and the busiest-node total in ``node_bytes``.
    ``enabled`` gates conditional hops (scalar bool or boolean array) —
    eq. (4.2)'s cross-socket term exists only when some socket hosts no
    distributor.  MEMCPY hops use ``direction``/``nproc`` instead of a
    locality.

    Locality-hierarchy extensions (all optional — a hop that sets none
    of them costs bit-identically to the flat pre-hierarchy model):

    ``tier``
        Index into the machine's
        :class:`~repro.machine.locality.LocalityHierarchy`.  The hop
        still carries its flat ``locality`` (the Table-2 row family and
        the DES trace lane discipline key); the tier refines the cost
        with per-tier alpha/beta scales and the tier's NIC share.
    ``nics_used``
        How many of a multi-NIC node's ports this hop's senders can
        inject through concurrently (CPU MAX_RATE hops).  ``None``
        keeps the legacy node-aggregate rate; setting it serializes the
        NIC term through ``min(nics_used, nics_per_node)`` ports and
        overrides the tier's ``nic_share``.
    ``pre_posted``
        Persistent-channel semantics: rendezvous-sized messages pay the
        eager latency but keep the rendezvous bandwidth (receives were
        posted at setup).  Below the rendezvous threshold this is a
        no-op.
    """

    kind: HopKind
    count: Any
    nbytes: Any
    serialization: Serialization = Serialization.SEQUENTIAL
    phase: str = ""
    locality: Optional[Locality] = None
    total_bytes: Any = None      # busiest-process bytes (MAX_RATE)
    node_bytes: Any = None       # busiest-node bytes (CPU MAX_RATE)
    node_count: Any = None       # phase-total messages (NODE_TOTAL check)
    direction: Optional[CopyDirection] = None   # MEMCPY only
    nproc: int = 1               # MEMCPY: concurrent copying processes
    enabled: Any = True
    tier: Optional[int] = None   # locality-hierarchy tier index
    nics_used: Optional[int] = None  # concurrent injection ports
    pre_posted: bool = False     # persistent (pre-registered) channel

    def __post_init__(self) -> None:
        if self.kind is HopKind.MEMCPY:
            if self.direction is None:
                raise ValueError("MEMCPY hop requires a direction")
        elif self.locality is None:
            raise ValueError(f"{self.kind} hop requires a locality")
        if self.tier is not None and self.tier < 0:
            raise ValueError(f"tier index must be >= 0, got {self.tier!r}")
        if self.nics_used is not None and self.nics_used < 1:
            raise ValueError(
                f"nics_used must be a count >= 1, got {self.nics_used!r}")


@dataclass(frozen=True, eq=False)
class HopStage:
    """An ordered group of hops whose costs sum into one model term.

    ``repeat`` scales the stage total (the node-aware gather and
    redistribution legs are the same term twice: ``2 T_on``); the
    stage then realizes one tracer lane per entry of ``phases``.
    ``check`` tells :mod:`repro.paths.check` how strictly the DES trace
    must match.

    ``kind`` distinguishes per-exchange TRANSFER stages from one-time
    SETUP stages; a setup stage's summed cost is divided by
    ``amortize_over`` (the persistence window, in exchanges) and is
    exempt from the DES trace check.
    """

    label: str
    hops: Tuple[Hop, ...]
    repeat: float = 1.0
    phases: Tuple[str, ...] = ()
    check: CheckMode = CheckMode.BOUND_RANK
    kind: StageKind = StageKind.TRANSFER
    amortize_over: float = 1.0

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError(f"stage {self.label!r} has no hops")
        first = self.hops[0]
        if first.enabled is not True:
            raise ValueError(
                f"stage {self.label!r}: the leading hop must be "
                f"unconditional (conditional hops fold onto a running sum)")
        if not (self.amortize_over >= 1.0):
            raise ValueError(
                f"stage {self.label!r}: amortize_over must be >= 1, "
                f"got {self.amortize_over!r}")
        if self.kind is StageKind.SETUP and self.phases:
            raise ValueError(
                f"stage {self.label!r}: SETUP stages are invisible to the "
                f"message trace and cannot realize tracer lanes")


@dataclass(frozen=True, eq=False)
class HopPlan:
    """The compiled path of one strategy over one pattern summary.

    ``uncosted_phases`` lists tracer lanes the DES implementation may
    legitimately use without the analytic model charging them (e.g. the
    purely local ``"on-node direct"`` deliveries, which the paper's
    busiest-node model treats as free relative to the off-node path).
    """

    strategy: str
    data_path: str
    stages: Tuple[HopStage, ...]
    uncosted_phases: Tuple[str, ...] = ()

    def stage_for_phase(self, phase: str) -> Optional[HopStage]:
        """The stage realizing tracer lane ``phase`` (None if uncosted)."""
        for stage in self.stages:
            if phase in stage.phases:
                return stage
        return None

    @property
    def phases(self) -> Tuple[str, ...]:
        """Every tracer lane the plan's stages realize, in stage order."""
        seen = []
        for stage in self.stages:
            for phase in stage.phases:
                if phase not in seen:
                    seen.append(phase)
        return tuple(seen)
