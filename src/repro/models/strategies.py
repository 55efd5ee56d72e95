"""Full strategy performance models — paper Table 6.

Each model consumes a :class:`PatternSummary` of the *standard*
communication pattern and applies its own strategy-specific
transformation (aggregation for 3-Step, pairing for 2-Step, message-cap
splitting for Split) to derive the Table-7 quantities entering the
sub-model terms.  The composition rules follow Table 6:

=============  =========================================================
Standard       max-rate (staged) / postal (device-aware)
3-Step         T_off(m_nn, s_nn) + 2 T_on(s_nn) [+ T_copy(s_p, s_nn)]
2-Step         T_off(m_pn, s_p) + T_on(s_p) [+ T_copy(s_p, s_nn)]
Split + MD     T_off(m_pn, s_n/ppn) + 2 T_on_split(s_n, 1) + T_copy(...)
Split + DD     T_off(m_pn, s_n/ppn) + 2 T_on_split(s_n, 4) + T_copy(...)
=============  =========================================================

Each class implements a single generic ``_stages(summary, ops)``
compiler producing the strategy's :class:`~repro.paths.ir.HopStage`
sequence; the base class costs those stages with the one stage walk
(:func:`~repro.paths.kernel.evaluate_stages`) — under the scalar algebra
for a point (:meth:`StrategyModel.time`), under the array algebra for a
:class:`SummaryBatch` (:meth:`StrategyModel.time_sweep`) — and exposes
the full declarative :class:`~repro.paths.ir.HopPlan` via
:meth:`StrategyModel.compile_plan` for the DES structural cross-check.

Duplicate-data removal (``dup_fraction``) shrinks the byte quantities of
the node-aware strategies only — standard communication retains the
redundant payload (Section 2.3 / Figure 4.3 bottom rows).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.machine.locality import Locality
from repro.machine.topology import MachineSpec
from repro.models.pattern_summary import PatternSummary, SummaryBatch
from repro.paths.compile import (
    as_setup,
    copy_stage,
    device_off_node_stage,
    hierarchical_on_node_stage,
    off_node_stage,
    on_node_stage,
    split_on_node_stage,
)
from repro.paths.ir import (
    CheckMode,
    Hop,
    HopKind,
    HopPlan,
    HopStage,
    Serialization,
)
from repro.paths.kernel import ARRAY_OPS, SCALAR_OPS, Ops, evaluate_stages

#: Default persistence window for Neighbor P: exchanges a channel setup
#: amortizes over.  Iterative solvers reuse one communication pattern
#: for hundreds of Krylov iterations; 64 is a conservative floor.
PERSISTENT_WINDOW = 64.0

STAGED = "staged"
DEVICE = "device-aware"


class StrategyModel:
    """Base class: one (strategy, data path) combination of Table 5.

    Parameters
    ----------
    machine:
        Architecture whose constants drive the model.
    ppn:
        On-node processes available to the Split strategies (defaults
        to every core, 40 on Lassen).
    message_cap:
        Split message cap (defaults to the machine's rendezvous
        switchover, following the paper / reference [16]).
    """

    name: str = "abstract"
    data_path: str = STAGED
    node_aware: bool = True
    #: tracer lanes the DES implementation may use without the model
    #: charging them (purely local deliveries are free in the
    #: busiest-node off-node model)
    uncosted_phases: Tuple[str, ...] = ("on-node direct",)

    def __init__(self, machine: MachineSpec, ppn: Optional[int] = None,
                 message_cap: Optional[int] = None) -> None:
        self.machine = machine
        self.ppn = machine.cores_per_node if ppn is None else int(ppn)
        if self.ppn < 1:
            raise ValueError(f"ppn must be >= 1, got {self.ppn}")
        if self.ppn > machine.cores_per_node:
            raise ValueError(
                f"ppn={self.ppn} exceeds {machine.name} cores "
                f"({machine.cores_per_node})"
            )
        default_cap = machine.comm_params.thresholds.eager_limit
        self.message_cap = default_cap if message_cap is None else int(message_cap)
        if self.message_cap < 1:
            raise ValueError(f"message_cap must be >= 1, got {self.message_cap}")

    # -- public API --------------------------------------------------------------
    def time(self, summary: PatternSummary, dup_fraction: float = 0.0) -> float:
        """Modelled communication time for one exchange."""
        if summary.is_empty:
            return 0.0
        if self.node_aware and dup_fraction > 0.0:
            summary = summary.with_duplicate_removal(dup_fraction)
        return self._time(summary)

    def time_sweep(self,
                   summaries: Union[SummaryBatch, Sequence[PatternSummary]],
                   dup_fraction: float = 0.0) -> np.ndarray:
        """:meth:`time` over a batch of summaries, as one array walk.

        Accepts a :class:`SummaryBatch` (typically from
        :func:`repro.models.scenarios.scenario_summary_batch`) or a
        sequence of scalar summaries.  Returns times bit-identical to
        calling :meth:`time` point-wise — the same stages evaluate
        through the same kernel, with the array algebra replicating the
        scalar floating-point operation order exactly.
        """
        batch = (summaries if isinstance(summaries, SummaryBatch)
                 else SummaryBatch.from_summaries(list(summaries)))
        if self.node_aware and dup_fraction > 0.0:
            batch = batch.with_duplicate_removal(dup_fraction)
        times = np.asarray(self._time_vec(batch), dtype=float)
        empty = batch.is_empty
        if np.any(empty):
            times = np.where(empty, 0.0, times)
        return times

    def compile_plan(self, summary: PatternSummary,
                     dup_fraction: float = 0.0) -> HopPlan:
        """Compile this strategy's declarative :class:`HopPlan`.

        The plan's stages are exactly those the costing kernel charges
        in :meth:`time`; the DES cross-check in
        :mod:`repro.paths.check` verifies a simulated message trace
        against them.
        """
        if self.node_aware and dup_fraction > 0.0:
            summary = summary.with_duplicate_removal(dup_fraction)
        return HopPlan(strategy=self.name, data_path=self.data_path,
                       stages=tuple(self._stages(summary, SCALAR_OPS)),
                       uncosted_phases=self.uncosted_phases)

    def compile_plan_batch(self, batch: SummaryBatch,
                           dup_fraction: float = 0.0) -> HopPlan:
        """Batch counterpart of :meth:`compile_plan` (array quantities)."""
        if self.node_aware and dup_fraction > 0.0:
            batch = batch.with_duplicate_removal(dup_fraction)
        return HopPlan(strategy=self.name, data_path=self.data_path,
                       stages=tuple(self._stages(batch, ARRAY_OPS)),
                       uncosted_phases=self.uncosted_phases)

    # -- compilation + costing ---------------------------------------------------
    def _stages(self, s, ops: Ops) -> List[HopStage]:
        """Compile the strategy's hop stages from summary quantities.

        Generic over scalar summaries (``ops=SCALAR_OPS``) and
        :class:`SummaryBatch` (``ops=ARRAY_OPS``) — the two share field
        names.  Subclasses implement exactly this method; all costing
        goes through the shared kernel.
        """
        raise NotImplementedError  # pragma: no cover

    def _time(self, summary: PatternSummary) -> float:
        return evaluate_stages(self.machine, self._stages(summary, SCALAR_OPS),
                               SCALAR_OPS)

    def _time_vec(self, b: SummaryBatch) -> np.ndarray:
        return evaluate_stages(self.machine, self._stages(b, ARRAY_OPS),
                               ARRAY_OPS)

    # -- shared helpers -----------------------------------------------------------
    @property
    def gpn(self) -> int:
        """GPUs per node = paired host processes for 3-Step / 2-Step."""
        return max(self.machine.gpus_per_node, 1)

    def _dests_per_proc(self, s, ops: Ops = SCALAR_OPS):
        """Destination nodes handled per paired process (round-robin)."""
        return ops.ceil(s.num_dest_nodes / self.gpn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} on {self.machine.name}>"


# ---------------------------------------------------------------------------
# Standard
# ---------------------------------------------------------------------------
class StandardStagedModel(StrategyModel):
    """Standard staged-through-host: the max-rate model (Table 6 row 1).

    Table 6 writes standard staged communication as the bare max-rate
    model; a staged implementation also pays the D2H/H2D copies, so
    ``include_copies`` defaults to ``True`` for apples-to-apples
    comparisons against the other staged strategies (pass ``False`` for
    the literal Table-6 form).
    """

    name = "Standard"
    data_path = STAGED
    node_aware = False

    def __init__(self, machine: MachineSpec, ppn: Optional[int] = None,
                 message_cap: Optional[int] = None,
                 include_copies: bool = True) -> None:
        super().__init__(machine, ppn, message_cap)
        self.include_copies = include_copies

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        msg_size = s.proc_bytes / ops.maximum(s.proc_messages, 1)
        stages = [off_node_stage(s.proc_messages, s.proc_bytes, s.node_bytes,
                                 msg_size, phase="direct",
                                 label="direct sends")]
        if self.include_copies:
            stages.append(copy_stage(s.proc_bytes, s.proc_bytes))
        return stages


class StandardDeviceModel(StrategyModel):
    """Standard device-aware: the postal model on GPU rows (Table 6 row 2)."""

    name = "Standard"
    data_path = DEVICE
    node_aware = False

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        msg_size = s.proc_bytes / ops.maximum(s.proc_messages, 1)
        return [device_off_node_stage(s.proc_messages, s.proc_bytes, msg_size,
                                      phase="direct", label="direct sends")]


# ---------------------------------------------------------------------------
# 3-Step
# ---------------------------------------------------------------------------
class ThreeStepStagedModel(StrategyModel):
    """3-Step staged: gather on-node, one buffer per node pair, redistribute."""

    name = "3-Step"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        s_off = m * s_nn
        return [
            off_node_stage(m, s_off, s.node_bytes, s_nn),
            on_node_stage(self.machine, HopKind.CPU_SEND, s_nn, repeat=2.0,
                          phases=("gather", "redistribute")),
            copy_stage(s.proc_bytes, s_nn),
        ]


class ThreeStepDeviceModel(StrategyModel):
    """3-Step device-aware: gather and send GPU-to-GPU (no copies)."""

    name = "3-Step"
    data_path = DEVICE

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            device_off_node_stage(m, m * s_nn, s_nn),
            on_node_stage(self.machine, HopKind.GPU_SEND, s_nn, repeat=2.0,
                          phases=("gather", "redistribute")),
        ]


class ThreeStepHierarchicalStagedModel(StrategyModel):
    """Hierarchical 3-Step (extension), staged: socket-level gathers."""

    name = "3-Step H"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            off_node_stage(m, m * s_nn, s.node_bytes, s_nn),
            hierarchical_on_node_stage(
                self.machine, HopKind.CPU_SEND, s_nn, repeat=2.0,
                phases=("socket-gather", "gather",
                        "socket-redistribute", "redistribute")),
            copy_stage(s.proc_bytes, s_nn),
        ]


class ThreeStepHierarchicalDeviceModel(StrategyModel):
    """Hierarchical 3-Step (extension), device-aware — ref [13]'s path."""

    name = "3-Step H"
    data_path = DEVICE

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            device_off_node_stage(m, m * s_nn, s_nn),
            hierarchical_on_node_stage(
                self.machine, HopKind.GPU_SEND, s_nn, repeat=2.0,
                phases=("socket-gather", "gather",
                        "socket-redistribute", "redistribute")),
        ]


# ---------------------------------------------------------------------------
# 2-Step
# ---------------------------------------------------------------------------
class TwoStepStagedModel(StrategyModel):
    """2-Step All, staged: every GPU sends to its pair on every dest node."""

    name = "2-Step"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = s.num_dest_nodes
        msg = s.bytes_per_node_pair / self.gpn
        return [
            off_node_stage(m, m * msg, s.node_bytes, msg),
            on_node_stage(self.machine, HopKind.CPU_SEND, s.proc_bytes,
                          phases=("redistribute",)),
            copy_stage(s.proc_bytes, s.bytes_per_node_pair),
        ]


class TwoStepDeviceModel(StrategyModel):
    """2-Step All, device-aware."""

    name = "2-Step"
    data_path = DEVICE

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = s.num_dest_nodes
        msg = s.bytes_per_node_pair / self.gpn
        return [
            device_off_node_stage(m, m * msg, msg),
            on_node_stage(self.machine, HopKind.GPU_SEND, s.proc_bytes,
                          phases=("redistribute",)),
        ]


class TwoStepBestCaseStagedModel(StrategyModel):
    """2-Step 1, staged: all data to a node already sits on one GPU.

    The paper's best-case scenario — no gather step; the single active
    GPU per node pair sends the full pair volume directly.
    """

    name = "2-Step 1"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            off_node_stage(m, m * s_nn, s.node_bytes, s_nn),
            on_node_stage(self.machine, HopKind.CPU_SEND, s_nn,
                          phases=("redistribute",)),
            copy_stage(s.proc_bytes, s_nn),
        ]


class TwoStepBestCaseDeviceModel(StrategyModel):
    """2-Step 1, device-aware — the paper's overall large-size winner."""

    name = "2-Step 1"
    data_path = DEVICE

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            device_off_node_stage(m, m * s_nn, s_nn),
            on_node_stage(self.machine, HopKind.GPU_SEND, s_nn,
                          phases=("redistribute",)),
        ]


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------
class _SplitModelBase(StrategyModel):
    """Shared Split machinery: Algorithm-1 message-cap resolution."""

    ppg: int = 1  # host processes per GPU (1 = MD, 4 = DD)

    def _split_counts(self, s, ops: Ops):
        """Generic Algorithm-1 resolution over either operand algebra.

        Branchless compute-both-then-select form whose select order
        mirrors the scalar ``if`` chain, so per-element results match
        the scalar branches bitwise.
        """
        cap0 = float(self.message_cap)
        s_nn = s.bytes_per_node_pair
        n_dest = s.num_dest_nodes
        cap = ops.where(s.node_bytes / cap0 > self.ppn,
                        ops.ceil(s.node_bytes / self.ppn), cap0)
        per_pair = ops.maximum(1, ops.ceil(s_nn / cap))
        under = s_nn <= cap0
        total = ops.where(under, n_dest, n_dest * per_pair)
        msg_size = ops.where(under, s_nn, ops.minimum(cap, s_nn))
        return total, msg_size

    def split_counts(self, summary: PatternSummary):
        """(total inter-node messages, individual message size).

        Implements Algorithm 1 lines 12–17: if the largest node-pair
        volume fits under the cap, one conglomerated message per node
        pair; otherwise the cap is raised so the node's total volume
        spreads over at most ``ppn`` messages, and each pair's volume is
        split to that cap.
        """
        return self._split_counts(summary, SCALAR_OPS)

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        total_msgs, msg_size = self._split_counts(s, ops)
        m = ops.ceil(total_msgs / self.ppn)
        s_proc = s.node_bytes / self.ppn
        return [
            off_node_stage(m, s_proc, s.node_bytes, msg_size,
                           check=CheckMode.NODE_TOTAL,
                           node_count=total_msgs),
            split_on_node_stage(self.machine, s.node_bytes, self.ppg,
                                self.ppn, s.active_gpus, ops, repeat=2.0,
                                phases=("distribute", "redistribute")),
            copy_stage(s.proc_bytes, s.bytes_per_node_pair, nproc=self.ppg),
        ]


class SplitMDModel(_SplitModelBase):
    """Split + MD: one host process copies, on-node messages distribute."""

    name = "Split + MD"
    data_path = STAGED
    ppg = 1


class SplitDDModel(_SplitModelBase):
    """Split + DD: four duplicate-device-pointer processes copy directly."""

    name = "Split + DD"
    data_path = STAGED
    ppg = 4


# ---------------------------------------------------------------------------
# Persistent neighborhood collectives ("Neighbor P")
# ---------------------------------------------------------------------------
class NeighborPersistentStagedModel(StrategyModel):
    """Persistent-channel 3-Step, staged: pre-posted off-node leg.

    Identical message structure to 3-Step; the off-node exchanges run
    over persistent channels (rendezvous-sized messages pay the eager
    latency, keep the rendezvous bandwidth) and a one-time full-price
    setup exchange amortizes over :data:`PERSISTENT_WINDOW` iterations.
    """

    name = "Neighbor P"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            off_node_stage(m, m * s_nn, s.node_bytes, s_nn, pre_posted=True),
            as_setup(off_node_stage(m, m * s_nn, s.node_bytes, s_nn),
                     PERSISTENT_WINDOW),
            on_node_stage(self.machine, HopKind.CPU_SEND, s_nn, repeat=2.0,
                          phases=("gather", "redistribute")),
            copy_stage(s.proc_bytes, s_nn),
        ]


class NeighborPersistentDeviceModel(StrategyModel):
    """Persistent-channel 3-Step, device-aware (no staging copies)."""

    name = "Neighbor P"
    data_path = DEVICE

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        m = self._dests_per_proc(s, ops)
        s_nn = s.bytes_per_node_pair
        return [
            device_off_node_stage(m, m * s_nn, s_nn, pre_posted=True),
            as_setup(device_off_node_stage(m, m * s_nn, s_nn),
                     PERSISTENT_WINDOW),
            on_node_stage(self.machine, HopKind.GPU_SEND, s_nn, repeat=2.0,
                          phases=("gather", "redistribute")),
        ]


# ---------------------------------------------------------------------------
# Multi-leader aggregation ("ML 3-Step")
# ---------------------------------------------------------------------------
class MultiLeaderStagedModel(StrategyModel):
    """Multi-leader 3-Step, staged: one leader group per NIC (or socket).

    Each of the node's ``L`` leader groups runs the 3-Step scheme over
    its ``1/L`` share of every node pair's volume: the gather shrinks
    to the group (vanishing when every GPU leads its own group), the
    inter-node leg carries ``L``-fold more messages of ``1/L`` the size
    but injects through ``L`` NIC ports concurrently — and, on machines
    whose locality hierarchy refines the network, targets the innermost
    network tier (group-local routing).
    """

    name = "ML 3-Step"
    data_path = STAGED

    def _stages(self, s, ops: Ops) -> List[HopStage]:
        machine = self.machine
        size, num = machine.leader_group_geometry
        s_nn = s.bytes_per_node_pair
        s_g = s_nn / num           # one group's share of a pair volume
        m = ops.ceil(s.num_dest_nodes / size)
        stages = [off_node_stage(
            m, m * s_g, s.node_bytes, s_g, check=CheckMode.BOUND_TOTAL,
            tier=machine.locality_hierarchy.deepest_network_tier(),
            nics_used=num)]
        # Group-local gather: each member feeds its group's leader.  The
        # per-member contribution is the GPU's union share; the hops'
        # ``total_bytes`` carries the node-volume check bound (BOUND_RANK
        # reads it; SEQUENTIAL costing does not).
        member = s_nn / self.gpn
        gps = machine.gpus_per_socket
        gather = [Hop(kind=HopKind.CPU_SEND, locality=Locality.ON_SOCKET,
                      count=float(min(size, gps) - 1), nbytes=member,
                      total_bytes=s.node_bytes,
                      serialization=Serialization.SEQUENTIAL,
                      phase="gather")]
        if size > gps:
            gather.append(Hop(kind=HopKind.CPU_SEND,
                              locality=Locality.ON_NODE,
                              count=float(size - gps), nbytes=member,
                              total_bytes=s.node_bytes,
                              serialization=Serialization.SEQUENTIAL,
                              phase="gather"))
        stages.append(HopStage(label="group gather", hops=tuple(gather),
                               phases=("gather",),
                               check=CheckMode.BOUND_RANK))
        stages.append(on_node_stage(machine, HopKind.CPU_SEND, s_g,
                                    phases=("redistribute",),
                                    label="group redistribute"))
        stages.append(copy_stage(s.proc_bytes, s_g))
        return stages


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """One registry row: display label + model class + DES impl ref.

    The single source of truth shared by :mod:`repro.core.selector`
    (implementation side) and :func:`all_strategy_models` (model side).
    ``impl_ref`` is a lazy ``"module:Class"`` string — resolved at call
    time so this module never imports ``repro.core`` (which imports it
    back through the selector).  ``best_case`` marks analytic bounds
    with no DES implementation (2-Step 1): present in model sweeps,
    absent from the selector, never a winner in
    :func:`repro.models.decision.decide`.  ``extended`` marks the
    hierarchy-aware families added on top of the paper's Table 5 —
    excluded from paper-reproduction surfaces by default, opted into
    via ``all_strategy_models(include_extended=True)``.
    """

    label: str
    model_cls: type
    impl_ref: Optional[str] = None
    best_case: bool = False
    extended: bool = False

    @property
    def has_impl(self) -> bool:
        return self.impl_ref is not None

    @property
    def device_aware(self) -> bool:
        return self.model_cls.data_path == DEVICE

    def impl_factory(self):
        """The DES strategy class behind this row (lazy import)."""
        if self.impl_ref is None:
            raise KeyError(
                f"{self.label!r} is an analytic bound with no DES "
                f"implementation")
        module, _, name = self.impl_ref.partition(":")
        return getattr(importlib.import_module(module), name)


STRATEGY_SPECS: Tuple[StrategySpec, ...] = (
    StrategySpec("Standard (staged)", StandardStagedModel,
                 "repro.core.standard:StandardStaged"),
    StrategySpec("Standard (device-aware)", StandardDeviceModel,
                 "repro.core.standard:StandardDevice"),
    StrategySpec("3-Step (staged)", ThreeStepStagedModel,
                 "repro.core.three_step:ThreeStepStaged"),
    StrategySpec("3-Step (device-aware)", ThreeStepDeviceModel,
                 "repro.core.three_step:ThreeStepDevice"),
    StrategySpec("2-Step (staged)", TwoStepStagedModel,
                 "repro.core.two_step:TwoStepStaged"),
    StrategySpec("2-Step (device-aware)", TwoStepDeviceModel,
                 "repro.core.two_step:TwoStepDevice"),
    StrategySpec("2-Step 1 (staged)", TwoStepBestCaseStagedModel,
                 best_case=True),
    StrategySpec("2-Step 1 (device-aware)", TwoStepBestCaseDeviceModel,
                 best_case=True),
    StrategySpec("Split + MD (staged)", SplitMDModel,
                 "repro.core.split:SplitMD"),
    StrategySpec("Split + DD (staged)", SplitDDModel,
                 "repro.core.split:SplitDD"),
    StrategySpec("3-Step H (staged)", ThreeStepHierarchicalStagedModel,
                 "repro.core.hierarchical:ThreeStepHierarchicalStaged",
                 extended=True),
    StrategySpec("3-Step H (device-aware)", ThreeStepHierarchicalDeviceModel,
                 "repro.core.hierarchical:ThreeStepHierarchicalDevice",
                 extended=True),
    StrategySpec("Neighbor P (staged)", NeighborPersistentStagedModel,
                 "repro.core.neighbor:NeighborPersistentStaged",
                 extended=True),
    StrategySpec("Neighbor P (device-aware)", NeighborPersistentDeviceModel,
                 "repro.core.neighbor:NeighborPersistentDevice",
                 extended=True),
    StrategySpec("ML 3-Step (staged)", MultiLeaderStagedModel,
                 "repro.core.multileader:MultiLeaderStaged",
                 extended=True),
)


def spec_by_label(label: str) -> StrategySpec:
    """The registry row for a display label (KeyError listing on miss)."""
    for spec in STRATEGY_SPECS:
        if spec.label == label:
            return spec
    known = sorted(s.label for s in STRATEGY_SPECS)
    raise KeyError(f"unknown strategy {label!r}; available: {known}")


def all_strategy_models(machine: MachineSpec, ppn: Optional[int] = None,
                        message_cap: Optional[int] = None,
                        include_best_case: bool = True,
                        include_extended: bool = False
                        ) -> List[StrategyModel]:
    """The Table-5 model set (optionally with the 2-Step 1 best cases).

    Derived from :data:`STRATEGY_SPECS` in registry order: incumbents
    first (preserving historical regime-map column order and argmin
    tie-breaks), the hierarchy-aware families after.  The default
    ``include_extended=False`` keeps paper-reproduction surfaces
    (scenario sweeps, figure goldens, regime maps) on the exact Table-5
    competitor set; pass ``include_extended=True`` to let the
    hierarchy-aware families (3-Step H, Neighbor P, ML 3-Step) compete.
    """
    return [spec.model_cls(machine, ppn, message_cap)
            for spec in STRATEGY_SPECS
            if (include_best_case or not spec.best_case)
            and (include_extended or not spec.extended)]


def model_label(model: StrategyModel) -> str:
    """Display label, e.g. ``"3-Step (device-aware)"``."""
    return f"{model.name} ({model.data_path})"
