"""The shared costing kernel: one evaluator, two operand algebras.

Every cost in the analytic layer is produced here, by walking a
sequence of :class:`~repro.paths.ir.HopStage` records and charging each
hop from the machine's Table-2/3/4 constants.  The *same* code path
serves the scalar coster and the batched numpy coster: an :class:`Ops`
bundle supplies ``ceil``/``max``/``where``/protocol-selection operating
either on Python scalars (:data:`SCALAR_OPS`) or on numpy arrays
(:data:`ARRAY_OPS`).

Bit-exactness contract: for scalar inputs the kernel applies exactly
the floating-point operations (and order) of the historical hand-written
``_time`` bodies, and for array inputs exactly those of their
``*_vec`` twins — stage sums start from the first hop's cost, stages
accumulate left-associatively, and a ``repeat`` factor multiplies the
finished stage sum (exact for the power-of-two repeats the models use).
The goldens in ``tests/test_equivalence.py`` pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.machine.locality import TransportKind
from repro.machine.params import select_links
from repro.machine.topology import MachineSpec
from repro.paths.ir import Hop, HopKind, HopPlan, HopStage, Serialization


@dataclass(frozen=True)
class Ops:
    """Operand algebra the kernel is generic over."""

    name: str
    ceil: Callable[[Any], Any]
    maximum: Callable[[Any, Any], Any]
    minimum: Callable[[Any, Any], Any]
    where: Callable[[Any, Any, Any], Any]
    any: Callable[[Any], bool]
    #: ``link(machine, kind, locality, nbytes, pre_posted) -> (alpha,
    #: beta)`` with protocol selection by individual-message size
    link: Callable[[MachineSpec, TransportKind, Any, Any, bool], Any]


def _scalar_link(machine: MachineSpec, kind: TransportKind, locality,
                 nbytes, pre_posted: bool = False):
    if pre_posted:
        _protocol, link = machine.comm_params.persistent_link(
            kind, locality, nbytes)
    else:
        _protocol, link = machine.comm_params.for_message(
            kind, locality, nbytes)
    return link.alpha, link.beta


def _array_link(machine: MachineSpec, kind: TransportKind, locality, nbytes,
                pre_posted: bool = False):
    return machine.comm_params.link_arrays(kind, locality, nbytes,
                                           pre_posted=pre_posted)


SCALAR_OPS = Ops(
    name="scalar",
    ceil=math.ceil,
    maximum=max,
    minimum=min,
    where=lambda cond, a, b: a if cond else b,
    any=bool,
    link=_scalar_link,
)

ARRAY_OPS = Ops(
    name="array",
    ceil=np.ceil,
    maximum=np.maximum,
    minimum=np.minimum,
    where=np.where,
    any=np.any,
    link=_array_link,
)


def resolve_link(machine: MachineSpec, hop: Hop, ops: Ops) -> Any:
    """Tier-aware ``(alpha, beta)`` for a send hop.

    Protocol selection runs over the hop's flat ``locality`` (honoring
    ``pre_posted`` persistent channels); a tier index then refines the
    pair with the tier's alpha/beta scale factors.  Flat hops
    (``tier is None``) never consult the hierarchy — the degenerate
    case takes exactly the pre-hierarchy code path.
    """
    alpha, beta = ops.link(machine, hop.kind.transport_kind, hop.locality,
                           hop.nbytes, hop.pre_posted)
    if hop.tier is not None:
        tier = machine.locality_hierarchy[hop.tier]
        if tier.alpha_scale != 1.0:
            alpha = tier.alpha_scale * alpha
        if tier.beta_scale != 1.0:
            beta = tier.beta_scale * beta
    return alpha, beta


def cpu_injection_rate(machine: MachineSpec, hop: Hop) -> float:
    """Effective NIC rate (bytes/s) for one CPU MAX_RATE hop.

    The legacy node-aggregate rate unless the hop pins its senders to a
    port subset: an explicit ``nics_used`` serializes through
    ``min(nics_used, nics_per_node)`` ports and overrides the tier's
    ``nic_share``; otherwise a tier's share scales the node rate.
    """
    nic = machine.nic
    if hop.nics_used is not None:
        return nic.injection_rate * min(hop.nics_used, nic.nics_per_node)
    if hop.tier is not None:
        share = machine.locality_hierarchy[hop.tier].nic_share
        if share != 1.0:
            return nic.injection_rate * nic.nics_per_node * share
    return nic.injection_rate * nic.nics_per_node


def hop_cost(machine: MachineSpec, hop: Hop, ops: Ops) -> Any:
    """Cost of one hop from the machine's measured constants.

    SEQUENTIAL: postal model times count.  MAX_RATE: eq. (4.3) for CPU
    sends (NIC injection guard over the busiest node) or eq. (4.4) for
    GPU sends (postal, with the injection guard only on machines that
    declare a finite GPU injection rate).  MEMCPY: Table-3 row for the
    hop's direction and process count.
    """
    if hop.kind is HopKind.MEMCPY:
        link = machine.copy_params.link(hop.direction, hop.nproc)
        return link.alpha + link.beta * hop.nbytes
    alpha, beta = resolve_link(machine, hop, ops)
    if hop.serialization is Serialization.SEQUENTIAL:
        return hop.count * (alpha + beta * hop.nbytes)
    if hop.kind is HopKind.CPU_SEND:
        rn = cpu_injection_rate(machine, hop)
        return alpha * hop.count + ops.maximum(hop.node_bytes / rn,
                                               hop.total_bytes * beta)
    base = alpha * hop.count + hop.total_bytes * beta
    gpu_rate = machine.nic.gpu_injection_rate
    if gpu_rate != float("inf"):
        gpn = max(machine.gpus_per_node, 1)
        base = alpha * hop.count + ops.maximum(
            gpn * hop.total_bytes / (gpu_rate * machine.nic.nics_per_node),
            hop.total_bytes * beta)
    return base


def stage_cost(machine: MachineSpec, stage: HopStage, ops: Ops) -> Any:
    """Cost of one stage: hop costs summed in order, times ``repeat``.

    Conditional hops (``enabled`` other than the literal ``True``) fold
    onto the running sum through ``ops.where`` — replicating the scalar
    ``if`` branches and their ``np.where`` twins bitwise — and are
    skipped entirely when no element enables them.  SETUP stages
    amortize: the finished (repeated) sum divides by ``amortize_over``.
    """
    total = None
    for hop in stage.hops:
        if hop.enabled is True:
            cost = hop_cost(machine, hop, ops)
            total = cost if total is None else total + cost
        else:
            if not ops.any(hop.enabled):
                continue
            cost = hop_cost(machine, hop, ops)
            total = ops.where(hop.enabled, total + cost, total)
    if stage.repeat != 1.0:
        total = stage.repeat * total
    if stage.amortize_over != 1.0:
        total = total / stage.amortize_over
    return total


def evaluate_stages(machine: MachineSpec, stages: Sequence[HopStage],
                    ops: Ops) -> Any:
    """Total plan cost: stage costs summed left-associatively."""
    total = None
    for stage in stages:
        cost = stage_cost(machine, stage, ops)
        total = cost if total is None else total + cost
    return 0.0 if total is None else total


def cost_plan(machine: MachineSpec, plan: HopPlan,
              ops: Ops = SCALAR_OPS) -> Any:
    """Evaluate a compiled :class:`HopPlan` (scalar algebra by default)."""
    return evaluate_stages(machine, plan.stages, ops)


# -- fused multi-plan evaluation ---------------------------------------------
#
# The per-plan evaluator above walks stages/hops in Python once per
# (plan, element-batch) pair.  For whole-sweep costing — every strategy
# x every scenario cell x every message size — that walk itself becomes
# the bottleneck.  stack_plans() lowers a *list* of compiled plans into
# padded operand tensors of shape (plans, stages, hops, elements); the
# hop formulas then evaluate over the entire tensor with one numpy
# expression per formula, and FusedPlans.evaluate() folds hops and
# stages with the same left-associative order (explicit small loops, not
# pairwise np.sum) so every element's result is bit-identical to
# evaluate_stages() with ARRAY_OPS on that element's slice.
#
# Padding is engineered to be a bitwise no-op: padded hop slots carry
# alpha=beta=count=bytes=0 (their cost is exactly +0.0) and
# enabled=False (the where-fold leaves the running sum's bits alone);
# padded stages scale +0.0 by repeat 1.0 and add +0.0 to the plan total
# (exact for the non-negative totals the models produce).  MEMCPY hops
# share the SEQUENTIAL formula with count=1: ``1.0 * x`` is bit-identical
# to ``x``.


@dataclass(frozen=True)
class FusedPlans:
    """Padded operand tensors for a list of compiled plans.

    All array attributes have shape ``(S, St, H, N)``: ``S`` plans,
    ``St`` = max stages per plan, ``H`` = max hops per stage, ``N``
    elements (the width of the batch the plans were compiled from).
    """

    labels: Tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    count: np.ndarray
    nbytes: np.ndarray
    total_bytes: np.ndarray
    node_bytes: np.ndarray
    enabled: np.ndarray          # bool: padded or disabled slots are False
    is_cpu_max_rate: np.ndarray  # bool, shape (S, St, H, 1)
    is_gpu_max_rate: np.ndarray  # bool, shape (S, St, H, 1)
    repeat: np.ndarray           # shape (S, St, 1)
    # machine constants captured at stack time
    cpu_rate_node: float         # injection_rate * nics_per_node
    gpu_rate: float              # gpu_injection_rate (may be inf)
    gpu_rate_denom: float        # gpu_injection_rate * nics_per_node
    gpus_per_node: int           # max(gpus_per_node, 1)
    # locality-hierarchy extensions; None for all-flat plan sets (the
    # evaluator then takes exactly the pre-hierarchy expressions)
    cpu_rate: Optional[np.ndarray] = None   # (S, St, H, 1) per-hop NIC rate
    amortize: Optional[np.ndarray] = None   # (S, St, 1) setup divisor

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return self.alpha.shape

    def evaluate(self) -> np.ndarray:
        """Cost every plan for every element: returns shape ``(S, N)``.

        Hop formulas run over the whole tensor; the three formula
        families are then selected per hop slot.  Folds are explicit
        left-associative loops over the (small) hop and stage axes so
        the accumulation order matches :func:`evaluate_stages` exactly.
        """
        alpha, beta, count = self.alpha, self.beta, self.count
        # SEQUENTIAL (and MEMCPY with count=1): postal model times count.
        cost = count * (alpha + beta * self.nbytes)
        if np.any(self.is_cpu_max_rate):
            rate = (self.cpu_rate if self.cpu_rate is not None
                    else self.cpu_rate_node)
            cpu_mr = alpha * count + np.maximum(
                self.node_bytes / rate,
                self.total_bytes * beta)
            cost = np.where(self.is_cpu_max_rate, cpu_mr, cost)
        if np.any(self.is_gpu_max_rate):
            if self.gpu_rate != float("inf"):
                gpu_mr = alpha * count + np.maximum(
                    self.gpus_per_node * self.total_bytes
                    / self.gpu_rate_denom,
                    self.total_bytes * beta)
            else:
                gpu_mr = alpha * count + self.total_bytes * beta
            cost = np.where(self.is_gpu_max_rate, gpu_mr, cost)
        # hop fold: the leading hop is unconditional by IR contract;
        # later hops fold through where() exactly like stage_cost().
        stage_total = cost[:, :, 0, :]
        for h in range(1, cost.shape[2]):
            stage_total = np.where(self.enabled[:, :, h, :],
                                   stage_total + cost[:, :, h, :],
                                   stage_total)
        scaled = self.repeat * stage_total
        if self.amortize is not None:
            scaled = scaled / self.amortize
        total = scaled[:, 0, :]
        for st in range(1, scaled.shape[1]):
            total = total + scaled[:, st, :]
        return total


def _plan_width(plans: Sequence[HopPlan]) -> int:
    """Element width of the batch the plans were compiled from."""
    for plan in plans:
        for stage in plan.stages:
            for hop in stage.hops:
                for q in (hop.count, hop.nbytes, hop.total_bytes,
                          hop.node_bytes, hop.enabled):
                    if isinstance(q, np.ndarray) and q.ndim == 1:
                        return int(q.size)
    return 1


def _fill(out: np.ndarray, value: Any) -> None:
    """Broadcast a scalar or (N,) quantity into one hop slot."""
    arr = np.asarray(value, dtype=out.dtype)
    if arr.ndim > 1 or (arr.ndim == 1 and arr.shape != out.shape):
        raise ValueError(
            f"hop quantity of shape {arr.shape} does not broadcast to "
            f"batch width {out.shape[0]}")
    out[...] = arr


def _link_row(machine: MachineSpec, hop: Hop) -> np.ndarray:
    """The hop's link-table row, its constants scaled by the hop's tier."""
    scales = ()
    if hop.tier is not None:
        tier = machine.locality_hierarchy[hop.tier]
        scales = (tier.alpha_scale, tier.beta_scale)
    return machine.comm_params.link_table(hop.kind.transport_kind,
                                          hop.locality, hop.pre_posted,
                                          *scales)


def stack_plans(machine: MachineSpec, plans: Sequence[HopPlan],
                n: Optional[int] = None) -> FusedPlans:
    """Lower compiled plans into padded :class:`FusedPlans` tensors.

    ``n`` is the element width; inferred from the first array-valued hop
    quantity when omitted (``1`` for all-scalar plans).  The hop loop
    records each send slot's link-table row (resolved once per distinct
    ``(kind, locality, pre_posted, tier)``); protocol selection —
    Table-2 alpha/beta per individual message size — then runs once over
    all send slots through the same ``select_links`` the ARRAY_OPS
    kernel uses, so the tensors are a pure re-layout, not a
    re-derivation.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("stack_plans requires at least one plan")
    if n is None:
        n = _plan_width(plans)
    n_stages = max(len(p.stages) for p in plans)
    n_hops = max((len(st.hops) for p in plans for st in p.stages), default=1)
    shape = (len(plans), max(n_stages, 1), max(n_hops, 1), n)
    nic = machine.nic
    rate_node = nic.injection_rate * nic.nics_per_node
    alpha = np.zeros(shape)
    beta = np.zeros(shape)
    link_rows: dict = {}
    sends, send_rows = [], []   # (s, t, h) of each send slot, and its row
    count = np.zeros(shape)
    nbytes = np.zeros(shape)
    total_bytes = np.zeros(shape)
    node_bytes = np.zeros(shape)
    enabled = np.zeros(shape, dtype=bool)
    is_cpu_mr = np.zeros(shape[:3] + (1,), dtype=bool)
    is_gpu_mr = np.zeros(shape[:3] + (1,), dtype=bool)
    repeat = np.ones(shape[:2] + (1,))
    cpu_rate: Optional[np.ndarray] = None
    amortize: Optional[np.ndarray] = None
    for s, plan in enumerate(plans):
        for t, stage in enumerate(plan.stages):
            repeat[s, t, 0] = stage.repeat
            if stage.amortize_over != 1.0:
                if amortize is None:
                    amortize = np.ones(shape[:2] + (1,))
                amortize[s, t, 0] = stage.amortize_over
            for h, hop in enumerate(stage.hops):
                _fill(nbytes[s, t, h], hop.nbytes)
                if hop.kind is HopKind.MEMCPY:
                    link = machine.copy_params.link(hop.direction, hop.nproc)
                    alpha[s, t, h] = link.alpha
                    beta[s, t, h] = link.beta
                    count[s, t, h] = 1.0  # MEMCPY = SEQUENTIAL with count 1
                else:
                    key = (hop.kind, hop.locality, hop.pre_posted, hop.tier)
                    row = link_rows.get(key)
                    if row is None:
                        row = link_rows[key] = _link_row(machine, hop)
                    sends.append((s, t, h))
                    send_rows.append(row)
                    _fill(count[s, t, h], hop.count)
                    if hop.serialization is Serialization.MAX_RATE:
                        _fill(total_bytes[s, t, h], hop.total_bytes)
                        if hop.kind is HopKind.CPU_SEND:
                            _fill(node_bytes[s, t, h], hop.node_bytes)
                            is_cpu_mr[s, t, h, 0] = True
                            rate = cpu_injection_rate(machine, hop)
                            if rate != rate_node and cpu_rate is None:
                                cpu_rate = np.full(shape[:3] + (1,),
                                                   rate_node)
                            if cpu_rate is not None:
                                cpu_rate[s, t, h, 0] = rate
                        else:
                            is_gpu_mr[s, t, h, 0] = True
                enabled[s, t, h] = (True if hop.enabled is True
                                    else np.asarray(hop.enabled, dtype=bool))
    if sends:
        at = tuple(np.array(sends).T)
        alpha[at], beta[at] = select_links(np.array(send_rows)[:, None],
                                           nbytes[at])
    return FusedPlans(
        labels=tuple(p.strategy for p in plans),
        alpha=alpha, beta=beta, count=count, nbytes=nbytes,
        total_bytes=total_bytes, node_bytes=node_bytes,
        enabled=enabled, is_cpu_max_rate=is_cpu_mr,
        is_gpu_max_rate=is_gpu_mr, repeat=repeat,
        cpu_rate_node=rate_node,
        gpu_rate=nic.gpu_injection_rate,
        gpu_rate_denom=nic.gpu_injection_rate * nic.nics_per_node,
        gpus_per_node=max(machine.gpus_per_node, 1),
        cpu_rate=cpu_rate, amortize=amortize,
    )


def evaluate_plans_fused(machine: MachineSpec, plans: Sequence[HopPlan],
                         n: Optional[int] = None) -> np.ndarray:
    """Cost all ``plans`` over their shared batch in one fused pass.

    Returns shape ``(len(plans), N)``; row ``s`` is bit-identical to
    ``evaluate_stages(machine, plans[s].stages, ARRAY_OPS)``.
    """
    return stack_plans(machine, plans, n).evaluate()
