"""The costing kernel: one evaluator, two operand algebras.

Every cost in the analytic layer is produced here, by walking a
sequence of :class:`~repro.paths.ir.HopStage` records and charging each
hop from the machine's Table-2/3/4 constants.  The *same* code path
costs one point and a whole batch: an :class:`Ops` bundle supplies
``ceil``/``max``/``where``/protocol-selection operating either on
Python scalars (:data:`SCALAR_OPS`) or on numpy arrays
(:data:`ARRAY_OPS`).  There is no other evaluator.

Bit-exactness contract: both algebras apply the same floating-point
operations in the same order — stage sums start from the first hop's
cost, stages accumulate left-associatively, and a ``repeat`` factor
multiplies the finished stage sum (exact for the power-of-two repeats
the models use) — so an element of a batch costs exactly what it costs
alone.  The goldens in ``tests/test_equivalence.py`` pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.machine.locality import TransportKind
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


@dataclass(frozen=True)
class PlanStack:
    """Several compiled plans over one shared batch of ``n`` elements.

    Only a holder, there is no stacked tensor behind it: ``evaluate()``
    walks each plan with :func:`cost_plan` under :data:`ARRAY_OPS`, so a
    row *is* that plan's array walk.  All-scalar plans give one column.
    """

    machine: MachineSpec
    plans: Tuple[HopPlan, ...]
    n: Optional[int] = None

    def evaluate(self) -> np.ndarray:
        """Cost every plan for every element: returns shape ``(S, n)``."""
        rows = [np.atleast_1d(np.asarray(
            cost_plan(self.machine, plan, ARRAY_OPS), dtype=float))
            for plan in self.plans]
        n = max(row.size for row in rows) if self.n is None else self.n
        return np.stack([np.broadcast_to(row, (n,)) for row in rows])


def stack_plans(machine: MachineSpec, plans: Sequence[HopPlan],
                n: Optional[int] = None) -> PlanStack:
    """``plans`` held for one ``evaluate()`` over their ``n``-wide batch."""
    if not plans:
        raise ValueError("stack_plans requires at least one plan")
    return PlanStack(machine, tuple(plans), n)
