"""Canonical stage builders: paper terms (4.1)–(4.5) as hop stages.

Each builder turns one model term into a :class:`~repro.paths.ir.HopStage`
— the hop *counts and sizes* live here, the cost arithmetic lives in
:mod:`repro.paths.kernel`.  The scalar sub-model wrappers in
:mod:`repro.models.submodels` and the strategy compilers in
:mod:`repro.models.strategies` build their stages through these
functions, so a hop decision exists in exactly one place.

Builders that branch on data (eq. 4.2's socket occupancy, the Split
message-cap resolution) take an :class:`~repro.paths.kernel.Ops`
bundle so one body serves scalars and arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from repro.machine.locality import CopyDirection, Locality
from repro.machine.topology import MachineSpec
from repro.paths.ir import (
    CheckMode,
    Hop,
    HopKind,
    HopStage,
    Serialization,
    StageKind,
)
from repro.paths.kernel import Ops


def on_node_stage(machine: MachineSpec, hop_kind: HopKind, s: Any, *,
                  phases: Tuple[str, ...], repeat: float = 1.0,
                  label: str = "on-node") -> HopStage:
    """Eq. (4.1): worst-case on-node gather/redistribution fan-out.

    ``(gps - 1)`` on-socket hops of ``s`` bytes each, plus ``gps``
    cross-socket hops on multi-socket nodes.
    """
    gps = machine.gpus_per_socket
    hops = [Hop(kind=hop_kind, locality=Locality.ON_SOCKET, count=gps - 1,
                nbytes=s, serialization=Serialization.SEQUENTIAL,
                phase=phases[0])]
    if machine.sockets_per_node > 1:
        hops.append(Hop(kind=hop_kind, locality=Locality.ON_NODE, count=gps,
                        nbytes=s, serialization=Serialization.SEQUENTIAL,
                        phase=phases[0]))
    return HopStage(label=label, hops=tuple(hops), repeat=repeat,
                    phases=phases, check=CheckMode.BOUND_RANK)


def hierarchical_on_node_stage(machine: MachineSpec, hop_kind: HopKind,
                               s: Any, *, phases: Tuple[str, ...],
                               repeat: float = 1.0,
                               label: str = "hierarchical on-node"
                               ) -> HopStage:
    """Hierarchical 3-Step gather: socket leaders combine before crossing.

    ``(gps - 1)`` on-socket hops of ``s`` bytes, then ``(sockets - 1)``
    cross-socket hops of the socket-combined ``gps * s`` bytes.
    """
    gps = machine.gpus_per_socket
    hops = [Hop(kind=hop_kind, locality=Locality.ON_SOCKET, count=gps - 1,
                nbytes=s, serialization=Serialization.SEQUENTIAL,
                phase=phases[0])]
    if machine.sockets_per_node > 1:
        combined = gps * s
        hops.append(Hop(kind=hop_kind, locality=Locality.ON_NODE,
                        count=machine.sockets_per_node - 1, nbytes=combined,
                        serialization=Serialization.SEQUENTIAL,
                        phase=phases[0]))
    return HopStage(label=label, hops=tuple(hops), repeat=repeat,
                    phases=phases, check=CheckMode.BOUND_RANK)


def split_on_node_stage(machine: MachineSpec, s_total: Any, ppg: int,
                        ppn: int, active_gpus: Any, ops: Ops, *,
                        phases: Tuple[str, ...], repeat: float = 1.0,
                        label: str = "split on-node") -> HopStage:
    """Eq. (4.2): Split's on-node distribution across ``ppn`` processes.

    ``s_total`` bytes split into ``ppn`` messages of ``s_total / ppn``;
    each of the distributing sockets fans out on-socket, and sockets
    without a distributor are fed by conditional cross-socket hops.

    The hop counts are *per-distributor average shares*, so the DES
    cross-check uses :attr:`CheckMode.BOUND_TOTAL`: the busiest rank
    may exceed its modelled share, but the lane as a whole cannot move
    more than ``s_total`` (carried on the hops as ``node_bytes``) per
    repetition.
    """
    if ppg < 1:
        raise ValueError(f"ppg must be >= 1, got {ppg!r}")
    pps = machine.cores_per_socket
    sockets = machine.sockets_per_node
    if ppg > pps:
        raise ValueError(f"ppg={ppg} exceeds processes per socket {pps}")
    active = ops.minimum(active_gpus, max(machine.gpus_per_node, 1))
    if ppn <= 0:
        ppn = machine.cores_per_node
    s_msg = s_total / ppn
    gps = max(machine.gpus_per_socket, 1)
    # Sockets hosting at least one distributing (copying) process.
    sockets_with = ops.minimum(sockets, ops.ceil(active / gps))
    dist_per_socket = ops.ceil(active / sockets_with) * ppg
    # On-socket fan-out: the socket's pps receivers shared among its
    # distributors, minus the share a distributor keeps for itself.
    n_os = ops.maximum(pps / dist_per_socket - 1, 0.0)
    hops = [Hop(kind=HopKind.CPU_SEND, locality=Locality.ON_SOCKET,
                count=n_os, nbytes=s_msg, node_bytes=s_total,
                serialization=Serialization.SEQUENTIAL, phase=phases[0])]
    # Sockets without distributors are reached via on-node messages,
    # shared among all distributors.
    lacking = sockets_with < sockets
    n_on = (sockets - sockets_with) * pps / (sockets_with * dist_per_socket)
    hops.append(Hop(kind=HopKind.CPU_SEND, locality=Locality.ON_NODE,
                    count=n_on, nbytes=s_msg, node_bytes=s_total,
                    serialization=Serialization.SEQUENTIAL, phase=phases[0],
                    enabled=lacking))
    return HopStage(label=label, hops=tuple(hops), repeat=repeat,
                    phases=phases, check=CheckMode.BOUND_TOTAL)


def off_node_stage(m: Any, s_proc: Any, s_node: Any, msg_size: Any, *,
                   phase: str = "inter-node",
                   check: CheckMode = CheckMode.EXACT_RANK,
                   node_count: Any = None,
                   tier: Optional[int] = None,
                   nics_used: Optional[int] = None,
                   pre_posted: bool = False,
                   label: str = "off-node") -> HopStage:
    """Eq. (4.3): staged off-node sends under the max-rate model.

    ``m`` messages of ``msg_size`` each from the busiest process
    (``s_proc`` bytes), rate-limited by the busiest node's ``s_node``
    bytes through the NIC.  Tier-aware strategies refine the term with
    ``tier`` (per-tier alpha/beta scales + NIC share), ``nics_used``
    (explicit injection-port count) and ``pre_posted`` (persistent
    channels); all default to the flat pre-hierarchy model.
    """
    hop = Hop(kind=HopKind.CPU_SEND, locality=Locality.OFF_NODE, count=m,
              nbytes=msg_size, serialization=Serialization.MAX_RATE,
              phase=phase, total_bytes=s_proc, node_bytes=s_node,
              node_count=node_count, tier=tier, nics_used=nics_used,
              pre_posted=pre_posted)
    return HopStage(label=label, hops=(hop,), phases=(phase,), check=check)


def device_off_node_stage(m: Any, s_proc: Any, msg_size: Any, *,
                          phase: str = "inter-node",
                          check: CheckMode = CheckMode.EXACT_RANK,
                          tier: Optional[int] = None,
                          pre_posted: bool = False,
                          label: str = "device off-node") -> HopStage:
    """Eq. (4.4): device-aware off-node sends, postal form.

    The GPU injection guard (machines declaring a finite GPU rate)
    lives in the kernel, keyed off the hop's MAX_RATE serialization.
    """
    hop = Hop(kind=HopKind.GPU_SEND, locality=Locality.OFF_NODE, count=m,
              nbytes=msg_size, serialization=Serialization.MAX_RATE,
              phase=phase, total_bytes=s_proc, tier=tier,
              pre_posted=pre_posted)
    return HopStage(label=label, hops=(hop,), phases=(phase,), check=check)


def copy_stage(s_send: Any, s_recv: Any, nproc: int = 1, *,
               label: str = "staging copies") -> HopStage:
    """Eq. (4.5): D2H off the source GPU plus H2D onto the destination.

    Two MEMCPY hops in one stage (their sum is the single ``T_copy``
    term).  Copies do not appear in the message trace, so the stage is
    skipped by the DES cross-check.
    """
    hops = (
        Hop(kind=HopKind.MEMCPY, direction=CopyDirection.D2H, count=1,
            nbytes=s_send, nproc=nproc, phase="copy"),
        Hop(kind=HopKind.MEMCPY, direction=CopyDirection.H2D, count=1,
            nbytes=s_recv, nproc=nproc, phase="copy"),
    )
    return HopStage(label=label, hops=hops, phases=(), check=CheckMode.SKIP)


def as_setup(stage: HopStage, amortize_over: float, *,
             label: Optional[str] = None) -> HopStage:
    """Re-cast a transfer stage as its one-time SETUP counterpart.

    Persistent neighborhood collectives pay one full-price exchange up
    front (buffer registration + the rendezvous handshakes that later
    pre-posted rounds skip); amortized over the persistence window of
    ``amortize_over`` exchanges, that cost is this stage.  The returned
    stage drops its tracer lanes and check (setup traffic is not part
    of the steady-state message trace) and clears ``pre_posted`` on
    every hop — setup itself runs at transient-protocol price.
    """
    hops = tuple(
        dataclasses.replace(hop, pre_posted=False) if hop.pre_posted else hop
        for hop in stage.hops)
    return dataclasses.replace(
        stage, label=label if label is not None else f"{stage.label} setup",
        hops=hops, phases=(), check=CheckMode.SKIP,
        kind=StageKind.SETUP, amortize_over=amortize_over)
