"""Composable model terms: paper equations (4.1)–(4.5).

All terms are functions of a :class:`~repro.machine.topology.MachineSpec`
so the same formulas evaluate on any architecture (the paper notes the
models "extend to any machine with two sockets per node"; the single-
socket case degenerates naturally since ``gps == gpn`` and the on-node
term count goes to zero).

Protocol selection: each term picks the (alpha, beta) row of Table 2 by
the size of the *individual message* it describes, mirroring how the MPI
library would switch protocols.

Since the hop-plan refactor these functions are thin wrappers: each
validates its inputs, builds the canonical hop stage from
:mod:`repro.paths.compile`, and evaluates it through the shared scalar
costing kernel — the identical stages and kernel also serve the
batched sweeps and the strategy models, so no cost arithmetic is
duplicated here.
"""

from __future__ import annotations

from repro.machine.locality import TransportKind
from repro.machine.topology import MachineSpec
from repro.paths.compile import (
    copy_stage,
    device_off_node_stage,
    hierarchical_on_node_stage,
    off_node_stage,
    on_node_stage,
    split_on_node_stage,
)
from repro.paths.ir import HopKind
from repro.paths.kernel import SCALAR_OPS, stage_cost


def _hop_kind(kind: TransportKind) -> HopKind:
    return HopKind.GPU_SEND if kind is TransportKind.GPU else HopKind.CPU_SEND


def t_on(machine: MachineSpec, s: float,
         kind: TransportKind = TransportKind.CPU) -> float:
    """Worst-case on-node gather/redistribution time — eq. (4.1).

    ``T_on(s) = (gps - 1) (a_os + b_os s) + gps (a_on + b_on s)``

    where ``gps`` is GPUs per socket and ``s`` the maximum message size
    sent by any single GPU.  ``kind`` selects CPU rows (staged variants
    gather between host processes) or GPU rows (device-aware variants
    gather between devices).
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s!r}")
    stage = on_node_stage(machine, _hop_kind(kind), s, phases=("gather",))
    return stage_cost(machine, stage, SCALAR_OPS)


def t_on_split(machine: MachineSpec, s_total: float, ppg: int,
               ppn: int = 0, active_gpus: int = 1) -> float:
    """On-node distribution time for the Split strategies — eq. (4.2).

    ``T_on_split(s, ppg) = (pps/ppg - 1)(a_os + b_os s_msg)
                         + (pps/ppg)(a_on + b_on s_msg)``

    The paper's worst case (``active_gpus = 1``): a single GPU holds all
    ``s_total`` bytes to be sent off-node, split evenly across all
    ``ppn`` on-node processes, so each distribution message carries
    ``s_msg = s_total / ppn`` bytes.  With ``ppg`` host processes per
    GPU (duplicate device pointers) each copying process serves
    ``pps / ppg`` receivers — ``ppg = 1`` recovers the paper's Lassen
    count of 19 on-socket + 20 on-node messages.

    ``active_gpus > 1`` generalizes to workloads whose off-node data is
    spread over several GPUs (the Figure-4.3 scenarios distribute
    messages evenly): distributors then occupy several sockets, the
    fan-out per distributor shrinks, and distribution messages stay
    on-socket whenever every socket hosts a distributor.  Split is
    staged-only, so CPU rows apply throughout.
    """
    if s_total < 0:
        raise ValueError(f"s_total must be >= 0, got {s_total!r}")
    if active_gpus < 1:
        raise ValueError(f"active_gpus must be >= 1, got {active_gpus!r}")
    stage = split_on_node_stage(machine, s_total, ppg, ppn, active_gpus,
                                SCALAR_OPS, phases=("distribute",))
    return stage_cost(machine, stage, SCALAR_OPS)


def t_on_hierarchical(machine: MachineSpec, s: float,
                      kind: TransportKind = TransportKind.CPU) -> float:
    """On-node gather cost for the hierarchical 3-Step extension.

    Socket phase: ``(gps - 1)`` on-socket messages of size ``s`` reach
    the socket leader; node phase: ``(sockets - 1)`` cross-socket
    messages of the socket-combined size ``gps * s`` reach the paired
    sender.  Versus eq. (4.1) this trades ``gps`` cross-socket latencies
    for ``sockets - 1`` — a win in the latency-bound regime, a wash in
    bytes (hence the bandwidth-bound crossover the benchmarks show).
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s!r}")
    stage = hierarchical_on_node_stage(machine, _hop_kind(kind), s,
                                       phases=("socket-gather",))
    return stage_cost(machine, stage, SCALAR_OPS)


def t_off(machine: MachineSpec, m: int, s_proc: float, s_node: float,
          msg_size: float = -1.0) -> float:
    """Off-node (staged-through-host) time — eq. (4.3), max-rate form.

    ``T_off(m, s) = a_off m + max(s_node / R_N, s_proc * b_off)``

    Parameters
    ----------
    m:
        Messages sent off-node by the busiest process.
    s_proc:
        Bytes sent off-node by the busiest process.
    s_node:
        Bytes injected into the network by the busiest node.
    msg_size:
        Size of an individual message for protocol selection
        (default: ``s_proc / max(m, 1)``).
    """
    if m < 0 or s_proc < 0 or s_node < 0:
        raise ValueError("m, s_proc, s_node must be >= 0")
    if msg_size < 0:
        msg_size = s_proc / max(m, 1)
    stage = off_node_stage(m, s_proc, s_node, msg_size)
    return stage_cost(machine, stage, SCALAR_OPS)


def t_off_device_aware(machine: MachineSpec, m: int, s_proc: float,
                       msg_size: float = -1.0) -> float:
    """Off-node device-aware time — eq. (4.4), postal form.

    ``T_off_DA(m, s) = a_off m + s * b_off`` using GPU rows; the paper
    excludes a GPU injection limit because four GPUs per node cannot
    saturate Lassen's NIC.  If the machine *does* declare a finite GPU
    injection rate, the max-rate guard is applied for forward
    compatibility.
    """
    if m < 0 or s_proc < 0:
        raise ValueError("m and s_proc must be >= 0")
    if msg_size < 0:
        msg_size = s_proc / max(m, 1)
    stage = device_off_node_stage(m, s_proc, msg_size)
    return stage_cost(machine, stage, SCALAR_OPS)


def t_copy(machine: MachineSpec, s_send: float, s_recv: float,
           nproc: int = 1) -> float:
    """Host<->device staging cost — eq. (4.5).

    ``T_copy = a_D2H + b_D2H s_send + a_H2D + b_H2D s_recv``

    ``s_send`` is copied off the source GPU (D2H) and ``s_recv`` onto the
    destination GPU (H2D).  ``nproc > 1`` selects the duplicate-device-
    pointer rows of Table 3, which are fits against the *total* volume
    moved by the concurrent copies (contention folded into beta).
    """
    if s_send < 0 or s_recv < 0:
        raise ValueError("s_send and s_recv must be >= 0")
    stage = copy_stage(s_send, s_recv, nproc=nproc)
    return stage_cost(machine, stage, SCALAR_OPS)
