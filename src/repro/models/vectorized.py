"""NumPy-vectorized counterparts of the eq. (4.1)-(4.5) model terms.

The Figure-4.3 sweeps and the regime maps evaluate every strategy model
over hundreds of message sizes; doing that one scalar
:class:`~repro.models.pattern_summary.PatternSummary` at a time spends
most of its wall clock in Python call overhead.  This module provides

* :class:`SummaryBatch` — a struct-of-arrays view of many summaries
  whose byte quantities vary along one axis (typically a size sweep),
* ``*_vec`` versions of every sub-model term operating on arrays.

Since the hop-plan refactor each ``*_vec`` helper builds the *same*
canonical stage as its scalar twin in :mod:`repro.models.submodels`
and evaluates it through the shared kernel with the array algebra
(:data:`repro.paths.kernel.ARRAY_OPS`); protocol selection over a size
axis lives in :meth:`repro.machine.params.CommParams.link_arrays`.

Bit-exactness contract: the kernel applies the *same* floating-point
operations in the *same* order for both algebras, with branches
replaced by ``np.where`` chains whose branch order mirrors the scalar
``if`` chains.  ``StrategyModel.time_sweep`` therefore returns
values bit-identical to point-wise ``StrategyModel.time`` calls (pinned
by ``tests/models/test_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.machine.locality import TransportKind
from repro.machine.topology import MachineSpec
from repro.models.pattern_summary import PatternSummary
from repro.paths.compile import (
    copy_stage,
    device_off_node_stage,
    hierarchical_on_node_stage,
    off_node_stage,
    on_node_stage,
    split_on_node_stage,
)
from repro.paths.ir import HopKind
from repro.paths.kernel import ARRAY_OPS, stage_cost


def _hop_kind(kind: TransportKind) -> HopKind:
    return HopKind.GPU_SEND if kind is TransportKind.GPU else HopKind.CPU_SEND


# ---------------------------------------------------------------------------
# Summary batches
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SummaryBatch:
    """Struct-of-arrays over :class:`PatternSummary` fields.

    All arrays share one shape (the sweep axis).  Counts stay integer
    arrays; byte quantities are float64, matching the scalar dataclass.
    """

    num_dest_nodes: np.ndarray
    messages_per_node_pair: np.ndarray
    bytes_per_node_pair: np.ndarray
    node_bytes: np.ndarray
    proc_bytes: np.ndarray
    proc_messages: np.ndarray
    proc_dest_nodes: np.ndarray
    active_gpus: np.ndarray

    @classmethod
    def from_summaries(cls, summaries: Sequence[PatternSummary]) -> "SummaryBatch":
        return cls(
            num_dest_nodes=np.array([s.num_dest_nodes for s in summaries]),
            messages_per_node_pair=np.array(
                [s.messages_per_node_pair for s in summaries]),
            bytes_per_node_pair=np.array(
                [s.bytes_per_node_pair for s in summaries], dtype=float),
            node_bytes=np.array([s.node_bytes for s in summaries], dtype=float),
            proc_bytes=np.array([s.proc_bytes for s in summaries], dtype=float),
            proc_messages=np.array([s.proc_messages for s in summaries]),
            proc_dest_nodes=np.array([s.proc_dest_nodes for s in summaries]),
            active_gpus=np.array([s.active_gpus for s in summaries]),
        )

    @property
    def is_empty(self) -> np.ndarray:
        return (self.num_dest_nodes == 0) | (self.node_bytes == 0)

    def with_duplicate_removal(self, dup_fraction: float) -> "SummaryBatch":
        if not 0.0 <= dup_fraction < 1.0:
            raise ValueError(
                f"dup_fraction must be in [0, 1), got {dup_fraction!r}")
        keep = 1.0 - dup_fraction
        return replace(
            self,
            bytes_per_node_pair=self.bytes_per_node_pair * keep,
            node_bytes=self.node_bytes * keep,
            proc_bytes=self.proc_bytes * keep,
        )


# ---------------------------------------------------------------------------
# Vectorized sub-model terms (eq. 4.1-4.5)
# ---------------------------------------------------------------------------
def t_on_vec(machine: MachineSpec, s: np.ndarray,
             kind: TransportKind = TransportKind.CPU) -> np.ndarray:
    """Vectorized eq. (4.1); see :func:`repro.models.submodels.t_on`."""
    stage = on_node_stage(machine, _hop_kind(kind), s, phases=("gather",))
    return stage_cost(machine, stage, ARRAY_OPS)


def t_on_split_vec(machine: MachineSpec, s_total: np.ndarray, ppg: int,
                   ppn: int = 0,
                   active_gpus: np.ndarray = None) -> np.ndarray:
    """Vectorized eq. (4.2); see :func:`repro.models.submodels.t_on_split`."""
    if active_gpus is None:
        active_gpus = np.ones_like(s_total, dtype=int)
    stage = split_on_node_stage(machine, s_total, ppg, ppn, active_gpus,
                                ARRAY_OPS, phases=("distribute",))
    return stage_cost(machine, stage, ARRAY_OPS)


def t_on_hierarchical_vec(machine: MachineSpec, s: np.ndarray,
                          kind: TransportKind = TransportKind.CPU
                          ) -> np.ndarray:
    """Vectorized hierarchical gather; see
    :func:`repro.models.submodels.t_on_hierarchical`."""
    stage = hierarchical_on_node_stage(machine, _hop_kind(kind), s,
                                       phases=("socket-gather",))
    return stage_cost(machine, stage, ARRAY_OPS)


def t_off_vec(machine: MachineSpec, m: np.ndarray, s_proc: np.ndarray,
              s_node: np.ndarray, msg_size: np.ndarray) -> np.ndarray:
    """Vectorized eq. (4.3); see :func:`repro.models.submodels.t_off`."""
    stage = off_node_stage(m, s_proc, s_node, msg_size)
    return stage_cost(machine, stage, ARRAY_OPS)


def t_off_device_aware_vec(machine: MachineSpec, m: np.ndarray,
                           s_proc: np.ndarray,
                           msg_size: np.ndarray) -> np.ndarray:
    """Vectorized eq. (4.4); see
    :func:`repro.models.submodels.t_off_device_aware`."""
    stage = device_off_node_stage(m, s_proc, msg_size)
    return stage_cost(machine, stage, ARRAY_OPS)


def t_copy_vec(machine: MachineSpec, s_send: np.ndarray, s_recv: np.ndarray,
               nproc: int = 1) -> np.ndarray:
    """Vectorized eq. (4.5); see :func:`repro.models.submodels.t_copy`."""
    stage = copy_stage(s_send, s_recv, nproc=nproc)
    return stage_cost(machine, stage, ARRAY_OPS)
