"""Summary statistics of a standard irregular P2P pattern (Table 7).

All strategy models consume a :class:`PatternSummary` describing the
*standard* (untransformed) communication pattern of the busiest node;
each strategy model then applies its own aggregation / splitting to
derive the Table-7 quantities it needs.  This is how the paper moves
from a concrete workload (e.g. a distributed SpMV) to model inputs.

Attributes mirror Table 7 with the addition of per-process message
counts (needed by the Standard models):

``num_dest_nodes``
    ``m_proc->node`` at node granularity: the number of distinct nodes
    the busiest node sends to.
``messages_per_node_pair``
    ``m_node->node``: max messages between any two nodes.
``bytes_per_node_pair``
    ``s_node->node``: max bytes between any two nodes.
``node_bytes``
    ``s_node``: max bytes injected by a single node.
``proc_bytes``
    ``s_proc``: max bytes sent off-node by a single process/GPU.
``proc_messages``
    max off-node messages sent by a single process/GPU.
``proc_dest_nodes``
    max number of distinct destination nodes for a single process/GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PatternSummary:
    num_dest_nodes: int
    messages_per_node_pair: int
    bytes_per_node_pair: float
    node_bytes: float
    proc_bytes: float
    proc_messages: int
    proc_dest_nodes: int
    #: GPUs on the busiest node contributing off-node data.  1 (the
    #: paper's eq-4.2 worst case, one GPU holds everything) unless the
    #: workload is known to spread data evenly (Figure 4.3 scenarios).
    active_gpus: int = 1

    def __post_init__(self) -> None:
        if self.num_dest_nodes < 0:
            raise ValueError("num_dest_nodes must be >= 0")
        if self.active_gpus < 1:
            raise ValueError("active_gpus must be >= 1")
        if self.messages_per_node_pair < 0 or self.proc_messages < 0:
            raise ValueError("message counts must be >= 0")
        if min(self.bytes_per_node_pair, self.node_bytes, self.proc_bytes) < 0:
            raise ValueError("byte counts must be >= 0")
        if self.proc_dest_nodes > self.num_dest_nodes:
            raise ValueError(
                "a process cannot reach more nodes than its node does"
            )

    @property
    def is_empty(self) -> bool:
        return self.num_dest_nodes == 0 or self.node_bytes == 0

    def with_duplicate_removal(self, dup_fraction: float) -> "PatternSummary":
        """Shrink all byte quantities by ``dup_fraction``.

        Models the node-aware strategies' elimination of duplicate data
        (Figure 4.3 bottom rows use ``dup_fraction = 0.25``); message
        *counts* are unchanged — deduplication removes payload, not
        destinations.
        """
        if not 0.0 <= dup_fraction < 1.0:
            raise ValueError(f"dup_fraction must be in [0, 1), got {dup_fraction!r}")
        keep = 1.0 - dup_fraction
        return replace(
            self,
            bytes_per_node_pair=self.bytes_per_node_pair * keep,
            node_bytes=self.node_bytes * keep,
            proc_bytes=self.proc_bytes * keep,
        )


@dataclass(frozen=True)
class SummaryBatch:
    """Struct-of-arrays over :class:`PatternSummary` fields.

    All arrays share one shape (the sweep axis).  Counts stay integer
    arrays; byte quantities are float64, matching the scalar dataclass.
    The two share field names, so a strategy's ``_stages`` compiles from
    either one.
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
