"""Matrix reordering: shrinking the communication pattern itself.

Node-aware strategies reduce the *cost* of a given pattern; reordering
(here reverse Cuthill-McKee) reduces the *pattern*: clustering the
matrix's bandwidth concentrates halo columns into few neighbouring
partitions, cutting destination-node counts and inter-node volume.
This module provides the workflow and the before/after comparison —
complementary to (and composable with) strategy choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.base import CommunicationStrategy, run_exchange
from repro.machine.topology import JobLayout
from repro.mpi.job import SimJob
from repro.sparse.distributed import DistributedCSR

if TYPE_CHECKING:  # matrices are built lazily: see the functions
    import scipy.sparse as sp


def rcm_reorder(matrix: sp.spmatrix) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric reverse-Cuthill-McKee permutation of a square matrix.

    Returns ``(P A P^T, perm)`` where ``perm`` maps new index -> old
    index.  The permutation is computed on the symmetrized pattern so
    unsymmetric inputs are handled.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    pattern = matrix + matrix.T
    perm = reverse_cuthill_mckee(pattern.tocsr(), symmetric_mode=True)
    perm = np.asarray(perm)
    reordered = matrix[perm][:, perm].tocsr()
    return reordered, perm


def bandwidth(matrix: sp.spmatrix) -> int:
    """Maximum |row - col| over the nonzero pattern."""
    import scipy.sparse as sp

    coo = sp.coo_matrix(matrix)
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


@dataclass
class ReorderReport:
    """Before/after comparison of an RCM reordering."""

    bandwidth_before: int
    bandwidth_after: int
    off_node_bytes_before: int
    off_node_bytes_after: int
    recv_nodes_before: int
    recv_nodes_after: int
    comm_time_before: float
    comm_time_after: float
    strategy: str

    @property
    def comm_speedup(self) -> float:
        if self.comm_time_after == 0:
            return 1.0
        return self.comm_time_before / self.comm_time_after

    @property
    def volume_reduction(self) -> float:
        if self.off_node_bytes_before == 0:
            return 1.0
        return self.off_node_bytes_after / self.off_node_bytes_before


def compare_reordering(job: SimJob, matrix: sp.spmatrix, num_gpus: int,
                       strategy: CommunicationStrategy) -> ReorderReport:
    """Quantify what RCM buys for one (matrix, strategy) combination."""
    reordered, _perm = rcm_reorder(matrix)
    out = {}
    for key, m in (("before", matrix), ("after", reordered)):
        dist = DistributedCSR(m, num_gpus)
        pattern = dist.comm_pattern()
        summary = pattern.summarize(job.layout)
        stats = pattern.stats(job.layout)
        result = run_exchange(job, strategy, pattern)
        out[key] = (bandwidth(m), stats.off_node_bytes,
                    summary.num_dest_nodes, result.comm_time)
    return ReorderReport(
        bandwidth_before=out["before"][0],
        bandwidth_after=out["after"][0],
        off_node_bytes_before=out["before"][1],
        off_node_bytes_after=out["after"][1],
        recv_nodes_before=out["before"][2],
        recv_nodes_after=out["after"][2],
        comm_time_before=out["before"][3],
        comm_time_after=out["after"][3],
        strategy=strategy.label,
    )
