"""Distributed CSR matrices with the on-GPU / off-GPU split.

:class:`DistributedCSR` mirrors the paper's Figure-2.8 layout: each GPU
holds a contiguous block of rows, split column-wise into the *on-GPU*
(diagonal) block — multiplying the locally-owned piece of ``v`` — and
the *off-GPU* block, whose columns name the remote ``v`` entries that
must be communicated.  The induced irregular point-to-point pattern is
exactly what the communication strategies exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.pattern import CommPattern
from repro.sparse.partition import RowPartition

if TYPE_CHECKING:  # matrices are built lazily: see the functions
    import scipy.sparse as sp


class DistributedCSR:
    """A CSR matrix row-partitioned across ``num_gpus`` owners.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix (square, ``n x n``); converted to CSR.
    num_gpus:
        Number of row blocks / data owners.
    """

    def __init__(self, matrix: sp.spmatrix, num_gpus: int) -> None:
        import scipy.sparse as sp

        matrix = sp.csr_matrix(matrix)
        n_rows, n_cols = matrix.shape
        if n_rows != n_cols:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        self.n = n_rows
        self.num_gpus = num_gpus
        self.partition = RowPartition(self.n, num_gpus)
        self._diag_blocks: List[sp.csr_matrix] = []
        self._offd_blocks: List[sp.csr_matrix] = []
        #: per dest GPU: {src_gpu: global column indices needed}
        self._needed: List[Dict[int, np.ndarray]] = []
        self._split_blocks()

    def _split_blocks(self) -> None:
        for gpu in range(self.num_gpus):
            r0, r1 = self.partition.range_of(gpu)
            rows = self.matrix[r0:r1]
            c0, c1 = r0, r1  # square row-wise partition => same col range
            cols = rows.indices
            on_mask_cols = (cols >= c0) & (cols < c1)
            diag = rows.copy()
            offd = rows.copy()
            diag.data = np.where(on_mask_cols, rows.data, 0.0)
            offd.data = np.where(on_mask_cols, 0.0, rows.data)
            diag.eliminate_zeros()
            offd.eliminate_zeros()
            self._diag_blocks.append(diag[:, c0:c1].tocsr())
            self._offd_blocks.append(offd.tocsr())
            needed_global = np.unique(offd.indices) if offd.nnz else np.empty(
                0, dtype=np.int64)
            owners = self.partition.owners_of(needed_global)
            needed: Dict[int, np.ndarray] = {}
            for src in np.unique(owners):
                needed[int(src)] = needed_global[owners == src]
            self._needed.append(needed)

    # -- structure queries ----------------------------------------------------
    def diag_block(self, gpu: int) -> sp.csr_matrix:
        """On-GPU (diagonal) block of one owner's rows."""
        return self._diag_blocks[gpu]

    def offd_block(self, gpu: int) -> sp.csr_matrix:
        """Off-GPU block (global column indexing) of one owner's rows."""
        return self._offd_blocks[gpu]

    def needed_columns(self, gpu: int) -> Dict[int, np.ndarray]:
        """``{src_gpu: global column indices}`` this GPU must receive."""
        return {src: idx.copy() for src, idx in self._needed[gpu].items()}

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def density(self) -> float:
        return self.nnz / float(self.n * self.n) if self.n else 0.0

    # -- communication pattern ----------------------------------------------------
    def comm_pattern(self, itemsize: int = 8) -> CommPattern:
        """The SpMV halo exchange as a :class:`CommPattern`.

        ``sends[src][dest]`` holds *source-local* indices into the
        source GPU's ``v`` block — precisely the entries the destination
        needs for its off-GPU block rows.
        """
        sends: Dict[int, Dict[int, np.ndarray]] = {}
        for dest in range(self.num_gpus):
            for src, global_cols in self._needed[dest].items():
                local = self.partition.to_local(src, global_cols)
                sends.setdefault(src, {})[dest] = local
        return CommPattern(self.num_gpus, sends, itemsize=itemsize)

    def local_vectors(self, v: np.ndarray) -> List[np.ndarray]:
        """Split a global ``v`` into per-GPU blocks."""
        return [np.ascontiguousarray(b) for b in self.partition.split_vector(v)]

    # -- compute ------------------------------------------------------------------
    def local_spmv(self, gpu: int, v_local: np.ndarray,
                   ghost: Dict[int, np.ndarray]) -> np.ndarray:
        """One owner's rows of ``A @ v`` given its halo values.

        ``ghost[src_gpu]`` must hold the values of the needed columns of
        ``src_gpu`` in the order of :meth:`needed_columns`.
        """
        r0, r1 = self.partition.range_of(gpu)
        if len(v_local) != r1 - r0:
            raise ValueError(
                f"v_local has {len(v_local)} entries, expected {r1 - r0}"
            )
        w = self._diag_blocks[gpu] @ v_local
        offd = self._offd_blocks[gpu]
        if offd.nnz:
            v_full = np.zeros(self.n)
            for src, global_cols in self._needed[gpu].items():
                vals = ghost.get(src)
                if vals is None or len(vals) != len(global_cols):
                    raise ValueError(
                        f"gpu {gpu}: bad ghost data from gpu {src}"
                    )
                v_full[global_cols] = vals
            w = w + offd @ v_full
        return w

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DistributedCSR(n={self.n}, nnz={self.nnz}, "
                f"gpus={self.num_gpus})")
