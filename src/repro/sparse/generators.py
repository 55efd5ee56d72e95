"""Synthetic sparse-matrix generators.

The paper's benchmarks use large SuiteSparse matrices we cannot ship
offline; these generators produce *structural analogs* — matrices whose
row-wise partitions induce the same classes of irregular communication
pattern (banded FEM halos, regular stencil halos, dense arrow rows
coupling everyone to the first block).  All generators are seeded and
deterministic, returning ``scipy.sparse.csr_matrix``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # matrices are built lazily: see the functions
    import scipy.sparse as sp


def _symmetrize(coo: sp.coo_matrix, n: int) -> sp.csr_matrix:
    """Pattern-symmetric CSR with a full diagonal (SPD-like structure)."""
    import scipy.sparse as sp

    a = coo.tocsr()
    a = a + a.T
    a = a + sp.identity(n, format="csr")
    a.sum_duplicates()
    a.data[:] = np.arange(1, a.nnz + 1, dtype=np.float64) % 97 + 1.0
    return a


def banded_fem(n: int, bandwidth: int, nnz_per_row: int,
               seed: int = 0) -> sp.csr_matrix:
    """Banded unstructured-FEM-like matrix.

    Each row couples to ``nnz_per_row`` random columns within
    ``bandwidth`` of the diagonal — the dominant structure of reordered
    3-D FEM stiffness matrices (Serena, Geo_1438, bone010 ...).  The
    result is pattern-symmetric with a full diagonal.
    """
    import scipy.sparse as sp

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if bandwidth < 1 or bandwidth >= n:
        raise ValueError(f"bandwidth must be in [1, n), got {bandwidth}")
    if nnz_per_row < 1:
        raise ValueError(f"nnz_per_row must be >= 1, got {nnz_per_row}")
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), nnz_per_row)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=len(rows))
    cols = np.clip(rows + offsets, 0, n - 1)
    vals = np.ones(len(rows))
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return _symmetrize(coo, n)


def stencil5(nx: int, ny: Optional[int] = None) -> sp.csr_matrix:
    """5-point 2-D Laplacian stencil (thermal-diffusion analog)."""
    import scipy.sparse as sp

    ny = nx if ny is None else ny
    if nx < 1 or ny < 1:
        raise ValueError("grid dims must be >= 1")
    dx = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx))
    dy = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(ny, ny))
    a = sp.kronsum(dx, dy, format="csr")
    return a


def stencil27(nx: int, ny: Optional[int] = None,
              nz: Optional[int] = None) -> sp.csr_matrix:
    """27-point 3-D stencil (structured hexahedral FEM analog)."""
    import scipy.sparse as sp

    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dims must be >= 1")
    one = np.ones(max(nx, ny, nz))

    def band(m: int) -> sp.csr_matrix:
        return sp.diags([one[:m - 1], one[:m], one[:m - 1]], [-1, 0, 1],
                        shape=(m, m), format="csr") if m > 1 else sp.identity(
                            1, format="csr")

    a = sp.kron(sp.kron(band(nz), band(ny)), band(nx), format="csr")
    a = a.astype(np.float64)
    a.setdiag(a.diagonal() + 26.0)
    return a.tocsr()


def arrowhead_fem(n: int, bandwidth: int, nnz_per_row: int,
                  arrow_width: int, seed: int = 0) -> sp.csr_matrix:
    """Banded FEM plus a dense 'arrow': the audikw_1 structure.

    The first ``arrow_width`` rows/columns couple to random rows across
    the whole matrix, reproducing audikw_1's dense top rows and first
    columns that make every partition talk to the owner of the first
    block (high message counts on-node *and* inter-node, paper
    Section 4.5).
    """
    import scipy.sparse as sp

    if not 0 < arrow_width < n:
        raise ValueError(f"arrow_width must be in (0, n), got {arrow_width}")
    base = banded_fem(n, bandwidth, nnz_per_row, seed=seed)
    rng = np.random.default_rng(seed + 1)
    per_row = max(4, arrow_width // 8)
    rows = np.repeat(np.arange(arrow_width), per_row)
    cols = rng.integers(0, n, size=len(rows))
    arrow = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return _symmetrize((base + _symmetrize(arrow, n)).tocoo(), n)


def random_sparse(n: int, density: float, seed: int = 0) -> sp.csr_matrix:
    """Uniformly random pattern (worst-case communication)."""
    import scipy.sparse as sp

    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    nnz = max(1, int(round(density * n * n)))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    coo = sp.coo_matrix((np.ones(nnz), (rows, cols)), shape=(n, n))
    return _symmetrize(coo, n)
