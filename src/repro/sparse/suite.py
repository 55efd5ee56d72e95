"""Reduced-scale analogs of the paper's SuiteSparse test matrices.

Figure 5.1 benchmarks six large SuiteSparse matrices.  The collection
cannot be shipped offline, so each entry here is a *structural analog*:
a generated matrix of ~1/20 the paper's dimension whose row partition
induces the same communication-pattern class (see DESIGN.md's
substitution table).  Paper-side metadata is retained for reporting.

=============  ==========  ==========  ==================================
name           paper rows  paper nnz   structure class
=============  ==========  ==========  ==================================
audikw_1          943,695   77.65 M    3-D FEM + dense arrow rows
Serena          1,391,349   64.13 M    wide-band gas-reservoir FEM
ldoor             952,203   42.49 M    narrow-band structural shell
thermal2        1,228,045    8.58 M    low-degree thermal FEM (many
                                       small messages)
bone010           986,703   47.85 M    micro-FE, moderate band
Geo_1438        1,437,960   60.24 M    wide-band geomechanical FEM
=============  ==========  ==========  ==================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict

from repro.sparse.generators import arrowhead_fem, banded_fem, stencil5

if TYPE_CHECKING:  # matrices are built lazily: see the functions
    import scipy.sparse as sp


@dataclass(frozen=True)
class SuiteMatrix:
    """Metadata + builder for one test matrix analog."""

    name: str
    paper_rows: int
    paper_nnz: int
    description: str
    default_n: int
    builder: Callable[[int], sp.csr_matrix]

    def build(self, n: int = 0) -> sp.csr_matrix:
        """Construct the analog at ``n`` rows (0 = default scale)."""
        n = n or self.default_n
        if n < 64:
            raise ValueError(f"{self.name}: n={n} too small to be meaningful")
        return self.builder(n)


def _audikw(n: int) -> sp.csr_matrix:
    # Dense arrow over the first block + moderately wide band: every
    # partition needs the arrow owner's entries (heavy duplicate data —
    # each node's GPUs all want the same block) and its band
    # neighbours' halos -> high on-node AND inter-node message counts.
    return arrowhead_fem(n, bandwidth=max(8, n // 16), nnz_per_row=40,
                         arrow_width=max(32, n // 40), seed=11)


def _with_long_range(base: sp.csr_matrix, n: int, extra: int,
                     seed: int) -> sp.csr_matrix:
    """Add symmetric random long-range couplings (multi-body contacts,
    constraint equations) so partitions at scale talk to many nodes."""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=extra)
    cols = rng.integers(0, n, size=extra)
    coupling = sp.coo_matrix((np.ones(extra), (rows, cols)), shape=(n, n))
    out = (base + coupling + coupling.T).tocsr()
    out.sum_duplicates()
    out.data[:] = np.arange(1, out.nnz + 1, dtype=np.float64) % 97 + 1.0
    return out


def _serena(n: int) -> sp.csr_matrix:
    # Wide-band FEM with sparse far couplings (faults/wells in the
    # reservoir couple distant regions) -> moderate volumes, many nodes.
    base = banded_fem(n, bandwidth=max(8, n // 16), nnz_per_row=20, seed=23)
    return _with_long_range(base, n, extra=n // 6, seed=24)


def _ldoor(n: int) -> sp.csr_matrix:
    # Narrow band, high local density, plus shell-contact couplings:
    # many small messages to many nodes (node-aware territory).
    base = banded_fem(n, bandwidth=max(4, n // 96), nnz_per_row=20, seed=31)
    return _with_long_range(base, n, extra=n // 4, seed=32)


def _thermal2(n: int) -> sp.csr_matrix:
    # Low-degree unstructured diffusion: a 2-D stencil plus sparse random
    # long-range couplings -> many distinct small messages, the paper's
    # high-inter-node-message-volume case.
    import numpy as np
    import scipy.sparse as sp

    side = max(8, int(round(n ** 0.5)))
    a = stencil5(side, side).tocoo()
    m = side * side
    rng = np.random.default_rng(47)
    extra = m // 12
    rows = rng.integers(0, m, size=extra)
    cols = rng.integers(0, m, size=extra)
    long_range = sp.coo_matrix((np.ones(extra), (rows, cols)), shape=(m, m))
    out = (a + long_range + long_range.T).tocsr()
    out.data[:] = 1.0
    out.setdiag(4.0)
    return out.tocsr()


def _bone010(n: int) -> sp.csr_matrix:
    return banded_fem(n, bandwidth=max(6, n // 48), nnz_per_row=24, seed=59)


def _geo1438(n: int) -> sp.csr_matrix:
    return banded_fem(n, bandwidth=max(10, n // 12), nnz_per_row=18, seed=67)


SUITE: Dict[str, SuiteMatrix] = {
    "audikw_1": SuiteMatrix(
        "audikw_1", 943_695, 77_651_847,
        "3-D FEM with dense arrow rows (model-validation matrix)",
        48_000, _audikw),
    "Serena": SuiteMatrix(
        "Serena", 1_391_349, 64_131_971,
        "wide-band gas-reservoir FEM", 64_000, _serena),
    "ldoor": SuiteMatrix(
        "ldoor", 952_203, 42_493_817,
        "narrow-band structural shell", 48_000, _ldoor),
    "thermal2": SuiteMatrix(
        "thermal2", 1_228_045, 8_580_313,
        "low-degree thermal FEM, many small messages", 57_600, _thermal2),
    "bone010": SuiteMatrix(
        "bone010", 986_703, 47_851_783,
        "micro-FE bone model, moderate band", 48_000, _bone010),
    "Geo_1438": SuiteMatrix(
        "Geo_1438", 1_437_960, 60_236_322,
        "wide-band geomechanical FEM", 64_000, _geo1438),
}


def build_suite_matrix(name: str, n: int = 0) -> sp.csr_matrix:
    """Build one analog by name (0 = default reduced scale)."""
    try:
        entry = SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown suite matrix {name!r}; available: {sorted(SUITE)}"
        ) from None
    return entry.build(n)


# ---------------------------------------------------------------------------
# Parallel suite sweep (the Figure 4.2 / 5.1 measurement loop)
# ---------------------------------------------------------------------------
def matrix_fingerprint(matrix: sp.csr_matrix) -> str:
    """Stable content hash of a CSR matrix (for sweep cache keys)."""
    from repro.par.cache import stable_fingerprint

    csr = matrix.tocsr()
    return stable_fingerprint({
        "shape": tuple(int(s) for s in csr.shape),
        "data": csr.data,
        "indices": csr.indices,
        "indptr": csr.indptr,
    })


def measure_matrix_panel(spec) -> Dict[str, object]:
    """One Figure-5.1 panel: every strategy at every GPU count, measured
    on the DES and modelled by Table 6 — the one model-vs-DES record.

    ``spec = (machine, matrix, gpu_counts, ppn, noise_sigma, seed)`` —
    module-level and picklable so panels fan out over a process pool.
    The matrix is built once in the parent and shipped to the worker;
    per-GPU-count partitioning and DES runs happen here.  Returns
    ``{"gpus", "series", "model", "meta"}``: ``series`` and ``model``
    map each paper-strategy label to one time per GPU count (DES
    virtual seconds and :func:`~repro.core.selector.predict_times`
    respectively).  Figure 5.1 renders ``series``; Figure 4.2 is the
    audikw_1 panel's ``series`` beside its ``model``.
    """
    from typing import List as _List

    from repro.core.base import default_data, run_exchange
    from repro.core.selector import all_strategies, predict_times
    from repro.mpi.job import SimJob
    from repro.sparse.distributed import DistributedCSR

    machine, matrix, gpu_counts, ppn, noise_sigma, seed = spec
    gpn = machine.gpus_per_node
    series: Dict[str, _List[float]] = {
        s.label: [] for s in all_strategies(include_extended=False)
    }
    model: Dict[str, _List[float]] = {label: [] for label in series}
    meta: Dict[int, Dict] = {}
    for gpus in gpu_counts:
        nodes = -(-gpus // gpn)  # ceil: the last node may be part-filled
        if nodes < 2:
            raise ValueError(f"gpu count {gpus} gives < 2 nodes")
        job = SimJob(machine, num_nodes=nodes, ppn=ppn,
                     noise_sigma=noise_sigma, seed=seed)
        dist = DistributedCSR(matrix, num_gpus=gpus)
        pattern = dist.comm_pattern()
        summary = pattern.summarize(job.layout)
        pair = pattern.node_pair_traffic(job.layout)
        meta[gpus] = {
            "recv_nodes": summary.num_dest_nodes,
            "inter_node_bytes": sum(b for _m, b in pair.values()),
            "inter_node_msgs": sum(m for m, _b in pair.values()),
        }
        data = default_data(pattern, job.layout)
        for strategy in all_strategies(include_extended=False):
            res = run_exchange(job, strategy, pattern, data=data)
            series[strategy.label].append(res.comm_time)
        predicted = predict_times(pattern, job.layout, ppn=ppn)
        for label, times in model.items():
            times.append(predicted[label])
    return {"gpus": list(gpu_counts), "series": series, "model": model,
            "meta": meta}


def suite_sweep(machine, matrices=None, gpu_counts=(8, 16, 32, 64),
                matrix_n: int = 0, ppn: int = 0, noise_sigma: float = 0.0,
                seed: int = 0, jobs=None, cache=None, policy=None,
                journal_dir=None, resume: bool = False) -> Dict[str, Dict]:
    """Measured and modelled strategy times per suite matrix, one
    :func:`measure_matrix_panel` panel per matrix.

    The measurement loop behind Figures 4.2 and 5.1 — each matrix is
    one shard (built once in the parent, measured across all GPU counts
    in a worker), fanned out by :func:`repro.par.sweep_map` and gathered
    in suite order, so results are bit-identical at any ``jobs`` value.
    For Figure 4.2 at another scale, sweep ``matrices=["audikw_1"]``.
    ``cache`` keys panels by matrix content + machine + sweep shape.
    ``policy``/``journal_dir``/``resume`` set the sweep's failure policy
    and checkpoint journal (see :func:`repro.par.sweep_map`).
    """
    from repro.par.cache import cache_key
    from repro.par.executor import sweep_map

    if matrices is None:
        matrices = list(SUITE)
    ppn = ppn or machine.max_ppn
    built = [(name, SUITE[name].build(matrix_n)) for name in matrices]
    tasks = [(machine, matrix, tuple(gpu_counts), ppn, noise_sigma, seed)
             for _name, matrix in built]

    def key_fn(spec):
        m, matrix, counts, p, sigma, s = spec
        return cache_key("suite-panel", machine=m,
                         matrix=matrix_fingerprint(matrix),
                         gpu_counts=counts, ppn=p, noise_sigma=sigma,
                         seed=s)

    panels = sweep_map(measure_matrix_panel, tasks, jobs=jobs, cache=cache,
                       key_fn=key_fn if cache is not None else None,
                       policy=policy, journal_dir=journal_dir, resume=resume)
    return {name: panel
            for (name, _matrix), panel in zip(built, panels)}
