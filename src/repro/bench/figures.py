"""Regeneration of the paper's figures (2.5, 2.6, 3.1, 4.2, 4.3, 5.1).

Every function returns the figure's data series; ``render_series``
prints them in a gnuplot-ready ASCII layout.  "Measured" always means
DES virtual time (max per-rank communication time, the paper's
statistic); "modelled" means the Table-6 analytic models.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.benchpress.memcpy import memcpy_sweep
from repro.benchpress.nodepong import nodepong_sweep
from repro.benchpress.pingpong import pingpong_sweep
from repro.core.base import run_exchange
from repro.core.selector import all_strategies
from repro.machine.locality import CopyDirection, Locality, TransportKind
from repro.machine.topology import MachineSpec
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    sweep_scenarios,
)
from repro.models.strategies import all_strategy_models, model_label
from repro.mpi.job import SimJob
from repro.par.cache import ResultCache, cache_key
from repro.par.executor import sweep_map
from repro.sparse.distributed import DistributedCSR
from repro.sparse.suite import SUITE, matrix_fingerprint, suite_sweep


# ---------------------------------------------------------------------------
# Figure 2.5 — ping-pong time by locality
# ---------------------------------------------------------------------------
def fig2_5_data(machine: MachineSpec,
                sizes: Optional[Sequence[int]] = None,
                noise_sigma: float = 0.0, seed: int = 0
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """CPU ping-pong times per locality over a size sweep."""
    if sizes is None:
        sizes = [1 << k for k in range(0, 21, 2)]
    job = SimJob(machine, num_nodes=2, ppn=machine.max_ppn,
                 noise_sigma=noise_sigma, seed=seed)
    out = {
        str(loc): pingpong_sweep(job, loc, sizes, kind=TransportKind.CPU)
        for loc in (Locality.ON_SOCKET, Locality.ON_NODE, Locality.OFF_NODE)
    }
    return np.asarray(sizes), out


# ---------------------------------------------------------------------------
# Figure 2.6 — node-pong split across ppn processes
# ---------------------------------------------------------------------------
def fig2_6_data(machine: MachineSpec,
                sizes: Optional[Sequence[int]] = None,
                ppn_values: Optional[Sequence[int]] = None
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Node-to-node transfer time when splitting over ppn processes."""
    if sizes is None:
        sizes = [1 << k for k in range(10, 25, 2)]
    if ppn_values is None:
        ppn_values = [1, 2, 4, 8, 16, 32, machine.max_ppn]
    job = SimJob(machine, num_nodes=2, ppn=machine.max_ppn)
    sweep = nodepong_sweep(job, sizes, ppn_values)
    return np.asarray(sizes), {f"ppn={p}": t for p, t in sweep.items()}


# ---------------------------------------------------------------------------
# Figure 3.1 — memcpy split across NP processes
# ---------------------------------------------------------------------------
def fig3_1_data(machine: MachineSpec,
                sizes: Optional[Sequence[int]] = None,
                nproc_values: Sequence[int] = (1, 2, 4, 8)
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """H2D and D2H copy times per concurrent-process count."""
    if sizes is None:
        sizes = [1 << k for k in range(10, 25, 2)]
    job = SimJob(machine, num_nodes=1, ppn=machine.max_ppn)
    out: Dict[str, np.ndarray] = {}
    for direction in (CopyDirection.H2D, CopyDirection.D2H):
        sweep = memcpy_sweep(job, direction, sizes, nproc_values)
        for np_, times in sweep.items():
            out[f"{direction} NP={np_}"] = times
    return np.asarray(sizes), out


# ---------------------------------------------------------------------------
# Figure 4.3 — modelled scenarios
# ---------------------------------------------------------------------------
def fig4_3_data(machine: MachineSpec,
                sizes: Optional[Sequence[float]] = None,
                scenarios: Sequence[Scenario] = PAPER_SCENARIOS,
                dup_fractions: Sequence[float] = (0.0, 0.25),
                jobs: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                policy=None, journal_dir=None, resume: bool = False
                ) -> Dict[str, Tuple[np.ndarray, Dict[str, np.ndarray]]]:
    """Modelled strategy times per scenario panel (incl. dup variants).

    One shard per (scenario, dup) panel via
    :func:`~repro.models.scenarios.sweep_scenarios`: bit-identical at
    any ``jobs`` value, and a warm ``cache`` skips every panel whose
    inputs are unchanged (zero model evaluations).
    ``policy``/``journal_dir``/``resume`` set the sweep's failure policy
    and checkpoint journal (see :func:`repro.par.sweep_map`).
    """
    from dataclasses import replace

    if sizes is None:
        sizes = np.logspace(1, 5.5, 19)
    sizes = np.asarray(sizes, dtype=np.float64)
    panel_scenarios = [replace(base, dup_fraction=dup)
                       for base in scenarios for dup in dup_fractions]
    swept = sweep_scenarios(machine, panel_scenarios, sizes, jobs=jobs,
                            cache=cache, policy=policy,
                            journal_dir=journal_dir, resume=resume)
    return {sc.label: (sizes, series)
            for sc, series in zip(panel_scenarios, swept)}


# ---------------------------------------------------------------------------
# Figure 4.2 — model validation on the audikw_1 analog
# ---------------------------------------------------------------------------
def _fig4_2_shard(spec) -> Dict:
    """One Figure-4.2 column (all strategies at one GPU count)."""
    machine, matrix, gpus, ppn, noise_sigma, seed = spec
    # ceil: the last node may be part-filled (summit, 6 GPUs per node)
    nodes = -(-gpus // machine.gpus_per_node)
    job = SimJob(machine, num_nodes=nodes, ppn=ppn,
                 noise_sigma=noise_sigma, seed=seed)
    dist = DistributedCSR(matrix, num_gpus=gpus)
    pattern = dist.comm_pattern()
    summary = pattern.summarize(job.layout)
    measured = {}
    for strategy in all_strategies(include_extended=False):
        res = run_exchange(job, strategy, pattern)
        measured[strategy.label] = res.comm_time
    model = {
        model_label(m): m.time(summary)
        for m in all_strategy_models(machine, ppn=ppn,
                                     include_best_case=False)
    }
    return {
        "measured": measured,
        "model": model,
        "meta": {
            "nodes": nodes,
            "recv_nodes": summary.num_dest_nodes,
            "node_bytes": summary.node_bytes,
            "messages": pattern.total_messages,
        },
    }


def fig4_2_data(machine: MachineSpec,
                gpu_counts: Sequence[int] = (8, 16, 32, 64),
                matrix_n: int = 24_000, ppn: int = 0,
                noise_sigma: float = 0.0, seed: int = 0,
                jobs: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                policy=None, journal_dir=None,
                resume: bool = False) -> Dict[int, Dict]:
    """Measured (DES) vs modelled times, audikw analog, per GPU count.

    Returns ``{gpus: {"measured": {label: t}, "model": {label: t},
    "meta": {...}}}``.  One shard per GPU count (the matrix is built
    once and shipped to workers); bit-identical at any ``jobs`` value.
    ``policy``/``journal_dir``/``resume`` set the sweep's failure policy
    and checkpoint journal (see :func:`repro.par.sweep_map`).
    """
    ppn = ppn or machine.max_ppn
    matrix = SUITE["audikw_1"].build(matrix_n)
    tasks = [(machine, matrix, gpus, ppn, noise_sigma, seed)
             for gpus in gpu_counts]
    key_fn = None
    if cache is not None:
        matrix_fp = matrix_fingerprint(matrix)

        def key_fn(spec):
            return cache_key("fig4_2-column", machine=machine,
                             matrix=matrix_fp, gpus=spec[2], ppn=ppn,
                             noise_sigma=noise_sigma, seed=seed)

    columns = sweep_map(_fig4_2_shard, tasks, jobs=jobs, cache=cache,
                        key_fn=key_fn, policy=policy,
                        journal_dir=journal_dir, resume=resume)
    return {gpus: column for gpus, column in zip(gpu_counts, columns)}


# ---------------------------------------------------------------------------
# Figure 5.1 — SpMV communication across the matrix suite
# ---------------------------------------------------------------------------
def fig5_1_data(machine: MachineSpec,
                matrices: Optional[Sequence[str]] = None,
                gpu_counts: Sequence[int] = (8, 16, 32, 64),
                matrix_n: int = 0, ppn: int = 0,
                noise_sigma: float = 0.0, seed: int = 0,
                jobs: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                policy=None, journal_dir=None, resume: bool = False
                ) -> Dict[str, Dict]:
    """Measured strategy times per suite matrix and GPU count.

    Returns ``{matrix: {"gpus": [...], "series": {label: [t...]},
    "meta": {...}}}`` — the content of one Figure-5.1 panel per matrix.
    The measurement loop lives in
    :func:`repro.sparse.suite.suite_sweep`: one shard per matrix,
    fanned out over ``jobs`` workers with bit-identical ordered
    results, and content-hash cached when ``cache`` is given.
    ``policy``/``journal_dir``/``resume`` set the sweep's failure policy
    and checkpoint journal (see :func:`repro.par.sweep_map`).
    """
    return suite_sweep(machine, matrices=matrices, gpu_counts=gpu_counts,
                       matrix_n=matrix_n, ppn=ppn,
                       noise_sigma=noise_sigma, seed=seed, jobs=jobs,
                       cache=cache, policy=policy, journal_dir=journal_dir,
                       resume=resume)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_series(title: str, x_label: str, xs: Sequence,
                  series: Dict[str, Sequence[float]],
                  mark_min: bool = False) -> str:
    """ASCII rendering of one figure panel (rows = x, columns = series)."""
    names = list(series)
    width = max(12, max((len(n) for n in names), default=12) + 2)
    lines = [title, f"{x_label:>12s} " + " ".join(f"{n:>{width}s}"
                                                  for n in names)]
    for i, x in enumerate(xs):
        cells = []
        row = [float(series[n][i]) for n in names]
        best = min(row) if mark_min and row else None
        for val in row:
            mark = "*" if best is not None and val == best else " "
            cells.append(f"{val:>{width - 1}.3e}{mark}")
        xs_str = f"{x:>12.4g}" if isinstance(x, (int, float, np.floating)) \
            else f"{str(x):>12s}"
        lines.append(xs_str + " " + " ".join(cells))
    return "\n".join(lines)
