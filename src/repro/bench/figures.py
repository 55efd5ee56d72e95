"""Regeneration of the paper's figures (2.5, 2.6, 3.1, 4.3).

Every function returns the figure's data series; ``render_series``
prints them in a gnuplot-ready ASCII layout.  "Measured" always means
DES virtual time (max per-rank communication time, the paper's
statistic); "modelled" means the Table-6 analytic models.  Figures 4.2
and 5.1 are views of :func:`repro.sparse.suite.suite_sweep`'s panels,
which carry both.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.benchpress.memcpy import memcpy_sweep
from repro.benchpress.nodepong import nodepong_sweep
from repro.benchpress.pingpong import pingpong_sweep
from repro.machine.locality import CopyDirection, Locality, TransportKind
from repro.machine.topology import MachineSpec
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    sweep_scenarios,
)
from repro.mpi.job import SimJob
from repro.par.cache import ResultCache


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
