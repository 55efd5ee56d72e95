"""Timed micro-suite over the simulator's hot paths — the CI perf gate.

The workloads cover the layers the optimisation work targets:

``engine``
    Raw DES kernel event throughput: many processes looping on
    zero-cost bookkeeping plus heap-scheduled timeouts, held to an
    absolute events-per-CPU-second floor.
``pingpong``
    The Table-2 refit (:func:`repro.benchpress.pingpong.fit_comm_table`)
    — message costing, protocol selection and the sweep-reuse path.
``spmv``
    One audikw-analog SpMV exchange per rep — the irregular
    many-message pattern the paper validates against (Figure 4.2).
``scenarios``
    The Figure-4.3 scenario grid over all strategy models — the
    batched analytic-model path.
``plan_cost``
    The one plan evaluator under both algebras: every (strategy x
    scenario x size) cell through
    :func:`~repro.models.scenarios.fused_scenario_times` (the array
    walk) and through the point-wise scalar ``StrategyModel.time``
    loop, asserting cell-wise bit-identity and an absolute
    cells-per-CPU-second floor on the array walk.
``atlas_query``
    The precomputed regime-map atlas: every grid point answered through
    :meth:`~repro.atlas.index.AtlasIndex.lookup` vs exact
    :func:`~repro.models.scenarios.best_strategy` evaluation, asserting
    winner-for-winner exact agreement and an absolute lookups/s floor
    (the atlas is built outside the timed region — it is the offline
    artifact).

Each workload reports its wall clock (best and median of ``repeats``)
plus a throughput metric (virtual events/sec, simulated messages/sec or
model evaluations/sec).  The floors and identities are assertions
inside the workloads, so a miss raises and the run exits non-zero;
``perfbench/`` is the benchmark of record for host time.  All
workloads run the simulator with fixed seeds, so the *virtual* results
are deterministic; only the wall clock varies.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: enforced engine floor, absolute events per CPU-second: about a third
#: of the smoke value on the reference box (~650k).  CPU time, because
#: the smoke run lasts ~3 ms and one preemption would otherwise trip it.
MIN_ENGINE_EVENTS_PER_S = 200_000.0

#: enforced array-walk floor, absolute cells per CPU-second: about a
#: third of the smoke value on the reference box (~2.6M).
MIN_ARRAY_CELLS_PER_S = 850_000.0

#: enforced atlas floor, absolute lookups/s: about a third of the smoke
#: value on the reference box (~122k).  Not a ratio over exact
#: ``best_strategy`` — that arm keeps getting faster, which thinned
#: the ratio from ~160 to ~66 without the atlas changing.
MIN_ATLAS_QUERIES_PER_S = 40_000.0


class UnknownWorkloadError(ValueError):
    """``only`` names a workload the suite does not have."""


@dataclass
class WorkloadResult:
    """Timing of one suite workload."""

    name: str
    wall_s: float              # best-of-repeats wall clock [s]
    repeats: int
    wall_median_s: float = 0.0  # median-of-repeats wall clock [s]
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def summary(self) -> str:
        extra = ", ".join(f"{k}={v:,.0f}" for k, v in self.metrics.items())
        return f"{self.name:14s} {self.wall_s * 1e3:9.1f} ms   {extra}"


# ---------------------------------------------------------------------------
# Workloads — each returns {metric name: value} for the report
# ---------------------------------------------------------------------------
def _engine_workload(procs: int, timeouts: int,
                     min_events_per_s: float = MIN_ENGINE_EVENTS_PER_S
                     ) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        from repro.sim.engine import Simulator

        sim = Simulator()

        def worker(delay: float):
            for _ in range(timeouts):
                yield sim.timeout(delay)

        t0 = time.process_time()
        for p in range(procs):
            sim.process(worker(1e-6 * (p + 1)), label=f"w{p}")
        sim.run()
        # one start token per process + one event per timeout
        events = procs * (timeouts + 1)
        rate = events / max(time.process_time() - t0, 1e-9)
        if rate < min_events_per_s:
            raise AssertionError(
                f"engine at {rate:,.0f} events per CPU-second, below the "
                f"{min_events_per_s:,.0f} floor")
        return {"events": events}

    return run


def _pingpong_workload(iterations: int, n_points: int,
                       machine_name: str = "lassen"
                       ) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        from repro.benchpress.pingpong import fit_comm_table
        from repro.machine import resolve_machine
        from repro.mpi.job import SimJob

        machine = resolve_machine(machine_name)
        job = SimJob(machine, num_nodes=2,
                     ppn=min(machine.cores_per_node, 40))
        table = fit_comm_table(job, iterations=iterations, n_points=n_points)
        # each fitted path sweeps <= n_points sizes, one run each,
        # 2 * iterations messages per run
        msgs = sum(1 for _ in table) * n_points * 2 * iterations
        return {"messages": msgs}

    return run


def _spmv_workload(matrix_n: int, reps: int,
                   machine_name: str = "lassen"
                   ) -> Callable[[], Dict[str, float]]:
    from repro.core import strategy_by_name
    from repro.machine import resolve_machine
    from repro.sparse.distributed import DistributedCSR
    from repro.sparse.suite import SUITE

    # Matrix assembly and partitioning are inputs to the simulator, not
    # part of it — build once, outside the timed region.
    machine = resolve_machine(machine_name)
    matrix = SUITE["audikw_1"].build(matrix_n)
    dist = DistributedCSR(matrix, num_gpus=2 * machine.gpus_per_node)
    v = np.random.default_rng(5).standard_normal(dist.n)
    strategy = strategy_by_name("Standard (staged)")

    def run() -> Dict[str, float]:
        from repro.mpi.job import SimJob
        from repro.sparse.spmv import distributed_spmv

        job = SimJob(machine, num_nodes=2,
                     ppn=min(machine.cores_per_node, 40), seed=11)
        msgs = 0
        for _ in range(reps):
            msgs += distributed_spmv(job, dist, strategy, v).messages
        return {"messages": msgs}

    return run


def _scenario_workload(n_sizes: int,
                       dup_fractions: Tuple[float, ...],
                       machine_name: str = "lassen",
                       ) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        from repro.machine import resolve_machine
        from repro.models.scenarios import (
            PAPER_SCENARIOS,
            Scenario,
            sweep_scenarios,
        )

        machine = resolve_machine(machine_name)
        sizes = np.logspace(0, 7, n_sizes)
        scenarios = [Scenario(num_dest_nodes=base.num_dest_nodes,
                              num_messages=base.num_messages,
                              dup_fraction=dup)
                     for base in PAPER_SCENARIOS
                     for dup in dup_fractions]
        swept = sweep_scenarios(machine, scenarios, sizes)
        evals = sum(len(out) * n_sizes for out in swept)
        return {"evals": evals}

    return run


def _plan_cost_workload(n_sizes: int, dup_fractions: Tuple[float, ...],
                        machine_name: str = "lassen",
                        min_cells_per_s: float = MIN_ARRAY_CELLS_PER_S
                        ) -> Callable[[], Dict[str, float]]:
    """The stage walk under both algebras, over the same cells.

    Evaluates the full (strategy x scenario x size) grid once through
    :func:`~repro.models.scenarios.fused_scenario_times` (each model's
    stages walked once with :data:`~repro.paths.kernel.ARRAY_OPS`) and
    once through scalar ``StrategyModel.time`` per cell.  Cell-wise
    bit-identity and a ``min_cells_per_s`` floor on the array walk (per
    CPU-second: the smoke arm lasts about a millisecond) are both hard
    assertions; the scalar arm's rate is reported beside it.
    """

    def run() -> Dict[str, float]:
        from dataclasses import replace

        from repro.machine import resolve_machine
        from repro.models.scenarios import (
            PAPER_SCENARIOS,
            fused_scenario_times,
            scenario_summary,
        )
        from repro.models.strategies import all_strategy_models

        machine = resolve_machine(machine_name)
        sizes = np.logspace(0, 7, n_sizes)
        scenarios = [replace(base, dup_fraction=dup)
                     for base in PAPER_SCENARIOS for dup in dup_fractions]
        models = all_strategy_models(machine)

        t0 = time.process_time()
        _labels, swept = fused_scenario_times(machine, scenarios, sizes,
                                              models)
        t_array = max(time.process_time() - t0, 1e-9)

        t0 = time.process_time()
        scalar = np.empty_like(swept)
        for c, scenario in enumerate(scenarios):
            summaries = [scenario_summary(machine, scenario, float(s))
                         for s in sizes]
            for i, model in enumerate(models):
                scalar[i, c] = [
                    model.time(s, dup_fraction=scenario.dup_fraction)
                    for s in summaries]
        t_scalar = max(time.process_time() - t0, 1e-9)

        if not np.array_equal(swept, scalar):
            bad = int(np.count_nonzero(swept != scalar))
            raise AssertionError(
                f"array walk diverged from scalar costing in {bad} of "
                f"{swept.size} cells")
        cells = swept.size
        if cells / t_array < min_cells_per_s:
            raise AssertionError(
                f"array walk at {cells / t_array:,.0f} cells per "
                f"CPU-second, below the {min_cells_per_s:,.0f} floor "
                f"(scalar loop: {cells / t_scalar:,.0f})")
        return {
            "cells": float(cells),
            "array_cells_per_s": cells / t_array,
            "scalar_cells_per_s": cells / t_scalar,
        }

    return run


def _atlas_query_workload(smoke: bool, rounds: int,
                          machine_name: str = "lassen",
                          min_queries_per_s: float = MIN_ATLAS_QUERIES_PER_S
                          ) -> Callable[[], Dict[str, float]]:
    """O(1) atlas lookups vs exact per-query evaluation.

    The atlas is built once at workload construction — it is the
    *offline* artifact, so its cost never lands in the timed region.
    The timed atlas arm answers every grid point ``rounds`` times through
    :meth:`~repro.atlas.index.AtlasIndex.lookup`; the exact arm answers
    each point once through :func:`~repro.models.scenarios.
    best_strategy` (which rebuilds the model registry and walks every
    model's stages per query — the cost the atlas amortizes away).  The
    two winner sequences must agree exactly on every grid point, every
    lookup must be served from the atlas (no fallbacks on-grid), and
    the atlas arm must clear the absolute ``min_queries_per_s`` floor,
    enforced on every suite run.
    """
    from repro.atlas import build_atlas, default_grid
    from repro.machine import resolve_machine

    machine = resolve_machine(machine_name)
    spec = default_grid(smoke=smoke)
    atlas = build_atlas(machine, spec=spec)
    queries = [(spec.scenario_at(i, j, k), spec.sizes[l])
               for (i, j, k, l) in spec.points()]

    def run() -> Dict[str, float]:
        from repro.atlas import AtlasIndex
        from repro.models.scenarios import best_strategy

        index = AtlasIndex(atlas)
        t0 = time.perf_counter()
        atlas_winners: List[str] = []
        for _ in range(rounds):
            atlas_winners = [index.lookup(sc, size).winner
                             for sc, size in queries]
        t_atlas_q = (time.perf_counter() - t0) / (rounds * len(queries))

        exact_winners = [best_strategy(machine, sc, size)
                         for sc, size in queries]
        if atlas_winners != exact_winners:
            bad = sum(a != e for a, e in zip(atlas_winners, exact_winners))
            raise AssertionError(
                f"atlas winners diverged from exact evaluation on {bad} "
                f"of {len(queries)} grid points")
        counters = index.counters()
        if counters["atlas.hits"] != counters["atlas.lookups"]:
            raise AssertionError(
                f"on-grid atlas queries fell back to exact evaluation: "
                f"{counters}")
        if 1.0 / t_atlas_q < min_queries_per_s:
            raise AssertionError(
                f"atlas lookups at {1.0 / t_atlas_q:,.0f} queries/s, below "
                f"the {min_queries_per_s:,.0f} floor")
        return {
            "queries": float(rounds * len(queries)),
            "atlas_queries_per_s": 1.0 / t_atlas_q,
        }

    return run


def default_workloads(smoke: bool = False, machine: str = "lassen",
                      ) -> List[Tuple[str, Callable[[], Dict[str, float]], int]]:
    """(name, workload, repeats) triples for the standard suite.

    ``machine`` names the preset every machine-dependent workload runs
    on (resolved lazily per workload).
    """
    if smoke:
        return [
            ("engine", _engine_workload(procs=20, timeouts=100), 1),
            ("pingpong", _pingpong_workload(iterations=1, n_points=3,
                                            machine_name=machine), 1),
            ("spmv", _spmv_workload(matrix_n=1000, reps=1,
                                    machine_name=machine), 1),
            ("scenarios", _scenario_workload(16, (0.0,),
                                             machine_name=machine), 1),
            ("plan_cost", _plan_cost_workload(32, (0.0, 0.25),
                                              machine_name=machine), 1),
            ("atlas_query", _atlas_query_workload(smoke=True, rounds=20,
                                                  machine_name=machine), 1),
        ]
    return [
        ("engine", _engine_workload(procs=200, timeouts=500), 3),
        ("pingpong", _pingpong_workload(iterations=2, n_points=10,
                                        machine_name=machine), 3),
        ("spmv", _spmv_workload(matrix_n=4000, reps=3,
                                machine_name=machine), 3),
        ("scenarios", _scenario_workload(64, (0.0, 0.25),
                                         machine_name=machine), 3),
        ("plan_cost", _plan_cost_workload(64, (0.0, 0.25),
                                          machine_name=machine), 3),
        ("atlas_query", _atlas_query_workload(smoke=False, rounds=5,
                                              machine_name=machine), 3),
    ]


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def run_suite(smoke: bool = False, verbose: bool = True,
              repeats: Optional[int] = None, machine: str = "lassen",
              only: Optional[List[str]] = None) -> List[WorkloadResult]:
    """Run the suite; ``wall_s`` is best-of-repeats, plus the median.

    ``repeats`` overrides every workload's default repeat count (more
    repeats tighten the min/median against scheduler noise); ``machine``
    picks the preset the machine-dependent workloads model; ``only``
    restricts the run to the named workloads (suite order is kept) and
    must name at least one.  A workload whose floor or identity check
    fails raises :class:`AssertionError`.
    """
    if repeats is not None and repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workloads = default_workloads(smoke=smoke, machine=machine)
    if only is not None:
        known = {name for name, _fn, _reps in workloads}
        unknown = [name for name in only if name not in known]
        if unknown or not only:
            what = (f"unknown workload(s) {unknown}" if unknown
                    else "no workload named")
            raise UnknownWorkloadError(
                f"{what}; available: {sorted(known)}")
        wanted = set(only)
        workloads = [w for w in workloads if w[0] in wanted]
    results: List[WorkloadResult] = []
    for name, workload, default_reps in workloads:
        reps = repeats if repeats is not None else default_reps
        walls: List[float] = []
        metrics: Dict[str, float] = {}
        for _ in range(reps):
            t0 = time.perf_counter()
            metrics = workload()
            walls.append(time.perf_counter() - t0)
        best = min(walls)
        for key, value in list(metrics.items()):
            # explicit rates get no per-second companion — only
            # volume-like counts do
            if not key.endswith("_per_s"):
                metrics[f"{key}_per_s"] = value / best if best > 0 else 0.0
        result = WorkloadResult(name=name, wall_s=best, repeats=reps,
                                wall_median_s=statistics.median(walls),
                                metrics=metrics)
        results.append(result)
        if verbose:
            print(result.summary)
    if verbose:
        total = sum(r.wall_s for r in results)
        print(f"{'total':14s} {total * 1e3:9.1f} ms")
    return results


def write_perf_ledger(ledger, results: List[WorkloadResult]) -> None:
    """Emit suite results into a :class:`repro.obs.RunLedger`.

    One ``workload`` record per suite entry.  Volume counts (events,
    messages, evals, cells, queries) are pure functions of the workload
    configuration and go in the deterministic section; measured wall
    clocks and every ``*_per_s`` rate are execution-shape facts and land
    in the ``wall`` envelope.
    """
    for r in results:
        deterministic: Dict[str, float] = {}
        wall: Dict[str, float] = {"wall_s": r.wall_s,
                                  "wall_median_s": r.wall_median_s}
        for key, value in r.metrics.items():
            if key.endswith("_per_s"):
                wall[key] = value
            else:
                deterministic[key] = value
        ledger.event("workload", name=r.name, repeats=r.repeats,
                     wall=wall, **deterministic)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI body for ``python -m repro perf [--smoke] [--repeats N]
    [--machine M] [--only NAMES] [--ledger PATH]``.

    Prints the timing table; ``--ledger`` also writes one ``workload``
    record per workload.  The gate is the workloads' own floors and
    identities: a miss raises, so the exit status is non-zero.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Run the simulator performance micro-suite.")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI wiring check, ~1 s)")
    parser.add_argument("-r", "--repeats", type=int, default=None,
                        help="override per-workload repeats; min/median "
                             "wall times are reported")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset the workloads model "
                             "(see `python -m repro info`)")
    parser.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                        help="run only the named workloads "
                             "(comma-separated)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    args = parser.parse_args(argv)
    from repro.machine import resolve_machine

    machine = resolve_machine(args.machine).name  # fail fast, canonical name
    only = ([name.strip() for name in args.only.split(",") if name.strip()]
            if args.only is not None else None)
    try:
        results = run_suite(smoke=args.smoke, repeats=args.repeats,
                            machine=machine, only=only)
    except UnknownWorkloadError as exc:
        parser.error(str(exc))
    if args.ledger:
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(args.ledger, "perf",
                           {"smoke": args.smoke, "machine": machine,
                            "repeats": args.repeats,
                            "only": sorted(only) if only else None},
                           machine=machine)
        write_perf_ledger(ledger, results)
        ledger.finish("ok")
    return 0
