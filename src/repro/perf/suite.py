"""Timed micro-suite over the simulator's hot paths.

The workloads cover the layers the optimisation work targets:

``engine``
    Raw DES kernel event throughput: many processes looping on
    zero-cost bookkeeping plus heap-scheduled timeouts, held to an
    absolute events/s floor.
``pingpong``
    The Table-2 refit (:func:`repro.benchpress.pingpong.fit_comm_table`)
    — message costing, protocol selection and the sweep-reuse path.
``spmv``
    One audikw-analog SpMV exchange per rep — the irregular
    many-message pattern the paper validates against (Figure 4.2).
``scenarios``
    The Figure-4.3 scenario grid over all strategy models — the
    batched analytic-model path.
``obs_overhead``
    A message-heavy alltoall exchange with the default
    :class:`~repro.obs.tracer.NullTracer` — guards the pay-for-what-
    you-use contract of :mod:`repro.obs` (tracing off must cost ~0).
``sweep_parallel``
    The chaos-smoke sweep through :func:`repro.par.sweep_map` — serial,
    fanned out over workers, and warm-cache — reporting the parallel
    and cached speedups over the serial baseline (and asserting all
    three reports stay byte-identical).
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
    artifact; the ratio over the exact arm is reported, not enforced).

Each workload reports its wall clock (best and median of ``repeats``)
plus a throughput metric (virtual events/sec, simulated messages/sec or
model evaluations/sec).  All workloads run the simulator with fixed
seeds, so the *virtual* results are deterministic; only the wall clock
varies.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: report schema version (bump when fields change meaning).
#: Schema 2 adds ``wall_median_s`` per workload (``wall_s`` keeps its
#: schema-1 best-of-repeats meaning) and the ``sweep_parallel``
#: workload, whose ``speedup_*`` metrics carry no ``_per_s`` companion.
#: Schema 3 adds the ``hop_plan`` workload and a top-level ``machine``
#: field naming the preset the suite ran on.
#: Schema 4 adds the batched-DES and ``sweep_fused`` workloads
#: (each asserting bit-identity plus a speedup floor internally), and
#: keys already ending in ``_per_s`` no longer receive an automatic
#: ``_per_s`` companion.
#: Schema 5 adds the ``atlas_query`` workload (O(1) atlas lookups vs
#: exact ``best_strategy`` evaluation, with an exact-agreement check
#: and a queries/s speedup floor).
#: Schema 6 adds the ``hier_strategies`` workload: the full registry —
#: paper set plus the hierarchy-aware families — swept on the
#: multi-NIC ``frontier_like`` preset, asserting the sweep coster stays
#: cell-wise bit-identical to the scalar models on *tiered* plans
#: (tier scales, NIC pinning, persistent channels, SETUP stages).
#: Schema 7 removes the batched-DES workload with the SoA batch
#: kernel it measured; ``engine`` enforces an absolute events/s floor.
#: Schema 8 folds ``hop_plan`` and ``sweep_fused`` — both timed the
#: array walk against the scalar loop once the fused tensors went —
#: into ``plan_cost``, which enforces an absolute cells/s floor;
#: ``speedup_vectorized`` and ``speedup_fused`` are gone.
SCHEMA = 8

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
#: ``speedup_atlas`` from ~160 to ~66 without the atlas changing.
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


def _find_strategy(label: str):
    """Strategy implementation by label, with a diagnosable failure.

    A bare ``next(...)`` over the registry raises an opaque
    ``StopIteration`` when the label is missing; this lookup names the
    label and every available strategy instead.
    """
    from repro.core import all_strategies

    strategies = {s.label: s for s in all_strategies()}
    if label not in strategies:
        raise ValueError(
            f"unknown strategy {label!r}; available: "
            f"{sorted(strategies)}")
    return strategies[label]


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
    from repro.machine import resolve_machine
    from repro.sparse.distributed import DistributedCSR
    from repro.sparse.suite import SUITE

    # Matrix assembly and partitioning are inputs to the simulator, not
    # part of it — build once, outside the timed region.
    machine = resolve_machine(machine_name)
    matrix = SUITE["audikw_1"].build(matrix_n)
    dist = DistributedCSR(matrix, num_gpus=2 * machine.gpus_per_node)
    v = np.random.default_rng(5).standard_normal(dist.n)
    strategy = _find_strategy("Standard (staged)")

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
                       jobs: Optional[int] = None,
                       machine_name: str = "lassen",
                       policy=None,
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
        swept = sweep_scenarios(machine, scenarios, sizes, jobs=jobs,
                                policy=policy)
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


def _hier_strategies_workload(n_sizes: int,
                              machine_name: str = "frontier_like"
                              ) -> Callable[[], Dict[str, float]]:
    """Extended-family sweep on a tiered multi-NIC machine.

    Evaluates the *full* registry — paper set plus the hierarchy-aware
    families (3-Step H, Neighbor P, ML 3-Step) — on the multi-NIC
    ``frontier_like`` preset, where the extended plans carry tier
    indices, ``nics_used`` port pinning, pre-posted persistent channels
    and amortized SETUP stages.  The array walk must stay cell-wise
    **bit-identical** to the scalar models on those tiered plans (the
    flat-degenerate identity is pinned by goldens; this guards tier
    scaling and NIC pinning under the array algebra), asserted on every
    suite run.
    """

    def run() -> Dict[str, float]:
        from repro.machine import resolve_machine
        from repro.models.scenarios import (
            PAPER_SCENARIOS,
            fused_scenario_times,
            scenario_summary,
        )
        from repro.models.strategies import all_strategy_models

        machine = resolve_machine(machine_name)
        sizes = np.logspace(0, 7, n_sizes)
        models = all_strategy_models(machine, include_best_case=False,
                                     include_extended=True)

        t0 = time.perf_counter()
        _labels, fused = fused_scenario_times(machine, PAPER_SCENARIOS,
                                              sizes, models)
        t_fused = time.perf_counter() - t0

        scalar = np.empty_like(fused)
        for c, scenario in enumerate(PAPER_SCENARIOS):
            summaries = [scenario_summary(machine, scenario, float(s))
                         for s in sizes]
            for i, model in enumerate(models):
                scalar[i, c] = [model.time(s) for s in summaries]

        if not np.array_equal(fused, scalar):
            bad = int(np.count_nonzero(fused != scalar))
            raise AssertionError(
                f"array walk diverged from scalar models on tiered "
                f"plans in {bad} of {fused.size} cells")
        cells = fused.size
        return {
            "cells": float(cells),
            "models": float(len(models)),
            "fused_cells_per_s": cells / t_fused,
        }

    return run


def _atlas_query_workload(smoke: bool, rounds: int,
                          machine_name: str = "lassen",
                          min_queries_per_s: float = MIN_ATLAS_QUERIES_PER_S
                          ) -> Callable[[], Dict[str, float]]:
    """O(1) atlas lookups vs exact per-query evaluation.

    The atlas is built once at workload construction — it is the
    *offline* artifact, so its cost never lands in the timed region.
    The atlas arm answers every grid point ``rounds`` times through
    :meth:`~repro.atlas.index.AtlasIndex.lookup`; the exact arm answers
    each point once through :func:`~repro.models.scenarios.
    best_strategy` (which rebuilds the model registry and walks every
    model's stages per query — the cost the atlas amortizes away).  The
    two winner sequences must agree exactly on every grid point, every
    lookup must be served from the atlas (no fallbacks on-grid), and
    the atlas arm must clear the absolute ``min_queries_per_s`` floor,
    enforced on every suite run; ``speedup_atlas`` (the ratio over the
    exact arm) is reported as a wiring check only.
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

        t0 = time.perf_counter()
        exact_winners = [best_strategy(machine, sc, size)
                         for sc, size in queries]
        t_exact_q = (time.perf_counter() - t0) / len(queries)

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
                f"the {min_queries_per_s:,.0f} floor "
                f"(exact arm: {1.0 / t_exact_q:,.0f} queries/s)")
        return {
            "queries": float(rounds * len(queries)),
            "atlas_queries_per_s": 1.0 / t_atlas_q,
            "speedup_atlas": t_exact_q / t_atlas_q,
        }

    return run


def _sweep_parallel_workload(par_jobs: int, machine_name: str = "lassen"
                             ) -> Callable[[], Dict[str, float]]:
    """Chaos-smoke sweep: serial vs ``par_jobs`` workers vs warm cache.

    Measures the sweep executor end to end on a real workload and
    asserts all three reports are byte-identical before reporting
    ``speedup_parallel`` (cold, ``--jobs par_jobs``) and
    ``speedup_cached`` (warm on-disk cache) over the serial baseline.
    On an N-core host the parallel speedup approaches
    ``min(par_jobs, N)``; the cached speedup is core-independent.
    Both ratios fall when the serial sweep gets faster, so the serial
    arm's absolute ``serial_cells_per_s`` is reported beside them.
    """

    def run() -> Dict[str, float]:
        import shutil
        import tempfile

        from repro.faults.chaos import run_chaos
        from repro.par.cache import ResultCache

        t0 = time.perf_counter()
        base = run_chaos(seed=0, smoke=True, jobs=1, machine=machine_name)
        t_serial = time.perf_counter() - t0

        tmpdir = tempfile.mkdtemp(prefix="repro-sweep-bench-")
        try:
            t0 = time.perf_counter()
            cold = run_chaos(seed=0, smoke=True, jobs=par_jobs,
                             cache=ResultCache(directory=tmpdir),
                             machine=machine_name)
            t_parallel = time.perf_counter() - t0

            warm_cache = ResultCache(directory=tmpdir)
            t0 = time.perf_counter()
            warm = run_chaos(seed=0, smoke=True, jobs=par_jobs,
                             cache=warm_cache, machine=machine_name)
            t_warm = time.perf_counter() - t0
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

        if cold != base or warm != base:
            raise AssertionError(
                "parallel/cached chaos reports diverged from serial")
        if warm_cache.misses:
            raise AssertionError(
                f"warm cache re-ran {warm_cache.misses} shards")
        return {
            "shards": float(base["summary"]["runs"]),
            "jobs": float(par_jobs),
            "serial_cells_per_s": base["summary"]["runs"] / t_serial,
            "speedup_parallel": t_serial / t_parallel,
            "speedup_cached": t_serial / t_warm,
        }

    return run


def _obs_overhead_workload(nodes: int, block: int, reps: int,
                           machine_name: str = "lassen"
                           ) -> Callable[[], Dict[str, float]]:
    from repro.core import CommPattern
    from repro.machine import resolve_machine

    # Pattern construction is input, not simulator — build it once.
    machine = resolve_machine(machine_name)
    num_gpus = nodes * machine.gpus_per_node
    sends = {
        s: {d: np.arange(block) for d in range(num_gpus) if d != s}
        for s in range(num_gpus)
    }
    pattern = CommPattern(num_gpus, sends)

    def run() -> Dict[str, float]:
        from repro.core import run_exchange, strategy_by_name
        from repro.mpi.job import SimJob

        # Default NullTracer: the untraced hot path must stay flat.
        strategy = strategy_by_name("Standard (staged)")
        job = SimJob(machine, num_nodes=nodes,
                     ppn=min(machine.cores_per_node, 40))
        msgs = 0
        for _ in range(reps):
            msgs += run_exchange(job, strategy, pattern).total_messages
        return {"messages": msgs}

    return run


def default_workloads(smoke: bool = False, jobs: Optional[int] = None,
                      machine: str = "lassen", policy=None,
                      ) -> List[Tuple[str, Callable[[], Dict[str, float]], int]]:
    """(name, workload, repeats) triples for the standard suite.

    ``jobs`` is threaded into the parallel-capable workloads; the
    ``sweep_parallel`` comparison arm uses ``jobs`` when it implies real
    fan-out, else 4 workers.  ``machine`` names the preset every
    machine-dependent workload runs on (resolved lazily per workload).
    ``policy`` (a :class:`repro.par.SweepPolicy`) runs the sweep-shaped
    ``scenarios`` workload under supervised execution, so its measured
    wall clock includes the supervision overhead.
    """
    par_jobs = jobs if jobs is not None and jobs > 1 else 4
    if smoke:
        return [
            ("engine", _engine_workload(procs=20, timeouts=100), 1),
            ("pingpong", _pingpong_workload(iterations=1, n_points=3,
                                            machine_name=machine), 1),
            ("spmv", _spmv_workload(matrix_n=1000, reps=1,
                                    machine_name=machine), 1),
            ("scenarios", _scenario_workload(16, (0.0,), jobs=jobs,
                                             machine_name=machine,
                                             policy=policy), 1),
            ("plan_cost", _plan_cost_workload(32, (0.0, 0.25),
                                              machine_name=machine), 1),
            ("hier_strategies", _hier_strategies_workload(16), 1),
            ("atlas_query", _atlas_query_workload(smoke=True, rounds=20,
                                                  machine_name=machine), 1),
            ("obs_overhead", _obs_overhead_workload(nodes=2, block=32, reps=1,
                                                    machine_name=machine), 1),
            ("sweep_parallel", _sweep_parallel_workload(
                par_jobs, machine_name=machine), 1),
        ]
    return [
        ("engine", _engine_workload(procs=200, timeouts=500), 3),
        ("pingpong", _pingpong_workload(iterations=2, n_points=10,
                                        machine_name=machine), 3),
        ("spmv", _spmv_workload(matrix_n=4000, reps=3,
                                machine_name=machine), 3),
        ("scenarios", _scenario_workload(64, (0.0, 0.25), jobs=jobs,
                                         machine_name=machine,
                                         policy=policy), 3),
        ("plan_cost", _plan_cost_workload(64, (0.0, 0.25),
                                          machine_name=machine), 3),
        ("hier_strategies", _hier_strategies_workload(48), 3),
        ("atlas_query", _atlas_query_workload(smoke=False, rounds=5,
                                              machine_name=machine), 3),
        ("obs_overhead", _obs_overhead_workload(nodes=4, block=256, reps=3,
                                                machine_name=machine), 3),
        ("sweep_parallel", _sweep_parallel_workload(
            par_jobs, machine_name=machine), 2),
    ]


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def run_suite(smoke: bool = False, verbose: bool = True,
              repeats: Optional[int] = None, jobs: Optional[int] = None,
              machine: str = "lassen",
              only: Optional[List[str]] = None,
              policy=None) -> List[WorkloadResult]:
    """Run the suite; ``wall_s`` is best-of-repeats, plus the median.

    ``repeats`` overrides every workload's default repeat count (more
    repeats tighten the min/median against scheduler noise); ``jobs``
    is forwarded to parallel-capable workloads; ``machine`` picks the
    preset the machine-dependent workloads model; ``only`` restricts
    the run to the named workloads (suite order is kept); ``policy``
    runs the sweep-shaped workloads under supervised execution.
    """
    if repeats is not None and repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workloads = default_workloads(smoke=smoke, jobs=jobs, machine=machine,
                                  policy=policy)
    if only is not None:
        known = {name for name, _fn, _reps in workloads}
        unknown = [name for name in only if name not in known]
        if unknown:
            raise UnknownWorkloadError(
                f"unknown workload(s) {unknown}; available: "
                f"{sorted(known)}")
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
            # ratios, configuration values and explicit rates get no
            # per-second companion — only volume-like counts do
            if ("speedup" not in key and key != "jobs"
                    and not key.endswith("_per_s")):
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


def write_report(results: List[WorkloadResult], path: str,
                 smoke: bool = False,
                 machine: str = "lassen") -> Dict[str, object]:
    """Serialize suite results to ``path`` (BENCH_repro.json schema)."""
    report: Dict[str, object] = {
        "suite": "repro.perf",
        "schema": SCHEMA,
        "smoke": smoke,
        "machine": machine,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "total_wall_s": sum(r.wall_s for r in results),
        "workloads": [asdict(r) for r in results],
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def write_perf_ledger(ledger, results: List[WorkloadResult]) -> None:
    """Emit suite results into a :class:`repro.obs.RunLedger`.

    One ``workload`` record per suite entry.  Volume counts (events,
    messages, evals, cells, shards) are pure functions of the workload
    configuration and go in the deterministic section; measured wall
    clocks, every ``*_per_s`` rate, speedup ratios and the worker count
    are execution-shape facts and land in the ``wall`` envelope.
    """
    for r in results:
        deterministic: Dict[str, float] = {}
        wall: Dict[str, float] = {"wall_s": r.wall_s,
                                  "wall_median_s": r.wall_median_s}
        for key, value in r.metrics.items():
            if "per_s" in key or "speedup" in key or key == "jobs":
                wall[key] = value
            else:
                deterministic[key] = value
        ledger.event("workload", name=r.name, repeats=r.repeats,
                     wall=wall, **deterministic)


def compare_reports(baseline: Dict[str, object], current: Dict[str, object],
                    tolerance: float = 0.25) -> List[str]:
    """Regression messages for workloads slower than ``baseline``.

    Compares ``wall_median_s`` (falling back to ``wall_s`` for schema-1
    reports) over the workloads both reports contain; a workload
    regresses when its current median exceeds the baseline median by
    more than ``tolerance`` (fractional, default 25 % — wide enough for
    scheduler noise on shared CI runners, tight enough to catch a real
    hot-path regression).  Reports of different ``schema`` or ``smoke``
    are not comparable and yield one message saying so.  Returns one
    human-readable message per regression; an empty list means the gate
    passes.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")

    def _by_name(report: Dict[str, object]) -> Dict[str, Dict[str, float]]:
        return {w["name"]: w for w in report.get("workloads", [])}

    def _wall(workload: Dict[str, float]) -> float:
        return float(workload.get("wall_median_s") or workload["wall_s"])

    base = _by_name(baseline)
    cur = _by_name(current)
    messages: List[str] = []
    for key in ("schema", "smoke"):
        # another suite version, or another suite size: comparing the
        # workload names that happen to intersect would mean nothing
        if baseline.get(key) != current.get(key):
            return [f"baseline and current reports differ in {key!r} "
                    f"(baseline {key}={baseline.get(key)}, current "
                    f"{key}={current.get(key)}); wall clocks are not "
                    "comparable"]
    for name in [n for n in cur if n in base]:
        b, c = _wall(base[name]), _wall(cur[name])
        if b > 0 and c > b * (1.0 + tolerance):
            messages.append(
                f"{name}: wall_median_s {c:.6f} vs baseline {b:.6f} "
                f"(+{(c / b - 1.0) * 100:.0f}%, tolerance "
                f"{tolerance * 100:.0f}%)")
    return messages


def main(argv: Optional[List[str]] = None) -> int:
    """CLI body for ``python -m repro perf [--smoke] [--repeats N]
    [--jobs N] [--only NAMES] [--compare BASELINE.json] [-o OUT.json]``.

    With ``--compare`` the exit status is the regression gate: 0 when
    no workload regressed beyond ``--tolerance`` vs the baseline
    report, 1 otherwise — usable directly from CI or a pre-push hook.
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
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for parallel-capable "
                             "workloads (default: $REPRO_JOBS or serial)")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset the workloads model "
                             "(see `python -m repro info`)")
    parser.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                        help="run only the named workloads "
                             "(comma-separated)")
    parser.add_argument("--compare", default=None, metavar="BASELINE.json",
                        help="compare against a previous report and exit "
                             "non-zero on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="fractional wall-clock regression tolerance "
                             "for --compare (default: %(default)s)")
    parser.add_argument("-o", "--output", default="BENCH_repro.json",
                        help="report path (default: %(default)s)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    from repro.par.cliopts import add_supervision_args, supervision_from_args

    add_supervision_args(parser)
    args = parser.parse_args(argv)
    if args.resume:
        # Perf workloads are stateless by design (each repeat must do
        # the full work); there is no sweep to resume.
        parser.error("--resume is not supported by the perf suite; "
                     "use --max-retries/--task-timeout for supervision")
    policy, _journal_dir, _resume = supervision_from_args(args, None)
    from repro.machine import resolve_machine

    machine = resolve_machine(args.machine).name  # fail fast, canonical name
    baseline = None
    if args.compare is not None:
        # Load before the (multi-second) run so a bad path fails fast.
        with open(args.compare) as fh:
            baseline = json.load(fh)
    only = ([name.strip() for name in args.only.split(",") if name.strip()]
            if args.only is not None else None)
    try:
        results = run_suite(smoke=args.smoke, repeats=args.repeats,
                            jobs=args.jobs, machine=machine, only=only,
                            policy=policy)
    except UnknownWorkloadError as exc:
        parser.error(str(exc))
    report = write_report(results, args.output, smoke=args.smoke,
                          machine=machine)
    print(f"wrote {args.output}")
    if args.ledger:
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(args.ledger, "perf",
                           {"smoke": args.smoke, "machine": machine,
                            "repeats": args.repeats,
                            "only": sorted(only) if only else None},
                           machine=machine)
        write_perf_ledger(ledger, results)
        ledger.finish("ok")
    if baseline is not None:
        regressions = compare_reports(baseline, report,
                                      tolerance=args.tolerance)
        if regressions:
            print(f"perf regression vs {args.compare}:")
            for message in regressions:
                print(f"  {message}")
            return 1
        print(f"no regressions vs {args.compare} "
              f"(tolerance {args.tolerance:.0%})")
    return 0
