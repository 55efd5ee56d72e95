"""What the benchmark measures: workloads and metric declarations.

``BENCHMARK.json`` at the repository root is this module written out
(``perfbench/tests`` holds the two to each other).  Every workload
emits every metric: an end-to-end metric has one meaning per workload
(the ``README`` table), a per-layer metric of a layer the workload does
not use reads 0 — which is itself the claim "this workload bypasses
that layer".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 20

#: name -> why it exists (one line, <= 200 characters)
WORKLOADS: Dict[str, str] = {
    "fig51_des": "Fig-5.1 exchanges: SUITE matrices x GPU counts x all 13 "
                 "strategies on lassen; the DES message path "
                 "(sim, mpi, core) does the work, model layers idle",
    "chaos_small": "full chaos cells: tiny 2-node jobs with fault plans, "
                   "message traces, tracer arm and watchdogs; same DES "
                   "layers but per-job set-up and guarded loops dominate",
    "model_decide": "model side only: bulk atlas/regime-map grids, then a "
                    "closed loop of point decisions (atlas hits, exact "
                    "fallbacks, best_strategy, select_strategy); DES idle",
    "par_sweep": "Fig-5.1 panel shards through sweep_map with 2 workers, "
                 "disk cache and journal: one cold sweep, then warm "
                 "re-runs served from the cache; only par is stressed",
}

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.15),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("op_p50_us", "us", "lower", 0.20),
    ("op_p90_us", "us", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better); seconds and counts are per round of the workload
PER_LAYER: List[Tuple[str, str, str]] = [
    # sim
    ("sim.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.events_per_message", "ratio", "lower"),
    # mpi
    ("mpi.self_s", "s", "lower"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "B", "lower"),
    ("mpi.off_node_messages", "count", "lower"),
    ("mpi.host_us_per_message", "us", "lower"),
    ("mpi.empty_run_us", "us", "lower"),
    ("mpi.job_init_us", "us", "lower"),
    ("mpi.retries", "count", "lower"),
    ("mpi.timeouts", "count", "lower"),
    # core
    ("core.self_s", "s", "lower"),
    ("core.plan_s", "s", "lower"),
    ("core.pattern_s", "s", "lower"),
    ("core.data_s", "s", "lower"),
    ("core.exchange_s", "s", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.exchanges", "count", "higher"),
    ("core.virtual_comm_s", "s", "lower"),
    # machine, sparse
    ("machine.self_s", "s", "lower"),
    ("sparse.self_s", "s", "lower"),
    ("sparse.build_s", "s", "lower"),
    ("sparse.partition_s", "s", "lower"),
    ("sparse.fingerprint_s", "s", "lower"),
    # paths
    ("paths.self_s", "s", "lower"),
    ("paths.stack_s", "s", "lower"),
    ("paths.evaluate_s", "s", "lower"),
    ("paths.plans", "count", "higher"),
    ("paths.cells", "count", "higher"),
    # models
    ("models.self_s", "s", "lower"),
    ("models.point_time_us", "us", "lower"),
    ("models.best_strategy_us", "us", "lower"),
    ("models.select_strategy_us", "us", "lower"),
    ("models.decision_p99_us", "us", "lower"),
    ("models.decision_p999_us", "us", "lower"),
    ("models.winner_agreement", "ratio", "higher"),
    ("models.regret_geomean", "ratio", "lower"),
    # atlas
    ("atlas.self_s", "s", "lower"),
    ("atlas.build_s", "s", "lower"),
    ("atlas.save_load_s", "s", "lower"),
    ("atlas.lookup_hit_us", "us", "lower"),
    ("atlas.lookup_fallback_us", "us", "lower"),
    ("atlas.lookups", "count", "higher"),
    ("atlas.hit_ratio", "ratio", "higher"),
    ("atlas.fallbacks_margin", "count", "lower"),
    ("atlas.fallbacks_hull", "count", "lower"),
    # par
    ("par.self_s", "s", "lower"),
    ("par.serial_s", "s", "lower"),
    ("par.cold_s", "s", "lower"),
    ("par.speedup_cold", "ratio", "higher"),
    ("par.cpu_s", "s", "lower"),
    ("par.pool_spinup_s", "s", "lower"),
    ("par.chunks", "count", "lower"),
    ("par.chunk_wall_sum_s", "s", "lower"),
    ("par.dispatch_overhead_s", "s", "lower"),
    ("par.straggler_tail_s", "s", "lower"),
    ("par.cache_put_us", "us", "lower"),
    ("par.cache_get_us", "us", "lower"),
    ("par.cache_hits", "count", "higher"),
    ("par.cache_misses", "count", "lower"),
    ("par.journal_records", "count", "lower"),
    # obs, faults
    ("obs.self_s", "s", "lower"),
    ("obs.tracer_overhead", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.sampler_skew", "ratio", "lower"),
    ("faults.self_s", "s", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.degraded", "count", "lower"),
    ("faults.delivery_errors", "count", "lower"),
    ("faults.violations", "count", "lower"),
    # outside the program's packages
    ("other.self_s", "s", "lower"),
    ("startup.import_repro_s", "s", "lower"),
    ("startup.import_scipy_sparse_s", "s", "lower"),
    ("startup.import_repro_mpi_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.cpu_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.samples", "samples", "higher"),
    ("trace.spans", "count", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}
BOUNDS = {name: bound for name, _u, _b, bound in END_TO_END}
BETTER = {**{n: b for n, _u, b, _bound in END_TO_END},
          **{n: b for n, _u, b in PER_LAYER}}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
