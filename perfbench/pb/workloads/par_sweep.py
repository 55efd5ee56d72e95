"""par_sweep — Fig-5.1 panel shards through the parallel runtime.

One round is one **cold** supervised ``sweep_map`` (2 workers, disk
``ResultCache``, journal) over one shard per (matrix, GPU count), then
``WARM_RERUNS`` **warm** re-runs, each with a fresh ``ResultCache`` on
the same directory and a ``key_fn`` that hashes the matrix content the
way ``suite_sweep`` does.  The cold sweep is where pool spin-up,
pickling, chunking, cache puts and journal fsyncs are paid; a warm
re-run is key hashing plus cache reads.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from typing import Any, Dict, List, Tuple

from pb import stats
from pb.harness import Workload

MACHINE = "lassen"
JOBS = 2
WARM_RERUNS = 4
MATRICES = ("audikw_1", "Serena", "ldoor", "thermal2", "bone010", "Geo_1438")
#: (matrix rows before the seed's offset, GPU counts)
FULL = (8000, (8, 16, 32))
SMOKE = (2000, (8,))
#: strategies measure_matrix_panel runs per (matrix, GPU count) shard
STRATEGIES_PER_SHARD = 8


def _trivial(task: int) -> int:
    """Module-level (picklable) no-op for the pool spin-up probe."""
    return task


def panel_key(spec: Tuple) -> str:
    """Cache key of one panel shard — ``suite_sweep``'s key function."""
    from repro.par import cache_key
    from repro.sparse.suite import matrix_fingerprint

    machine, matrix, counts, ppn, sigma, seed = spec
    return cache_key("fig5_1-panel", machine=machine,
                     matrix=matrix_fingerprint(matrix), gpu_counts=counts,
                     ppn=ppn, noise_sigma=sigma, seed=seed)


def panel_pieces(panels: List[Dict[str, Any]]) -> List[str]:
    return [f"{label}@{gpus}={t.hex()}"
            for panel in panels
            for label, series in sorted(panel["series"].items())
            for gpus, t in zip(panel["gpus"], series)]


class ParSweep(Workload):
    name = "par_sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        base, self.gpu_counts = SMOKE if smoke else FULL
        self.n = base + seed % 64
        self.matrices = MATRICES[:2] if smoke else MATRICES
        self.tasks: List[Tuple] = []
        self.cold_s: List[float] = []
        #: per round: median and slowest warm re-run, seconds
        self.warm_s: List[Tuple[float, float]] = []
        self.cold_stats: List[Any] = []
        self.cold_cpu_s: List[float] = []
        self._first: List[str] = []
        #: the latest round's directory and summed cache counters
        self.last_dir = ""
        self.last_lookups: Dict[str, float] = {}

    def setup(self) -> None:
        from repro.machine.presets import resolve_machine
        from repro.sparse.suite import SUITE

        tr = self.tr
        machine = resolve_machine(MACHINE)
        self.tasks = []
        for name in self.matrices:
            with tr.span("sparse.build", "sparse"):
                matrix = SUITE[name].build(self.n)
            for gpus in self.gpu_counts:
                self.tasks.append((machine, matrix, (gpus,), machine.max_ppn,
                                   0.0, self.seed))
        self.tmpdir()

    def _sweep(self, directory: str, stats_out: Any = None
               ) -> Tuple[List[Any], Any]:
        from repro.par import ResultCache, SweepPolicy, sweep_map
        from repro.sparse.suite import measure_matrix_panel

        cache = ResultCache(os.path.join(directory, "cache"))
        panels = sweep_map(measure_matrix_panel, self.tasks, jobs=JOBS,
                           cache=cache, key_fn=panel_key,
                           policy=SweepPolicy(), stats=stats_out,
                           journal_dir=os.path.join(directory, "journal"))
        return panels, cache

    @staticmethod
    def _cpu_s() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)

    def run_round(self, r: int) -> List[str]:
        from repro.par import SweepStats

        tr = self.tr
        directory = os.path.join(self.tmpdir(), f"round-{r}")
        sweep_stats = SweepStats()
        cpu0 = self._cpu_s()
        with tr.span("par.cold_sweep", "par") as s_cold:
            cold, cache = self._sweep(directory, sweep_stats)
        self.cold_cpu_s.append(self._cpu_s() - cpu0)
        self.cold_s.append(s_cold.dt)
        self.cold_stats.append(sweep_stats)
        lookups = cache.stats()
        self.attempted += len(cold)
        for index, panel in enumerate(cold):
            if panel is None:
                self.fail(f"round {r}: cold shard {index} has no result")
        pieces = panel_pieces([p for p in cold if p is not None])
        if not self._first:
            self._first = pieces
        elif pieces != self._first:
            self.fail(f"round {r}: cold results differ from round 0")
        warm_s: List[float] = []
        for rerun in range(WARM_RERUNS):
            with tr.span("par.warm_rerun", "par") as s_warm:
                warm, cache = self._sweep(directory)
            warm_s.append(s_warm.dt)
            self.attempted += len(warm)
            missed = cache.stats()["misses"]
            lookups = {k: lookups[k] + cache.stats()[k] for k in lookups}
            if missed:
                self.fail(f"round {r} warm re-run {rerun}: {missed} shards "
                          f"missed the cache")
            elif panel_pieces(warm) != pieces:
                self.fail(f"round {r} warm re-run {rerun} != cold results")
        self.warm_s.append((stats.median(warm_s), max(warm_s)))
        self.round_walls.append(s_cold.dt + sum(warm_s))
        self.last_dir = directory
        self.last_lookups = lookups
        if r > 0:
            shutil.rmtree(os.path.join(self.tmpdir(), f"round-{r - 1}"),
                          ignore_errors=True)
        return pieces

    def end_to_end(self) -> Dict[str, float]:
        shards = len(self.tasks)
        exchanges = shards * STRATEGIES_PER_SHARD
        typical, slowest = zip(*self.warm_s)
        warm = stats.best_quartile(typical)
        return {
            "work_per_s": exchanges / stats.best_quartile(self.cold_s),
            "ops_per_s": shards / warm,
            "op_p50_us": warm / shards * 1e6,
            "op_p90_us": stats.best_quartile(slowest) / shards * 1e6,
        }

    def peak_rss_mb(self) -> float:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(super().peak_rss_mb(), kids / 1024.0)

    # -- traced run --------------------------------------------------------------
    def traced_extras(self, totals: Dict[str, float], rounds: int
                      ) -> Dict[str, float]:
        from repro.par import ResultCache, read_journal, sweep_map
        from repro.sparse.suite import (matrix_fingerprint,
                                        measure_matrix_panel)

        t0 = time.perf_counter()
        serial = sweep_map(measure_matrix_panel, self.tasks, jobs=1)
        serial_s = time.perf_counter() - t0
        if panel_pieces(serial) != self._first:
            self.fail("serial sweep (jobs=1, no cache) != cold results")

        spinups = []
        for _ in range(1 if self.smoke else 5):
            t0 = time.perf_counter()
            sweep_map(_trivial, [0, 1], jobs=JOBS)
            spinups.append(time.perf_counter() - t0)

        fingerprint_s = []
        for task in self.tasks:
            t0 = time.perf_counter()
            matrix_fingerprint(task[1])
            fingerprint_s.append(time.perf_counter() - t0)

        # cache probe: the cold results through put/lookup, one by one
        probe = ResultCache(os.path.join(self.tmpdir(), "probe-cache"))
        put_us, get_us = [], []
        for index, panel in enumerate(serial):
            t0 = time.perf_counter()
            probe.put(f"{index:064x}", panel)
            put_us.append((time.perf_counter() - t0) * 1e6)
        probe.clear_memory()
        for index in range(len(serial)):
            t0 = time.perf_counter()
            probe.lookup(f"{index:064x}")
            get_us.append((time.perf_counter() - t0) * 1e6)

        cold_s = stats.best_quartile(self.cold_s)
        # the last cold sweep's own telemetry: chunk walls per worker
        events = self.cold_stats[-1].worker_events
        chunk_sum = sum(ev["wall_s"] for ev in events)
        busy: Dict[int, float] = {}
        for ev in events:
            busy[ev["pid"]] = busy.get(ev["pid"], 0.0) + ev["wall_s"]
        journal_dir = os.path.join(self.last_dir, "journal")
        records = sum(len(read_journal(os.path.join(journal_dir, name)))
                      for name in sorted(os.listdir(journal_dir)))
        cache_stats = self.last_lookups
        return {
            "core.exchanges": len(self.tasks) * STRATEGIES_PER_SHARD,
            "sparse.fingerprint_s": sum(fingerprint_s),
            "par.serial_s": serial_s,
            "par.cold_s": cold_s,
            "par.speedup_cold": serial_s / cold_s,
            "par.cpu_s": stats.median(self.cold_cpu_s),
            "par.pool_spinup_s": stats.median(spinups),
            "par.chunks": self.cold_stats[-1].chunks,
            "par.chunk_wall_sum_s": chunk_sum,
            "par.dispatch_overhead_s": self.cold_s[-1] - chunk_sum / JOBS,
            "par.straggler_tail_s":
                (max(busy.values()) - min(busy.values())) if busy else 0.0,
            "par.cache_put_us": stats.median(put_us),
            "par.cache_get_us": stats.median(get_us),
            "par.cache_hits": cache_stats["hits"],
            "par.cache_misses": cache_stats["misses"],
            "par.journal_records": records,
        }
