"""Run one workload: set-up, timed rounds, checks, metric assembly.

An untraced run repeats the workload's *round* (a fixed list of calls
into the program) until ``seconds`` of wall time have passed and reports
each metric's best quartile over the rounds (see
:func:`pb.stats.best_quartile`), so that a slow stretch of a shared box
does not move the number.  A traced run spends the same time on alternating untraced and
traced rounds (their ratio is ``trace.overhead``), one round under both
samplers, and one counts pass with the program's own counters switched
on; it reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

from pb import spec, stats
from pb.trace import (LAYERS, OTHER, TRACE, CpuSampler, Tracer,
                      fold_collapsed, span_totals)

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-up is repeated at least this often, and until it has taken this long
MIN_SETUPS = 3
MIN_SETUP_TOTAL_S = 0.3
MAX_SETUPS = 25

#: share of a traced run's seconds spent on alternating rounds
TRACED_ROUNDS_SHARE = 0.6

#: fresh interpreters timed for the start-up probe
STARTUP_PROBES = 5


class Workload:
    """One named workload.  Subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tr = Tracer(False)
        self.attempted = 0
        self.failed = 0
        #: reasons a check failed (printed, and kept in the JSON report)
        self.problems: List[str] = []
        #: timed wall of each round (sum of the spans around program calls)
        self.round_walls: List[float] = []
        self._tmp: Optional[str] = None

    # -- hooks ---------------------------------------------------------------
    def setup(self) -> None:
        """Generate the inputs from ``self.seed`` (timed as ``setup_s``)."""
        raise NotImplementedError

    def run_round(self, r: int) -> List[str]:
        """Run round ``r``; returns the strings its virtual digest hashes."""
        raise NotImplementedError

    def end_to_end(self) -> Dict[str, float]:
        """work_per_s, ops_per_s, op_p50_us, op_p90_us of the rounds run."""
        raise NotImplementedError

    def traced_extras(self, totals: Dict[str, float], rounds: int
                      ) -> Dict[str, float]:
        """Per-layer metrics of this workload.

        ``totals`` holds span seconds by name over ``rounds`` traced
        rounds; the hook adds the counts pass and the probes only this
        workload can make (the tracer is off by then).
        """
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------
    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def tmpdir(self) -> str:
        """Scratch directory inside the checkout, removed by close()."""
        if self._tmp is None:
            os.makedirs(OUT, exist_ok=True)
            self._tmp = tempfile.mkdtemp(prefix=f"tmp-{self.name}-", dir=OUT)
        return self._tmp

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def empty_program(ctx: Any):
    """A rank program that does nothing: what is left of ``job.run`` is
    the per-job fixed cost."""
    return None
    yield  # pragma: no cover - makes this a generator


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _digest(pieces: List[str]) -> str:
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece.encode())
        h.update(b"\n")
    return h.hexdigest()


def _timed_setups(w: Workload) -> List[float]:
    walls: List[float] = []
    # the first set-up also pays lazy imports, so it does not count
    # towards the time the repeats must add up to
    while (len(walls) < MIN_SETUPS
           or (sum(walls[1:]) < MIN_SETUP_TOTAL_S
               and len(walls) < MAX_SETUPS)):
        t0 = time.perf_counter()
        w.setup()
        walls.append(time.perf_counter() - t0)
        if w.smoke:  # a smoke run sets up once
            break
    return walls


def _run_untraced(w: Workload, seconds: float) -> Dict[str, Any]:
    setups = _timed_setups(w)
    digests: List[str] = []
    start = time.perf_counter()
    while True:
        digests.append(_digest(w.run_round(len(digests))))
        if time.perf_counter() - start >= seconds:
            break
    metrics = dict(w.end_to_end())
    metrics["setup_s"] = stats.median(setups)
    metrics["peak_rss_mb"] = w.peak_rss_mb()
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec.END_TO_END_UNITS.items()},
        "digests": digests,
        "samples": {"setups": len(setups), "rounds": len(digests),
                    "round_wall_s": w.round_walls},
    }


def startup_probe(probes: int) -> Dict[str, float]:
    """Median import cost over fresh ``python -X importtime`` runs."""
    wanted = {"repro": "startup.import_repro_s",
              "scipy.sparse": "startup.import_scipy_sparse_s",
              "repro.mpi": "startup.import_repro_mpi_s"}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    seen: Dict[str, List[float]] = {key: [] for key in wanted.values()}
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            # import time:      self [us] | cumulative | imported package
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            key = wanted.get(parts[2].strip())
            if key is not None:
                seen[key].append(int(parts[1]) / 1e6)
    return {key: stats.median(vals) for key, vals in seen.items() if vals}


def _profiler_shares(collapsed: Dict[str, int]) -> Dict[str, float]:
    folded: Dict[str, int] = {}
    for stack, count in collapsed.items():
        layer = fold_collapsed(stack)
        folded[layer] = folded.get(layer, 0) + count
    total = sum(folded.values())
    return {k: v / total for k, v in folded.items()} if total else {}


def _run_traced(w: Workload, seconds: float) -> Dict[str, Any]:
    from repro.obs.profile import SamplingProfiler

    values = {name: 0.0 for name in spec.PER_LAYER_UNITS}
    values.update(startup_probe(1 if w.smoke else STARTUP_PROBES))

    w.tr = tracer = Tracer(True)
    w.setup()
    setup_totals = span_totals(tracer.spans)
    n_setup_spans = len(tracer.spans)

    # alternating rounds: U T T U T T ... (at least one of each)
    sampler = CpuSampler()
    digests: List[str] = []
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    start = time.perf_counter()
    while True:
        r = len(digests)
        traced = r % 3 != 0
        tracer.enabled = traced
        tracer.run = r
        if traced:
            with sampler:
                digests.append(_digest(w.run_round(r)))
        else:
            digests.append(_digest(w.run_round(r)))
        (traced_walls if traced else plain_walls).append(w.round_walls[-1])
        if (traced_walls and plain_walls and time.perf_counter() - start
                >= TRACED_ROUNDS_SHARE * seconds):
            break
    rounds = len(traced_walls)
    round_spans = tracer.spans[n_setup_spans:]
    totals = span_totals(round_spans)

    # one round under both samplers, for the skew between them
    tracer.enabled = False
    both = CpuSampler()
    with SamplingProfiler(interval=both.tick) as profiler, both:
        digests.append(_digest(w.run_round(len(digests))))
    signal_shares = both.shares()
    thread_shares = _profiler_shares(profiler.samples)
    skew = max((abs(signal_shares.get(k, 0.0) - thread_shares.get(k, 0.0))
                for k in set(signal_shares) | set(thread_shares)),
               default=0.0)

    values.update(w.traced_extras(totals, rounds))

    for layer in LAYERS + (OTHER, TRACE):
        values[f"{layer}.self_s"] = sampler.seconds.get(layer, 0.0) / rounds
    values["sparse.build_s"] = setup_totals.get("sparse.build", 0.0)
    values["sparse.partition_s"] = setup_totals.get("sparse.partition", 0.0)
    values["obs.sampler_skew"] = skew
    values["trace.cpu_s"] = sampler.cpu_s / rounds
    values["trace.overhead"] = (stats.best_quartile(traced_walls)
                                / stats.best_quartile(plain_walls))
    values["trace.samples"] = sampler.samples
    values["trace.spans"] = len(round_spans) / rounds

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{w.name}.json"),
                 workload=w.name, seed=w.seed, smoke=w.smoke)
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec.PER_LAYER_UNITS.items()},
        "digests": digests,
        "samples": {"rounds": len(digests), "traced_rounds": rounds,
                    "plain_round_wall_s": plain_walls,
                    "traced_round_wall_s": traced_walls},
        "samplers": {"signal": signal_shares, "thread": thread_shares},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, registry: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Run one workload in this process and return its report row.

    The boundary that must keep running: a workload that raises is
    reported with every attempted operation failed, never dropped.
    """
    if registry is None:
        from pb.workloads import REGISTRY as registry
    row: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
    }
    w: Optional[Workload] = None
    try:
        w = registry[name](seed, smoke)
        body = (_run_traced if trace else _run_untraced)(w, seconds)
    except Exception:
        traceback.print_exc()
        attempted = max(1, w.attempted if w is not None else 1)
        row.update(correct=False, attempted=attempted, failed=attempted,
                   metrics={}, crashed=True,
                   problems=(w.problems if w is not None else [])
                   + [traceback.format_exc(limit=3)])
        return row
    finally:
        if w is not None:
            w.close()
    digests = body.pop("digests")
    row.update(body)
    row.update(
        correct=w.failed == 0 and w.attempted > 0,
        attempted=w.attempted, failed=w.failed,
        fail_share=w.failed / max(1, w.attempted),
        virtual_digest=digests[0], round_digests=digests,
        problems=w.problems,
    )
    return row
