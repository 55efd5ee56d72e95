"""Parallel sweep executor: deterministic fan-out over process pools.

Every expensive entry point in the repro (chaos sweeps, figure grids,
the SpMV suite, scenario model sweeps, atlas builds) is a loop over
**independent, pure** shard evaluations.  :func:`sweep_map` is the one
fan-out primitive they all share, and it has **one executor**: one
gather loop (:class:`_Supervisor`) at every ``jobs`` value.

* **Serial is the same loop** — at ``jobs=1`` (or with at most one
  shard to run) it runs all pending shards in process as one chunk: no
  pool, no pickling, so golden outputs stay bit-exact and single-core
  runs pay nothing.  A fully cached sweep builds no pool at any ``jobs``.
* **Deterministic sharding** — tasks are split into *contiguous* chunks
  by :func:`shard_tasks` (a pure function of ``(n, jobs, chunk_size)``),
  so the work distribution never depends on scheduler timing.
* **Ordered gather** — results land at their task index, so the output
  list is **bit-identical** to the serial order regardless of worker
  count or completion order.
* **Spawn-safe** — the shard function must be a module-level callable
  and every task spec picklable; the pool start method defaults to the
  cheapest available (``fork`` on POSIX) but honours
  ``$REPRO_START_METHOD`` and the ``start_method=`` argument, and the
  test suite pins ``spawn`` compatibility.
* **Content-addressed caching** — pass a
  :class:`~repro.par.cache.ResultCache` plus a ``key_fn``; cache hits
  skip evaluation entirely and only misses are fanned out.
* **Incremental checkpoints** — a shard is ``put`` into the cache as it
  is gathered (in process: as each task finishes), not after the full
  sweep (keys are content hashes of pure shard functions, so an early
  write is a correct one); under
  ``journal_dir`` a :class:`~repro.par.journal.SweepJournal` line
  follows, so a killed process can ``resume=True`` and re-execute only
  the missing shards, bit-identical to a fault-free serial run.
* **One failure rule** — the first failure ends the sweep at any
  ``jobs``: ``fn``'s exception is re-raised with its own type, a lost
  worker is ``BrokenProcessPool``, and under a :class:`SweepPolicy`
  with a ``task_timeout`` a chunk past its deadline kills the pool and
  raises ``TimeoutError``.  Shards are pure, so a failed one fails the
  same way again: recovery is the cache plus ``resume=True``, which
  re-runs only the shards that are missing.

Worker count resolution (:func:`resolve_jobs`): explicit ``jobs``
argument, else ``$REPRO_JOBS``, else 1.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import os
import statistics
import time
import traceback
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.par.cache import stable_fingerprint
from repro.par.journal import SweepJournal, journal_path

#: default straggler threshold: a chunk this many times slower than the
#: median chunk of its sweep is flagged (see :meth:`SweepStats.stragglers`)
STRAGGLER_FACTOR = 2.0

#: environment variable supplying the default worker count
ENV_JOBS = "REPRO_JOBS"

#: environment variable overriding the multiprocessing start method
ENV_START_METHOD = "REPRO_START_METHOD"

#: extra wall seconds granted on top of a chunk's deadline, per start
#: method — spawn/forkserver workers re-import the package before the
#: first task runs, which must not read as a hang
POOL_SPINUP_GRACE = {"fork": 0.25}
DEFAULT_SPINUP_GRACE = 2.0


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``$REPRO_JOBS`` > 1."""
    from_env = False
    if jobs is None or jobs == 0:
        env = os.environ.get(ENV_JOBS, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"${ENV_JOBS} must be a positive integer, got {env!r}"
            ) from None
        from_env = True
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        if from_env:
            # Name the source: "repro chaos" never passed this value,
            # the environment did, and the fix is $REPRO_JOBS.
            raise ValueError(
                f"${ENV_JOBS} must be a positive integer, got {jobs!r}")
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    return jobs


def default_start_method() -> str:
    """Cheapest safe start method (env override > fork > spawn)."""
    env = os.environ.get(ENV_START_METHOD, "").strip()
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def shard_tasks(n: int, jobs: int,
                chunk_size: Optional[int] = None) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[start, stop)`` chunks covering ``n``.

    The default chunk size targets ~4 chunks per worker — small enough
    to balance uneven shard costs, large enough to amortize pickling —
    and depends only on ``(n, jobs, chunk_size)``, never on timing.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-n // (4 * max(jobs, 1))))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


@dataclass(frozen=True)
class SweepPolicy:
    """Watchdog of one :func:`sweep_map` call.

    ``task_timeout`` is the per-task wall-clock budget: a pool chunk of
    ``k`` tasks still running ``task_timeout * k`` seconds (plus a
    start-method spin-up grace) after submission ends the sweep with
    ``TimeoutError``, its pool killed and reaped.  ``None`` (the
    default) sets no deadline, so ``SweepPolicy()`` is the same as no
    policy.  An in-process sweep (``jobs=1``) has no watchdog: there is
    no second process to stop its one chunk.
    """

    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not (
                self.task_timeout > 0 and math.isfinite(self.task_timeout)):
            raise ValueError(
                f"SweepPolicy.task_timeout must be a finite number > 0 "
                f"or None, got {self.task_timeout!r}")


@dataclass
class SweepStats:
    """Observability of one :func:`sweep_map` call (filled in place).

    ``worker_events`` is the sweep's **fleet telemetry**: one
    heartbeat/progress record per gathered chunk —
    ``{"chunk", "lo", "hi", "tasks", "done", "total", "wall_s", "pid"}``
    — where ``done``/``total`` count chunks gathered so far (progress),
    ``wall_s`` is the chunk's measured in-worker wall clock and ``pid``
    the worker that ran it.  Task counts are deterministic; wall
    seconds and pids are not (the run ledger records them inside its
    non-deterministic envelope).  ``resumed`` counts the shards that a
    previous journaled run completed and this one restored from the
    cache.
    """

    tasks: int = 0          # total shards requested
    executed: int = 0       # shards actually evaluated (cache misses)
    cache_hits: int = 0     # shards served from the cache
    jobs: int = 0           # resolved worker count
    chunks: int = 0         # work units submitted to the pool (0 = serial)
    resumed: int = 0        # shards restored from a prior journaled run
    worker_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of shards served from the cache (0.0 when empty)."""
        return self.cache_hits / self.tasks if self.tasks else 0.0

    def stragglers(self, factor: float = STRAGGLER_FACTOR
                   ) -> List[Dict[str, Any]]:
        """Chunks at least ``factor`` x slower than the median chunk.

        Straggler detection needs a population to compare against:
        fewer than three timed chunks yields no flags.  The returned
        records are the matching :attr:`worker_events` entries.
        """
        if factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {factor}")
        walls = [ev["wall_s"] for ev in self.worker_events]
        if len(walls) < 3:
            return []
        # statistics.median averages the middle pair for even-length
        # sweeps; indexing the sorted list would take the upper middle
        # and bias the threshold high.
        median = statistics.median(walls)
        if median <= 0.0:
            return []
        return [ev for ev in self.worker_events
                if ev["wall_s"] >= factor * median]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (fleet details under ``"fleet"``)."""
        return {
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "resumed": self.resumed,
            "fleet": {
                "jobs": self.jobs,
                "chunks": self.chunks,
                "heartbeats": [dict(ev) for ev in self.worker_events],
                "stragglers": [ev["chunk"] for ev in self.stragglers()],
            },
        }


def _run_chunk_guarded(fn: Callable[[Any], Any],
                       chunk: List[Tuple[int, Any]],
                       on_done: Optional[Callable[[int, Any], None]] = None
                       ) -> Tuple[List[Tuple[int, Any]],
                                  Optional[Tuple[BaseException, str]],
                                  Dict[str, Any]]:
    """Worker body: ``(values, failure, telemetry)`` of one chunk.

    ``values`` holds ``(index, value)`` for each task that finished;
    the chunk stops at the first task that raises, and ``failure`` is
    then that exception with its traceback text (else ``None``).
    Returning the failure instead of raising it lets the gather loop
    keep the chunk-mates that finished before it ends the sweep.
    ``on_done(index, value)`` runs after
    each task that succeeds: how an inline sweep checkpoints shard by
    shard inside its one chunk.  The telemetry (task span, measured
    wall seconds, worker pid) feeds :attr:`SweepStats.worker_events`.
    """
    t0 = time.perf_counter()
    values: List[Tuple[int, Any]] = []
    failure: Optional[Tuple[BaseException, str]] = None
    for index, task in chunk:
        try:
            value = fn(task)
        except Exception as exc:  # noqa: BLE001 — re-raised when gathered
            failure = (exc, traceback.format_exc())
            break
        if on_done is not None:
            on_done(index, value)
        values.append((index, value))
    telemetry = {
        "lo": chunk[0][0],
        "hi": chunk[-1][0],
        "tasks": len(chunk),
        "wall_s": time.perf_counter() - t0,
        "pid": os.getpid(),
    }
    return values, failure, telemetry


def _submit_inline(call: Callable[..., Any], *args: Any) -> Future:
    """In-process stand-in for ``pool.submit``: run the call, return its
    finished future — what makes ``jobs=1`` the same gather loop rather
    than a second one."""
    future: Future = Future()
    future.set_result(call(*args))
    return future


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and reap them (hung workers never
    exit on their own, so a plain shutdown would block forever)."""
    procs = list(getattr(pool, "_processes", {}).values())
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover — racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass


class _Supervisor:
    """Gather loop of one fan-out (see :func:`sweep_map`).

    ``jobs == 1`` or at most one pending task runs *inline*: all of
    ``pending`` as one chunk through :func:`_submit_inline`.  A pool
    never holds more chunks than workers, so every in-flight chunk is
    running and its deadline measures its own work, not time spent
    queued.  Whatever fails first leaves :meth:`run` as itself, and its
    ``finally`` kills and reaps the pool.
    """

    def __init__(self, fn: Callable[[Any], Any],
                 pending: List[Tuple[int, Any]], jobs: int,
                 chunk_size: Optional[int], start_method: str,
                 policy: Optional[SweepPolicy], stats: SweepStats,
                 checkpoint: Callable[[int, Any], None]) -> None:
        self.fn = fn
        self.jobs = jobs
        self.start_method = start_method
        self.task_timeout = (policy.task_timeout if policy is not None
                             else None)
        self.stats = stats
        self.checkpoint = checkpoint
        self.inline = jobs == 1 or len(pending) <= 1
        if self.inline:
            chunk_size = len(pending)  # all of it as one chunk
        spans = shard_tasks(len(pending), jobs, chunk_size)
        self.queue: collections.deque = collections.deque(
            pending[lo:hi] for lo, hi in spans)
        self.inflight: Dict[Future, List[Tuple[int, Any]]] = {}
        self.deadlines: Dict[Future, float] = {}
        self.gathered = 0
        self.pool: Optional[ProcessPoolExecutor] = None
        self.grace = POOL_SPINUP_GRACE.get(start_method,
                                           DEFAULT_SPINUP_GRACE)

    def _submit(self, chunk: List[Tuple[int, Any]]) -> None:
        if self.inline:
            # inline checkpoints per task: a kill mid-chunk keeps what
            # finished
            future = _submit_inline(_run_chunk_guarded, self.fn, chunk,
                                    self.checkpoint)
        else:
            if self.pool is None:
                ctx = multiprocessing.get_context(self.start_method)
                self.pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                mp_context=ctx)
            future = self.pool.submit(_run_chunk_guarded, self.fn, chunk)
            self.stats.chunks += 1
            if self.task_timeout is not None:
                self.deadlines[future] = (
                    time.monotonic()
                    + self.task_timeout * len(chunk) + self.grace)
        self.inflight[future] = chunk

    def _absorb(self, values: List[Tuple[int, Any]],
                failure: Optional[Tuple[BaseException, str]],
                telemetry: Dict[str, Any]) -> None:
        if not self.inline:  # inline: done as each task finished
            for index, value in values:
                self.checkpoint(index, value)
        if failure is not None:
            exc, text = failure
            if self.inline:
                raise exc
            # pickling dropped the worker's traceback: chain its text
            raise exc from RuntimeError(f"in the worker:\n{text}")
        self.gathered += 1
        self.stats.worker_events.append({
            "chunk": self.gathered - 1, "done": self.gathered,
            "total": self.gathered + len(self.queue) + len(self.inflight),
            **telemetry,
        })

    def run(self) -> None:
        try:
            while self.queue or self.inflight:
                while self.queue and len(self.inflight) < self.jobs:
                    self._submit(self.queue.popleft())
                self._step()
        finally:
            if self.pool is not None:
                _kill_pool(self.pool)
                self.pool = None

    def _step(self) -> None:
        timeout = None
        if self.deadlines:
            timeout = max(0.0, min(self.deadlines.values())
                          - time.monotonic())
        done, _ = wait(list(self.inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        for future in done:
            self.inflight.pop(future)
            self.deadlines.pop(future, None)
            # a lost worker raises BrokenProcessPool here
            self._absorb(*future.result())
        now = time.monotonic()
        for future, due in self.deadlines.items():
            if now >= due and not future.done():
                chunk = self.inflight[future]
                raise TimeoutError(
                    f"sweep tasks {chunk[0][0]}-{chunk[-1][0]} ran past "
                    f"their deadline: {self.task_timeout:g} s per task x "
                    f"{len(chunk)} tasks + {self.grace:g} s pool spin-up "
                    f"grace")


def sweep_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: Optional[int] = None, *,
              cache: Optional[Any] = None,
              key_fn: Optional[Callable[[Any], str]] = None,
              chunk_size: Optional[int] = None,
              start_method: Optional[str] = None,
              stats: Optional[SweepStats] = None,
              policy: Optional[SweepPolicy] = None,
              journal_dir: Optional[str] = None,
              resume: bool = False) -> List[Any]:
    """``[fn(t) for t in tasks]`` with optional fan-out and caching.

    The result list is always in task order and bit-identical across
    worker counts (``fn`` must be a pure function of its task).  With
    ``jobs > 1``, ``fn`` must be module-level and each task picklable.

    * The first failure ends the sweep at any ``jobs``: ``fn``'s
      exception is re-raised with its own type (an ``OSError`` from
      ``fn`` is never read as a lost worker), a lost worker is
      ``BrokenProcessPool``, and a pool chunk past the deadline of
      ``policy.task_timeout`` is ``TimeoutError``.  With no policy, or
      ``SweepPolicy()``, there is no deadline.
    * Each completed shard is ``put`` into ``cache`` as it is gathered
      (at ``jobs=1``: as each task finishes), so a sweep that dies
      keeps what it finished; with ``journal_dir``
      a :class:`~repro.par.journal.SweepJournal` line follows each put,
      and ``resume=True`` (requires ``cache`` and ``journal_dir``)
      re-executes only the shards a previous run did not complete.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if resume and (cache is None or journal_dir is None):
        raise ValueError(
            "resume requires both a cache (to restore completed shard "
            "values) and a journal_dir (to identify the sweep)")
    if cache is not None and key_fn is None:
        raise ValueError("cache requires a key_fn")
    if stats is None:
        stats = SweepStats()

    results: List[Any] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    pending: List[Tuple[int, Any]] = []
    hits = set()
    for index, task in enumerate(tasks):
        if cache is not None:
            keys[index] = key_fn(task)
            hit, results[index] = cache.lookup(keys[index])  # miss: None
            if hit:
                hits.add(index)
                continue
        pending.append((index, task))

    stats.tasks = len(tasks)
    stats.executed = len(pending)
    stats.cache_hits = len(hits)
    stats.jobs = jobs
    stats.chunks = 0

    journal: Optional[SweepJournal] = None
    if journal_dir is not None:
        sweep_id = stable_fingerprint(
            {"keys": keys} if cache is not None else {"n": len(tasks)})
        journal = SweepJournal(journal_path(journal_dir, sweep_id),
                               sweep_id, tasks=len(tasks), resume=resume)
        # shards the journal marks done *and* the cache restored (a
        # journaled shard whose entry has gone runs again)
        stats.resumed = len(journal.done & hits)

    def checkpoint(index: int, value: Any) -> None:
        # incremental: a kill after this line never loses the shard
        results[index] = value
        if cache is not None:
            cache.put(keys[index], value)
        if journal is not None:
            journal.shard_done(index, key=keys[index])

    try:
        _Supervisor(fn, pending, jobs, chunk_size,
                    start_method or default_start_method(), policy, stats,
                    checkpoint).run()
        if journal is not None:
            journal.finish()
    finally:
        if journal is not None:
            journal.close()
    return results
