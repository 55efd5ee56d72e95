"""Parallel sweep executor: deterministic fan-out over process pools.

Every expensive entry point in the repro (chaos sweeps, figure grids,
the SpMV suite, scenario model sweeps, the perf suite) is a loop over
**independent, pure** shard evaluations.  :func:`sweep_map` is the one
fan-out primitive they all share, and it has **one executor**: a
supervised gather loop (:class:`_Supervisor`) whose arguments set the
failure policy.

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
* **Failure policy** — without a :class:`SweepPolicy` the policy is
  *zero*: the first failure ends the sweep as itself (``fn``'s
  exception re-raised with its own type at any ``jobs``; a lost worker
  is ``BrokenProcessPool``).  With one, the fan-out is fault tolerant
  instead of all-or-nothing:

  - a **watchdog** enforces per-chunk wall-clock deadlines
    (``task_timeout`` seconds per task); a chunk past its deadline is
    declared hung, the pool is killed and respawned, and every innocent
    in-flight chunk is resubmitted without penalty;
  - a **lost worker** (``BrokenProcessPool`` — e.g. a child that
    ``os._exit``'s) likewise respawns the pool; the chunks that were
    in flight are re-run one at a time in *isolation* so guilt is
    attributed exactly (an innocent chunk that merely shared the pool
    is never penalized);
  - a guilty multi-task chunk is **bisected** — split in half and
    re-run — until the poison task is isolated;
  - a guilty single task is retried under the plan's bounded, seeded
    exponential-backoff :class:`~repro.faults.plan.RetryPolicy` and
    finally **quarantined**: recorded (index, cache key, reason,
    error) in :attr:`SweepStats.quarantined` and, in strict mode,
    re-raised at the end as :class:`SweepQuarantineError` — the sweep
    always completes with an explicit completeness manifest.

  Deterministic *process-level* fault injection for all of the above
  lives in :mod:`repro.faults.procfault` (crash / hang / raise on
  seeded schedules), driven by ``python -m repro chaos --proc-faults``.

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
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import RetryPolicy
from repro.faults.procfault import ProcFaultError
from repro.par.cache import stable_fingerprint
from repro.par.journal import SweepJournal, journal_path

#: default straggler threshold: a chunk this many times slower than the
#: median chunk of its sweep is flagged (see :meth:`SweepStats.stragglers`)
STRAGGLER_FACTOR = 2.0

#: environment variable supplying the default worker count
ENV_JOBS = "REPRO_JOBS"

#: environment variable overriding the multiprocessing start method
ENV_START_METHOD = "REPRO_START_METHOD"

#: supervisor retry defaults — wall-clock scale (the simulated
#: transport's :class:`RetryPolicy` defaults are virtual-time scale)
DEFAULT_SWEEP_RETRY = RetryPolicy(timeout=30.0, backoff=0.05,
                                  backoff_cap=1.0, max_retries=2)

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
    """Failure policy of one :func:`sweep_map` call (``None`` there is
    the zero policy: the first failure ends the sweep as itself).

    ``task_timeout`` is the per-task wall-clock budget: a chunk of
    ``k`` tasks is declared hung ``task_timeout * k`` (plus a start-
    method spin-up grace) seconds after submission, its workers are
    killed and the chunk is re-run.  ``None`` disables the watchdog
    (lost workers are still detected and respawned).

    ``retry`` reuses the fault plan's
    :class:`~repro.faults.plan.RetryPolicy` semantics for *resubmission*:
    retry ``k`` of a guilty single task waits
    ``min(backoff * 2**k, backoff_cap)`` seconds (jittered by a stream
    seeded from ``seed``), and after ``max_retries`` retries the task is
    quarantined.  ``strict`` re-raises quarantined tasks at the end of
    the sweep as :class:`SweepQuarantineError`; non-strict sweeps leave
    ``None`` at the quarantined indices and report them via
    :attr:`SweepStats.quarantined`.
    """

    task_timeout: Optional[float] = None
    retry: RetryPolicy = DEFAULT_SWEEP_RETRY
    seed: int = 0
    strict: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not (
                self.task_timeout > 0 and math.isfinite(self.task_timeout)):
            raise ValueError(
                f"SweepPolicy.task_timeout must be a finite number > 0 "
                f"or None, got {self.task_timeout!r}")
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"SweepPolicy.retry must be a RetryPolicy, got "
                f"{self.retry!r}")

    def backoff_delay(self, attempt: int,
                      rng: Optional[np.random.Generator] = None) -> float:
        """Seconds to wait before retry ``attempt`` (0-based)."""
        delay = min(self.retry.backoff * (2 ** attempt),
                    self.retry.backoff_cap)
        if rng is not None and delay > 0.0:
            delay *= 0.5 + rng.random()  # seeded jitter in [0.5, 1.5)
        return delay

    def rng(self) -> np.random.Generator:
        """Backoff-jitter stream (``0xFB`` prefix: disjoint from the
        fault streams' ``0xFA`` and the bare noise streams)."""
        return np.random.default_rng(np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(0xFB,)))


class SweepQuarantineError(RuntimeError):
    """A strict-policy sweep finished with quarantined tasks.

    ``quarantined`` holds the completeness manifest entries
    (``{"index", "key", "reason", "error"}``) so callers can still see
    exactly which shards are missing and why.
    """

    def __init__(self, quarantined: Sequence[Dict[str, Any]]) -> None:
        self.quarantined = [dict(q) for q in quarantined]
        head = "; ".join(
            f"task {q['index']} [{q['reason']}] {q['error']}"
            for q in self.quarantined[:4])
        more = (f" (+{len(self.quarantined) - 4} more)"
                if len(self.quarantined) > 4 else "")
        super().__init__(
            f"{len(self.quarantined)} task(s) quarantined after "
            f"exhausting retries: {head}{more}")


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
    non-deterministic envelope).

    Sweeps that had something to recover from additionally fill the
    **recovery telemetry**: ``retried`` / ``respawns`` / ``resumed``
    counters, the ``quarantined`` completeness manifest (in task-index
    order), and ``recovery_events`` — one record per supervision action
    (``worker_lost``, ``chunk_retry``, ``task_quarantined``,
    ``sweep_resume``) that the run ledger forwards (quarantines
    deterministically, the rest as volatile execution-shape facts).
    """

    tasks: int = 0          # total shards requested
    executed: int = 0       # shards actually evaluated (cache misses)
    cache_hits: int = 0     # shards served from the cache
    jobs: int = 0           # resolved worker count
    chunks: int = 0         # work units submitted to the pool (0 = serial)
    retried: int = 0        # chunk/task resubmissions (needs a policy)
    respawns: int = 0       # pool respawns after lost/hung workers
    resumed: int = 0        # shards restored from a prior journaled run
    obs_payloads: List[Any] = field(default_factory=list)
    worker_events: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    recovery_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of shards served from the cache (0.0 when empty)."""
        return self.cache_hits / self.tasks if self.tasks else 0.0

    def recovery(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append (and return) one recovery-telemetry record."""
        record = {"kind": kind, **fields}
        self.recovery_events.append(record)
        return record

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
        """JSON-ready summary (fleet details under ``"fleet"``,
        supervision details under ``"recovery"``)."""
        return {
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "fleet": {
                "jobs": self.jobs,
                "chunks": self.chunks,
                "heartbeats": [dict(ev) for ev in self.worker_events],
                "stragglers": [ev["chunk"] for ev in self.stragglers()],
            },
            "recovery": {
                "retried": self.retried,
                "respawns": self.respawns,
                "resumed": self.resumed,
                "quarantined": [dict(q) for q in self.quarantined],
                "events": [dict(ev) for ev in self.recovery_events],
            },
        }


def _run_chunk_guarded(fn: Callable[[Any], Any],
                       chunk: List[Tuple[int, Any]],
                       faults: Any,
                       runs: Dict[int, int],
                       fail_fast: bool,
                       on_done: Optional[Callable[[int, Any], None]] = None
                       ) -> Tuple[List[Tuple[int, bool, Any, Optional[str]]],
                                  Dict[str, Any]]:
    """Worker body: per-task outcomes plus the chunk's telemetry.

    Each task yields ``(index, ok, value, error)`` — a task that raises
    is *recorded*, not propagated, so one poison task cannot discard its
    chunk-mates' results and an ``OSError`` from ``fn`` can never be
    mistaken for a collapsed result transport.  Under the zero policy
    (``fail_fast``) the chunk stops at its first failure and the record
    carries the exception itself (as ``value``, its traceback text as
    ``error``) for the gather loop to re-raise.  ``faults`` (a
    :class:`~repro.faults.procfault.ProcFaultPlan` or ``None``) injects
    process-level failures first: ``crash`` exits the worker without
    cleanup, ``hang`` sleeps past any reasonable deadline, ``raise``
    records an injected error.  ``runs`` carries each task's 1-based
    evaluation count so transient schedules can clear on retry.
    ``on_done(index, value)`` runs after each task that succeeds: how
    an inline sweep checkpoints shard by shard inside its one chunk.  The
    telemetry (task span, measured wall seconds, worker pid) feeds
    :attr:`SweepStats.worker_events`.
    """
    t0 = time.perf_counter()
    outcomes: List[Tuple[int, bool, Any, Optional[str]]] = []
    for index, task in chunk:
        try:
            if faults is not None:
                action = faults.action(index, runs[index])
                if action == "crash":
                    os._exit(faults.exit_code)
                elif action == "hang":
                    time.sleep(faults.hang_seconds)
                elif action == "raise":
                    raise ProcFaultError(f"injected raise (task {index})")
            value = fn(task)
        except BaseException as exc:  # noqa: BLE001 — quarantine wants all
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            if fail_fast:
                outcomes.append((index, False, exc, traceback.format_exc()))
                break
            outcomes.append((index, False, None,
                             f"{type(exc).__name__}: {exc}"))
        else:
            if on_done is not None:
                on_done(index, value)
            outcomes.append((index, True, value, None))
    telemetry = {
        "lo": chunk[0][0],
        "hi": chunk[-1][0],
        "tasks": len(chunk),
        "wall_s": time.perf_counter() - t0,
        "pid": os.getpid(),
    }
    return outcomes, telemetry


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
    """State machine for one fan-out (see :func:`sweep_map`).

    ``policy=None`` is the zero policy: the first failure — ``fn``'s
    exception or a lost worker — is re-raised where it is seen, so none
    of the attribution below runs.  ``jobs == 1`` or at most one pending
    task runs *inline*: all of ``pending`` as one chunk through
    :func:`_submit_inline`, retries as single-task chunks the same way.

    Failure attribution protocol: when the pool breaks (a worker died)
    every in-flight chunk is *suspect* — guilt is unknowable pool-wide —
    so suspects re-run one at a time in isolation.  A chunk that fails
    alone is guilty: bisected while it holds more than one task,
    retried under the policy's backoff once it is a single task, and
    quarantined when retries exhaust.  A chunk that succeeds alone was
    an innocent bystander and is never penalized, which keeps the
    quarantine set a pure function of the fault schedule (not of the
    worker count or chunk geometry).
    """

    def __init__(self, fn: Callable[[Any], Any],
                 pending: List[Tuple[int, Any]], jobs: int,
                 chunk_size: Optional[int], start_method: str,
                 policy: Optional[SweepPolicy], stats: SweepStats,
                 proc_faults: Any,
                 checkpoint: Callable[[int, Any], None]) -> None:
        self.fn = fn
        self.jobs = jobs
        self.start_method = start_method
        self.policy = policy
        self.stats = stats
        self.faults = proc_faults
        self.checkpoint = checkpoint
        self.rng = policy.rng() if policy is not None else None
        self.inline = jobs == 1 or len(pending) <= 1
        if self.inline:
            chunk_size = len(pending)  # all of it as one chunk
        spans = shard_tasks(len(pending), jobs, chunk_size)
        self.queue: collections.deque = collections.deque(
            pending[lo:hi] for lo, hi in spans)
        self.suspects: collections.deque = collections.deque()
        self.inflight: Dict[Any, List[Tuple[int, Any]]] = {}
        self.deadlines: Dict[Any, float] = {}
        self.runs: Dict[int, int] = {index: 0 for index, _ in pending}
        self.attempts: Dict[int, int] = {index: 0 for index, _ in pending}
        self.gathered = 0
        self.pool: Optional[ProcessPoolExecutor] = None
        self.grace = POOL_SPINUP_GRACE.get(start_method,
                                           DEFAULT_SPINUP_GRACE)

    # -- pool lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            self.pool = ProcessPoolExecutor(max_workers=self.jobs,
                                            mp_context=ctx)
        return self.pool

    def _pool_lost(self, lost: List[List[Tuple[int, Any]]],
                   reason: str) -> List[List[Tuple[int, Any]]]:
        """Kill the pool the ``lost`` chunks died or hung in (the next
        submit builds a new one); returns the bystanders killed with it."""
        bystanders = list(self.inflight.values())
        self.inflight.clear()
        self.deadlines.clear()
        if self.pool is not None:
            _kill_pool(self.pool)
            self.pool = None
        self.stats.respawns += 1
        for chunk in lost:
            self.stats.recovery("worker_lost", reason=reason,
                                lo=chunk[0][0], hi=chunk[-1][0],
                                tasks=len(chunk))
        return bystanders

    def _submit(self, chunk: List[Tuple[int, Any]]) -> bool:
        """Submit one chunk; ``False`` if the pool broke under it."""
        submit = (_submit_inline if self.inline
                  else self._ensure_pool().submit)
        # inline checkpoints per task: a kill mid-chunk keeps what finished
        on_done = self.checkpoint if self.inline else None
        runs = {index: self.runs[index] + 1 for index, _ in chunk}
        try:
            future = submit(_run_chunk_guarded, self.fn, chunk, self.faults,
                            runs, self.policy is None, on_done)
        except BrokenExecutor:
            # A worker died since the last gather, so this chunk never
            # ran: back to the head of the queue, run counters untouched.
            # The in-flight futures carry the loss; _step attributes it.
            if self.policy is None or not self.inflight:
                raise
            self.queue.appendleft(chunk)
            return False
        self.runs.update(runs)
        self.inflight[future] = chunk
        if not self.inline:
            self.stats.chunks += 1
        if self.policy is not None and self.policy.task_timeout is not None:
            self.deadlines[future] = (
                time.monotonic()
                + self.policy.task_timeout * len(chunk) + self.grace)
        return True

    # -- failure handling ---------------------------------------------------
    def _penalize(self, chunk: List[Tuple[int, Any]], reason: str,
                  error: Optional[str] = None) -> None:
        """A chunk failed *attributably*: bisect or retry/quarantine."""
        if len(chunk) > 1:
            mid = len(chunk) // 2
            self.stats.recovery("chunk_retry", reason=reason,
                                action="bisect", lo=chunk[0][0],
                                hi=chunk[-1][0], tasks=len(chunk))
            self.stats.retried += 1
            self.queue.appendleft(chunk[mid:])
            self.queue.appendleft(chunk[:mid])
            return
        index = chunk[0][0]
        self.attempts[index] += 1
        attempt = self.attempts[index]
        message = error or f"worker {reason} while running task {index}"
        if attempt > self.policy.retry.max_retries:
            # sweep_map orders the manifest and emits its events
            self.stats.quarantined.append({"index": index, "key": None,
                                           "reason": reason,
                                           "error": message})
            return
        self.stats.retried += 1
        self.stats.recovery("chunk_retry", reason=reason, action="retry",
                            lo=index, hi=index, tasks=1, attempt=attempt)
        delay = self.policy.backoff_delay(attempt - 1, self.rng)
        if delay > 0.0:
            time.sleep(delay)
        self.queue.appendleft(list(chunk))

    # -- gather -------------------------------------------------------------
    def _absorb(self, chunk: List[Tuple[int, Any]],
                outcomes: List[Tuple[int, bool, Any, Optional[str]]],
                telemetry: Dict[str, Any]) -> None:
        self.gathered += 1
        task_by_index = dict(chunk)
        for index, ok, value, error in outcomes:
            if ok:
                if not self.inline:  # inline: done as the task finished
                    self.checkpoint(index, value)
            elif self.policy is None:
                # zero policy: the first failure ends the sweep as itself
                # (pickling dropped a worker's traceback: chain its text)
                if self.inline:
                    raise value
                raise value from RuntimeError(f"in the worker:\n{error}")
            else:
                self._penalize([(index, task_by_index[index])],
                               "error", error)
        self.stats.worker_events.append({
            "chunk": self.gathered - 1, "done": self.gathered,
            "total": self.gathered + len(self.queue)
            + len(self.suspects) + len(self.inflight), **telemetry,
        })

    # -- main loop ----------------------------------------------------------
    def run(self) -> None:
        try:
            while self.queue or self.suspects or self.inflight:
                self._top_up()
                if self.inflight:
                    self._step()
        finally:
            if self.pool is not None:
                _kill_pool(self.pool)
                self.pool = None

    def _top_up(self) -> None:
        """Keep exactly the runnable set submitted.

        Submitting no more chunks than workers means every in-flight
        chunk is actually *running*, so watchdog deadlines and crash
        attribution never implicate a chunk that was merely queued.
        While suspects exist they run strictly one at a time, alone in
        the pool, so a repeat failure identifies the guilty chunk.
        """
        if self.suspects:
            if not self.inflight:
                self._submit(self.suspects.popleft())
            return
        while self.queue and len(self.inflight) < self.jobs:
            if not self._submit(self.queue.popleft()):
                break

    def _step(self) -> None:
        timeout = None
        if self.deadlines:
            timeout = max(0.0, min(self.deadlines.values())
                          - time.monotonic())
        done, _ = wait(list(self.inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        broken: List[List[Tuple[int, Any]]] = []
        for future in done:
            chunk = self.inflight.pop(future)
            self.deadlines.pop(future, None)
            try:
                outcomes, telemetry = future.result()
            except (BrokenExecutor, OSError):
                # the worker died (or the result transport collapsed
                # with it) — guilt is attributed below, not here
                if self.policy is None:
                    raise
                broken.append(chunk)
                continue
            self._absorb(chunk, outcomes, telemetry)
        if broken:
            # The pool is dead: every still-in-flight chunk was killed
            # with it.  A lone broken chunk with no bystanders is
            # guilty by elimination; otherwise nobody can be blamed
            # pool-wide, so all of them re-run in isolation.
            bystanders = self._pool_lost(broken, "crash")
            if len(broken) == 1 and not bystanders:
                self._penalize(broken[0], "crash")
            else:
                self.suspects.extend(broken + bystanders)
            return
        if self.deadlines:
            now = time.monotonic()
            expired = [future for future, due in self.deadlines.items()
                       if now >= due and not future.done()]
            if expired:
                # chunks past their own deadline are hung (each deadline
                # already budgets for the chunk's size); the rest were
                # innocent pool-mates and re-run without penalty
                guilty = [self.inflight.pop(future) for future in expired]
                bystanders = self._pool_lost(guilty, "hang")
                for chunk in guilty:
                    self._penalize(chunk, "hang")
                for chunk in bystanders:
                    self.queue.appendleft(chunk)


def sweep_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: Optional[int] = None, *,
              cache: Optional[Any] = None,
              key_fn: Optional[Callable[[Any], str]] = None,
              chunk_size: Optional[int] = None,
              start_method: Optional[str] = None,
              stats: Optional[SweepStats] = None,
              policy: Optional[SweepPolicy] = None,
              journal_dir: Optional[str] = None,
              resume: bool = False,
              proc_faults: Optional[Any] = None) -> List[Any]:
    """``[fn(t) for t in tasks]`` with optional fan-out and caching.

    The result list is always in task order and bit-identical across
    worker counts (``fn`` must be a pure function of its task).  With
    ``jobs > 1``, ``fn`` must be module-level and each task picklable.
    Every call runs the same gather loop; the arguments set what it
    does about a failure and what it writes down:

    * ``policy=None`` is the **zero policy**: the first failure ends the
      sweep as itself — ``fn``'s exception re-raised with its own type
      at any ``jobs`` (an ``OSError`` from ``fn`` is never read as a
      lost worker), a crashed worker is ``BrokenProcessPool``, a hung
      one hangs.  Under a :class:`SweepPolicy` lost and hung workers are
      respawned, failing chunks bisected, poison tasks retried and then
      quarantined.
    * Each completed shard is ``put`` into ``cache`` as it is gathered
      (at ``jobs=1``: as each task finishes), so a sweep that dies
      keeps what it finished; with ``journal_dir``
      a :class:`~repro.par.journal.SweepJournal` line follows each put,
      and ``resume=True`` (requires ``cache`` and ``journal_dir``)
      re-executes only the shards a previous run did not complete.
    * ``proc_faults`` injects deterministic process-level failures
      (tests / ``repro chaos --proc-faults``).
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
    for index, task in enumerate(tasks):
        if cache is not None:
            keys[index] = key_fn(task)
            hit, results[index] = cache.lookup(keys[index])  # miss: None
            if hit:
                continue
        pending.append((index, task))

    stats.tasks = len(tasks)
    stats.executed = len(pending)
    stats.cache_hits = len(tasks) - len(pending)
    stats.jobs = jobs
    stats.chunks = 0

    journal: Optional[SweepJournal] = None
    if journal_dir is not None:
        sweep_id = stable_fingerprint(
            {"keys": keys} if cache is not None else {"n": len(tasks)})
        journal = SweepJournal(journal_path(journal_dir, sweep_id),
                               sweep_id, tasks=len(tasks), resume=resume)
        if journal.resumed:
            # shards the journal marks done *and* the cache restored
            stats.resumed = sum(results[index] is not None
                                for index in journal.done
                                if 0 <= index < len(tasks))
            stats.recovery("sweep_resume", done=stats.resumed,
                           tasks=len(tasks))

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
                    proc_faults, checkpoint).run()
        # index order: which poison task exhausts its retries first
        # depends on the chunk geometry, the manifest must not
        stats.quarantined.sort(key=lambda record: record["index"])
        for record in stats.quarantined:
            record["key"] = keys[record["index"]]
            event = stats.recovery(
                "task_quarantined", index=record["index"],
                reason=record["reason"], error=record["error"])
            if journal is not None:
                journal.event(key=record["key"], **event)
        if journal is not None:
            journal.finish(
                completed=len(tasks) - len(stats.quarantined),
                quarantined=[q["index"] for q in stats.quarantined])
    finally:
        if journal is not None:
            journal.close()

    if stats.quarantined and policy.strict:
        raise SweepQuarantineError(stats.quarantined)
    return results
