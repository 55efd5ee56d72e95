"""Parallel sweep execution and content-addressed result caching.

:func:`~repro.par.executor.sweep_map` fans independent shard
evaluations over a process pool with deterministic sharding and an
ordered gather (results bit-identical to serial order at any worker
count); :class:`~repro.par.cache.ResultCache` skips shards whose inputs
hash to an already-computed result.  See ``docs/api.md`` ("Parallel
sweeps & result cache").

There is one executor: without a
:class:`~repro.par.executor.SweepPolicy` the first failure ends the
sweep as itself; with one, lost and hung workers are respawned and
failing shards retried, then quarantined.  Shards go to the cache as
they finish, ``journal_dir``/``resume`` add checkpoint–resume; see
``docs/resilience.md`` ("Fault-tolerant sweeps").
"""

from repro.par.cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ResultCache,
    cache_key,
    default_cache_dir,
    stable_fingerprint,
)
from repro.par.executor import (
    DEFAULT_SWEEP_RETRY,
    ENV_JOBS,
    ENV_START_METHOD,
    STRAGGLER_FACTOR,
    SweepPolicy,
    SweepQuarantineError,
    SweepStats,
    default_start_method,
    resolve_jobs,
    shard_tasks,
    sweep_map,
)
from repro.par.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    read_journal,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_SWEEP_RETRY",
    "JOURNAL_SCHEMA",
    "STRAGGLER_FACTOR",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_JOBS",
    "ENV_START_METHOD",
    "ResultCache",
    "SweepJournal",
    "SweepPolicy",
    "SweepQuarantineError",
    "SweepStats",
    "cache_key",
    "default_cache_dir",
    "default_start_method",
    "journal_path",
    "read_journal",
    "resolve_jobs",
    "shard_tasks",
    "stable_fingerprint",
    "sweep_map",
]
