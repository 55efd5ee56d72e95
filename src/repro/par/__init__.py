"""Parallel sweep execution and content-addressed result caching.

:func:`~repro.par.executor.sweep_map` fans independent shard
evaluations over a process pool with deterministic sharding and an
ordered gather (results bit-identical to serial order at any worker
count); :class:`~repro.par.cache.ResultCache` skips shards whose inputs
hash to an already-computed result.  See ``docs/api.md`` ("Parallel
sweeps & result cache").

There is one executor and one failure rule: the first failure — an
exception from a shard, a lost worker, or a chunk past the
:class:`~repro.par.executor.SweepPolicy` deadline — ends the sweep.
Shards go to the cache as they finish, and ``journal_dir``/``resume``
re-run only the shards a failed or killed sweep left missing; see
``docs/resilience.md`` ("Fault-tolerant sweep execution").
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
    ENV_JOBS,
    ENV_START_METHOD,
    STRAGGLER_FACTOR,
    SweepPolicy,
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
    "JOURNAL_SCHEMA",
    "STRAGGLER_FACTOR",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_JOBS",
    "ENV_START_METHOD",
    "ResultCache",
    "SweepJournal",
    "SweepPolicy",
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
