"""The sweep executor: sharding, ordering, env plumbing, caching."""

import pytest

from repro.par import (
    ENV_JOBS,
    ENV_START_METHOD,
    ResultCache,
    SweepPolicy,
    SweepStats,
    default_start_method,
    resolve_jobs,
    shard_tasks,
    stable_fingerprint,
    sweep_map,
)


# Module-level so process pools can pickle them by reference.
def _square(x):
    return x * x


def _sum_pair(spec):
    a, b = spec
    return a + b


def _boom(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


def _missing(x):
    if x == 3:
        raise FileNotFoundError("task 3 has no input file")
    return x


#: one executor: every argument combination runs the same loop, so the
#: basic contract is checked on each — no policy (the zero policy) and
#: a policy, in process and on a pool
each_policy = pytest.mark.parametrize(
    "policy", [None, SweepPolicy()], ids=["zero-policy", "policy"])
each_jobs = pytest.mark.parametrize("jobs", [1, 2])


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_jobs(3) == 3

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) == 5

    @pytest.mark.parametrize("bad", ["x", "1.5", "-2"])
    def test_bad_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv(ENV_JOBS, bad)
        with pytest.raises(ValueError):
            resolve_jobs(None)

    @pytest.mark.parametrize("bad", ["0", "-3", "oops"])
    def test_env_sourced_errors_name_the_variable(self, monkeypatch, bad):
        # the caller never passed this value — the fix is $REPRO_JOBS,
        # so the error must say so
        monkeypatch.setenv(ENV_JOBS, bad)
        with pytest.raises(ValueError, match=r"\$REPRO_JOBS"):
            resolve_jobs(None)

    def test_argument_errors_do_not_blame_the_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "4")
        with pytest.raises(ValueError, match="jobs must be") as excinfo:
            resolve_jobs(-1)
        assert "REPRO_JOBS" not in str(excinfo.value)

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_bad_argument_raises(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


class TestShardTasks:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 100])
    @pytest.mark.parametrize("jobs", [1, 2, 4, 9])
    def test_chunks_cover_range_contiguously(self, n, jobs):
        spans = shard_tasks(n, jobs)
        covered = [i for lo, hi in spans for i in range(lo, hi)]
        assert covered == list(range(n))

    def test_pure_function_of_inputs(self):
        assert shard_tasks(100, 4) == shard_tasks(100, 4)

    def test_explicit_chunk_size(self):
        assert shard_tasks(5, 2, chunk_size=2) == [(0, 2), (2, 4), (4, 5)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shard_tasks(-1, 2)
        with pytest.raises(ValueError):
            shard_tasks(5, 2, chunk_size=0)


class TestSweepMap:
    @each_policy
    @each_jobs
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_matches_list_comprehension(self, policy, jobs, chunk_size):
        tasks = list(range(20))
        out = sweep_map(_square, tasks, jobs=jobs, chunk_size=chunk_size,
                        policy=policy)
        assert out == [t * t for t in tasks]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial_order(self, jobs):
        tasks = list(range(23))
        serial = sweep_map(_square, tasks, jobs=1)
        assert sweep_map(_square, tasks, jobs=jobs) == serial

    def test_tuple_specs_fan_out(self):
        tasks = [(i, 10 * i) for i in range(9)]
        assert sweep_map(_sum_pair, tasks, jobs=2) == \
            [a + b for a, b in tasks]

    @each_policy
    @each_jobs
    def test_empty_tasks(self, policy, jobs):
        assert sweep_map(_square, [], jobs=jobs, policy=policy) == []

    def test_env_jobs_applies(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "2")
        stats = SweepStats()
        out = sweep_map(_square, list(range(8)), stats=stats)
        assert out == [i * i for i in range(8)]
        assert stats.jobs == 2
        assert stats.chunks > 1

    def test_spawn_start_method(self):
        # Task specs and results must survive the stricter spawn path.
        tasks = list(range(10))
        out = sweep_map(_square, tasks, jobs=2, start_method="spawn")
        assert out == [t * t for t in tasks]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="task 3 exploded"):
            sweep_map(_boom, list(range(8)), jobs=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="task 3 exploded"):
            sweep_map(_boom, list(range(8)), jobs=1)

    @each_jobs
    def test_oserror_from_fn_is_not_a_lost_worker(self, jobs):
        # FileNotFoundError is an OSError, which is also what a
        # collapsed result transport raises: it must come back as
        # itself, not be answered with a pool respawn
        stats = SweepStats()
        with pytest.raises(FileNotFoundError, match="no input file"):
            sweep_map(_missing, list(range(8)), jobs=jobs, stats=stats)
        assert stats.respawns == 0 and stats.recovery_events == []

    def test_stats_serial(self):
        stats = SweepStats()
        sweep_map(_square, list(range(5)), jobs=1, stats=stats)
        assert stats.tasks == 5
        assert stats.executed == 5
        assert stats.cache_hits == 0
        assert stats.chunks == 0  # no pool in serial mode


class TestSweepMapCache:
    @staticmethod
    def _key(task):
        return stable_fingerprint(("square", task))

    @each_policy
    @each_jobs
    def test_cache_requires_key_fn(self, policy, jobs):
        with pytest.raises(ValueError, match="key_fn"):
            sweep_map(_square, [1], jobs=jobs, policy=policy,
                      cache=ResultCache())

    def test_warm_rerun_executes_nothing(self):
        cache = ResultCache()
        tasks = list(range(12))
        cold = sweep_map(_square, tasks, jobs=1, cache=cache,
                         key_fn=self._key)
        stats = SweepStats()
        warm = sweep_map(_square, tasks, jobs=1, cache=cache,
                         key_fn=self._key, stats=stats)
        assert warm == cold
        assert stats.executed == 0
        assert stats.cache_hits == len(tasks)

    def test_warm_sweep_builds_no_pool(self, monkeypatch, tmp_path):
        from repro.par import executor

        cache = ResultCache(directory=str(tmp_path))
        kwargs = dict(jobs=2, cache=cache, key_fn=self._key,
                      policy=SweepPolicy(), journal_dir=str(tmp_path))
        tasks = list(range(12))
        cold = sweep_map(_square, tasks, **kwargs)

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached sweep built a pool")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(executor, "_submit_inline", no_pool)
        stats = SweepStats()
        assert sweep_map(_square, tasks, stats=stats, **kwargs) == cold
        assert stats.executed == 0 and stats.chunks == 0
        assert stats.worker_events == []

    def test_partial_hits_only_run_misses(self):
        cache = ResultCache()
        sweep_map(_square, [0, 1, 2], jobs=1, cache=cache, key_fn=self._key)
        stats = SweepStats()
        out = sweep_map(_square, [0, 1, 2, 3, 4], jobs=1, cache=cache,
                        key_fn=self._key, stats=stats)
        assert out == [0, 1, 4, 9, 16]
        assert stats.cache_hits == 3
        assert stats.executed == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_cold_then_warm_identical(self, jobs, tmp_path):
        tasks = list(range(10))
        cold_cache = ResultCache(directory=str(tmp_path))
        cold = sweep_map(_square, tasks, jobs=jobs, cache=cold_cache,
                         key_fn=self._key)
        warm_cache = ResultCache(directory=str(tmp_path))
        warm = sweep_map(_square, tasks, jobs=jobs, cache=warm_cache,
                         key_fn=self._key)
        assert warm == cold
        assert warm_cache.misses == 0
        assert warm_cache.disk_hits == len(tasks)


class TestStartMethod:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_START_METHOD, "spawn")
        assert default_start_method() == "spawn"

    def test_default_is_available(self, monkeypatch):
        monkeypatch.delenv(ENV_START_METHOD, raising=False)
        import multiprocessing

        assert default_start_method() in \
            multiprocessing.get_all_start_methods()


class TestFleetTelemetry:
    def _event(self, chunk, wall_s, pid=1000):
        return {"chunk": chunk, "lo": chunk, "hi": chunk, "tasks": 1,
                "done": chunk + 1, "total": 4, "wall_s": wall_s,
                "pid": pid}

    def test_serial_sweep_emits_one_heartbeat(self):
        import os

        stats = SweepStats()
        sweep_map(_square, list(range(5)), jobs=1, stats=stats)
        assert len(stats.worker_events) == 1
        beat = stats.worker_events[0]
        assert beat["chunk"] == 0
        assert (beat["lo"], beat["hi"]) == (0, 4)
        assert beat["tasks"] == 5
        assert (beat["done"], beat["total"]) == (1, 1)
        assert beat["wall_s"] >= 0.0
        assert beat["pid"] == os.getpid()

    def test_parallel_sweep_emits_per_chunk_heartbeats(self):
        stats = SweepStats()
        sweep_map(_square, list(range(16)), jobs=2, stats=stats)
        assert len(stats.worker_events) == stats.chunks > 1
        assert [ev["done"] for ev in stats.worker_events] == \
            list(range(1, stats.chunks + 1))
        assert all(ev["total"] == stats.chunks
                   for ev in stats.worker_events)
        covered = sorted(i for ev in stats.worker_events
                         for i in range(ev["lo"], ev["hi"] + 1))
        assert covered == list(range(16))
        assert all(ev["wall_s"] >= 0.0 and ev["pid"] > 0
                   for ev in stats.worker_events)

    def test_stragglers_flags_slow_chunks(self):
        stats = SweepStats()
        stats.worker_events = [self._event(0, 0.1), self._event(1, 0.1),
                               self._event(2, 0.1), self._event(3, 0.5)]
        assert [ev["chunk"] for ev in stats.stragglers()] == [3]
        # a 1.4x chunk is within the default 2x band
        stats.worker_events[3] = self._event(3, 0.14)
        assert stats.stragglers() == []
        # ... but a tighter factor flags it
        assert [ev["chunk"] for ev in stats.stragglers(factor=1.2)] == [3]

    def test_stragglers_need_a_population(self):
        stats = SweepStats()
        stats.worker_events = [self._event(0, 0.1), self._event(1, 9.0)]
        assert stats.stragglers() == []

    def test_stragglers_factor_validation(self):
        with pytest.raises(ValueError, match="factor"):
            SweepStats().stragglers(factor=1.0)

    def test_cache_hit_rate(self):
        assert SweepStats().cache_hit_rate == 0.0
        assert SweepStats(tasks=4, cache_hits=1).cache_hit_rate == 0.25

    def test_to_dict_shape(self):
        stats = SweepStats(tasks=4, executed=3, cache_hits=1, jobs=2,
                           chunks=4)
        stats.worker_events = [self._event(i, 0.1) for i in range(4)]
        out = stats.to_dict()
        assert out["tasks"] == 4 and out["cache_hit_rate"] == 0.25
        fleet = out["fleet"]
        assert fleet["jobs"] == 2 and fleet["chunks"] == 4
        assert len(fleet["heartbeats"]) == 4
        assert fleet["stragglers"] == []
