"""Supervised sweep execution: watchdog, retry, quarantine, resume."""

import argparse
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults import ProcFault, ProcFaultPlan
from repro.faults.plan import RetryPolicy
from repro.par import (
    DEFAULT_SWEEP_RETRY,
    ResultCache,
    SweepPolicy,
    SweepQuarantineError,
    SweepStats,
    read_journal,
    sweep_map,
)
from repro.par.cache import cache_key


# Module-level so process pools can pickle them by reference.
def _double(x):
    return 2 * x


def _key(task):
    return cache_key("supervised-test", task=task)


def _interrupt_at_three(x):
    if x == 3:
        raise KeyboardInterrupt
    return 2 * x


def _lenient(max_retries=2, task_timeout=None, seed=0):
    return SweepPolicy(task_timeout=task_timeout,
                       retry=RetryPolicy(timeout=30.0, backoff=0.0,
                                         backoff_cap=0.0,
                                         max_retries=max_retries),
                       seed=seed, strict=False)


class TestPolicy:
    def test_defaults(self):
        policy = SweepPolicy()
        assert policy.retry is DEFAULT_SWEEP_RETRY
        assert policy.strict
        assert policy.task_timeout is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"),
                                     float("nan")])
    def test_invalid_timeout_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepPolicy(task_timeout=bad)

    def test_retry_must_be_a_retry_policy(self):
        with pytest.raises(ValueError):
            SweepPolicy(retry={"max_retries": 3})

    def test_backoff_doubles_then_caps(self):
        policy = SweepPolicy(retry=RetryPolicy(timeout=1.0, backoff=0.1,
                                               backoff_cap=0.3,
                                               max_retries=5))
        assert policy.backoff_delay(0) == pytest.approx(0.1)
        assert policy.backoff_delay(1) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.3)  # capped

    def test_jitter_is_seeded(self):
        policy = SweepPolicy(seed=7)
        a = policy.backoff_delay(1, policy.rng())
        b = policy.backoff_delay(1, policy.rng())
        assert a == b
        assert 0.5 * 0.1 <= a <= 1.5 * 0.1


class TestValidation:
    def test_resume_requires_cache_and_journal(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True)
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True,
                      journal_dir=str(tmp_path))


class TestInjectedRaise:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("max_runs", [1, 2])
    def test_transient_raise_clears_on_retry(self, jobs, max_runs):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=3, max_runs=max_runs),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(6)), jobs=jobs, chunk_size=2,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [_double(t) for t in range(6)]
        assert stats.quarantined == []
        assert stats.retried == max_runs
        kinds = {ev["kind"] for ev in stats.recovery_events}
        assert "chunk_retry" in kinds

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_is_quarantined_not_fatal(self, jobs):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=2, max_runs=None),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(5)), jobs=jobs, chunk_size=2,
                        policy=_lenient(max_retries=1), stats=stats,
                        proc_faults=plan)
        assert out[2] is None
        assert [out[i] for i in (0, 1, 3, 4)] == [0, 2, 6, 8]
        assert len(stats.quarantined) == 1
        record = stats.quarantined[0]
        assert record["index"] == 2
        assert "injected raise" in record["error"]
        assert any(ev["kind"] == "task_quarantined"
                   for ev in stats.recovery_events)

    def test_strict_mode_re_raises_the_manifest(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=None),))
        policy = SweepPolicy(retry=RetryPolicy(timeout=1.0, backoff=0.0,
                                               backoff_cap=0.0,
                                               max_retries=1), strict=True)
        with pytest.raises(SweepQuarantineError) as excinfo:
            sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                      policy=policy, proc_faults=plan)
        assert [q["index"] for q in excinfo.value.quarantined] == [1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_is_in_index_order_at_any_jobs(self, jobs, tmp_path):
        # the second chunk's poison task exhausts its retries first
        # (the first chunk is slower), the manifest must not show it
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=None),
            ProcFault(kind="raise", index=3, max_runs=None)))
        policy = SweepPolicy(retry=_lenient(max_retries=1).retry)
        stats = SweepStats()
        with pytest.raises(SweepQuarantineError,
                           match=r"task 1 .*; task 3 ") as excinfo:
            sweep_map(_slow_start, list(range(4)), jobs=jobs,
                      chunk_size=2, policy=policy, stats=stats,
                      proc_faults=plan, journal_dir=str(tmp_path))
        assert [q["index"] for q in stats.quarantined] == [1, 3]
        assert [q["index"] for q in excinfo.value.quarantined] == [1, 3]
        assert [ev["index"] for ev in stats.recovery_events
                if ev["kind"] == "task_quarantined"] == [1, 3]
        records = read_journal(str(next(tmp_path.glob("sweep-*.jsonl"))))
        assert [r["index"] for r in records
                if r["kind"] == "task_quarantined"] == [1, 3]

    def test_real_exceptions_quarantine_with_type_and_message(self):
        stats = SweepStats()
        out = sweep_map(_bomb, list(range(4)), jobs=1,
                        policy=_lenient(max_retries=0), stats=stats)
        assert out == [0, None, 4, 6]
        assert stats.quarantined[0]["error"] == \
            "ValueError: task 1 exploded"


def _bomb(x):
    if x == 1:
        raise ValueError("task 1 exploded")
    return 2 * x


def _slow_start(x):
    if x < 2:
        time.sleep(0.1)
    return 2 * x


class TestCrashAndHang:
    def test_transient_crash_respawns_and_completes(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="crash", index=4, max_runs=1),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(8)), jobs=2, chunk_size=2,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [_double(t) for t in range(8)]
        assert stats.respawns >= 1
        assert any(ev["kind"] == "worker_lost" and ev["reason"] == "crash"
                   for ev in stats.recovery_events)
        assert stats.quarantined == []

    def test_transient_hang_is_caught_by_the_watchdog(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="hang", index=1, max_runs=1),),
            hang_seconds=30.0)
        stats = SweepStats()
        out = sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                        policy=_lenient(task_timeout=0.2), stats=stats,
                        proc_faults=plan)
        assert out == [_double(t) for t in range(4)]
        assert stats.respawns >= 1
        assert any(ev["kind"] == "worker_lost" and ev["reason"] == "hang"
                   for ev in stats.recovery_events)

    def test_quarantine_set_is_independent_of_geometry(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=2, max_runs=None),
            ProcFault(kind="raise", index=5, max_runs=None),
            ProcFault(kind="raise", index=0, max_runs=1),))
        quarantines = []
        for jobs, chunk_size in ((1, None), (2, 2), (3, 1)):
            stats = SweepStats()
            sweep_map(_double, list(range(7)), jobs=jobs,
                      chunk_size=chunk_size,
                      policy=_lenient(max_retries=1), stats=stats,
                      proc_faults=plan)
            quarantines.append(
                sorted(q["index"] for q in stats.quarantined))
        assert quarantines == [[2, 5]] * 3 == \
            [list(plan.poison_indices())] * 3


class _PoolThatBreaksOnce:
    """Pool stub: the first instance loses its worker between two
    submits — the first chunk's future breaks, the second ``submit``
    raises, exactly what ``ProcessPoolExecutor`` does when a child dies
    while the supervisor is topping up.  Later instances (the respawned
    pool) run every call in place."""

    instances = 0

    def __init__(self, max_workers=None, mp_context=None):
        type(self).instances += 1
        self.healthy = type(self).instances > 1
        self.submits = 0

    def submit(self, call, *args):
        self.submits += 1
        future = Future()
        if self.healthy:
            future.set_result(call(*args))
        elif self.submits == 1:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            raise BrokenProcessPool("worker died")
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSubmitOnABrokenPool:
    @pytest.fixture(autouse=True)
    def _stub_pool(self, monkeypatch):
        from repro.par import executor

        monkeypatch.setattr(_PoolThatBreaksOnce, "instances", 0)
        monkeypatch.setattr(executor, "ProcessPoolExecutor",
                            _PoolThatBreaksOnce)

    def test_unsubmitted_chunk_goes_back_unpenalized(self):
        # task 1's transient fault fires on its run 1: it must still be
        # armed when the chunk finally runs, i.e. the refused submit did
        # not advance the run counter
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=1),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [_double(t) for t in range(4)]
        assert stats.respawns == 1 and stats.quarantined == []
        retries = [(ev["reason"], ev["lo"]) for ev in stats.recovery_events
                   if ev["kind"] == "chunk_retry"]
        assert sorted(retries) == [("crash", 0), ("error", 1)]

    def test_zero_policy_reports_the_lost_worker(self):
        with pytest.raises(BrokenProcessPool):
            sweep_map(_double, list(range(4)), jobs=2, chunk_size=1)


class TestCheckpointResume:
    def test_completed_shards_checkpoint_incrementally(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        stats = SweepStats()
        out = sweep_map(_double, list(range(6)), jobs=2, chunk_size=2,
                        cache=cache, key_fn=_key, policy=SweepPolicy(),
                        journal_dir=str(tmp_path), stats=stats)
        assert out == [_double(t) for t in range(6)]
        journals = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(journals) == 1
        records = read_journal(str(journals[0]))
        done = sorted(r["index"] for r in records
                      if r["kind"] == "shard_done")
        assert done == list(range(6))
        assert records[-1] == {"kind": "sweep_end", "completed": 6,
                               "quarantined": []}
        # every journaled shard is restorable from the cache
        for task in range(6):
            hit, value = cache.lookup(_key(task))
            assert hit and value == _double(task)

    @pytest.mark.parametrize("policy", [None, SweepPolicy()])
    def test_serial_sweep_killed_midway_keeps_finished_shards(
            self, policy, tmp_path):
        # jobs=1 is one in-process chunk: a shard must be durable when
        # its task finishes, not when the chunk is gathered
        kwargs = dict(jobs=1, key_fn=_key, policy=policy,
                      journal_dir=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            sweep_map(_interrupt_at_three, list(range(6)),
                      cache=ResultCache(directory=str(tmp_path)), **kwargs)
        journal, = tmp_path.glob("sweep-*.jsonl")
        assert [r["index"] for r in read_journal(str(journal))
                if r["kind"] == "shard_done"] == [0, 1, 2]
        with open(journal, "a") as fh:  # indices no sweep of 6 wrote
            fh.write('{"index":7,"kind":"shard_done"}\n'
                     '{"index":-1,"kind":"shard_done"}\n')
        stats = SweepStats()
        out = sweep_map(_double, list(range(6)), resume=True, stats=stats,
                        cache=ResultCache(directory=str(tmp_path)), **kwargs)
        assert out == [_double(t) for t in range(6)]
        assert stats.resumed == 3 and stats.executed == 3

    def test_resume_restores_and_skips_completed_shards(self, tmp_path):
        tasks = list(range(6))
        kwargs = dict(cache=ResultCache(directory=str(tmp_path)),
                      key_fn=_key, journal_dir=str(tmp_path))
        first = sweep_map(_double, tasks, jobs=2, policy=SweepPolicy(),
                          **kwargs)
        stats = SweepStats()
        kwargs["cache"] = ResultCache(directory=str(tmp_path))
        again = sweep_map(_double, tasks, jobs=2, resume=True,
                          stats=stats, **kwargs)
        assert again == first
        assert stats.resumed == len(tasks)
        assert stats.executed == 0
        assert any(ev["kind"] == "sweep_resume"
                   for ev in stats.recovery_events)

    def test_quarantines_carry_cache_keys(self, tmp_path):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=None),))
        stats = SweepStats()
        sweep_map(_double, list(range(3)), jobs=1,
                  cache=ResultCache(directory=str(tmp_path)), key_fn=_key,
                  policy=_lenient(max_retries=0), stats=stats,
                  proc_faults=plan, journal_dir=str(tmp_path))
        assert stats.quarantined[0]["key"] == _key(1)
        journals = list(tmp_path.glob("sweep-*.jsonl"))
        records = read_journal(str(journals[0]))
        quarantine = [r for r in records
                      if r["kind"] == "task_quarantined"]
        assert quarantine and quarantine[0]["index"] == 1
        end = records[-1]
        assert end == {"kind": "sweep_end", "completed": 2,
                       "quarantined": [1]}


class TestStatsRecovery:
    def test_to_dict_has_a_recovery_section(self):
        stats = SweepStats()
        stats.retried = 2
        stats.respawns = 1
        stats.quarantined.append({"index": 3, "key": None,
                                  "reason": "error", "error": "boom"})
        stats.recovery("worker_lost", reason="crash", lo=0, hi=1, tasks=2)
        payload = stats.to_dict()["recovery"]
        assert payload["retried"] == 2
        assert payload["respawns"] == 1
        assert payload["quarantined"][0]["index"] == 3
        assert payload["events"][0]["kind"] == "worker_lost"

    def test_straggler_threshold_uses_the_true_median(self):
        # walls [2, 2, 4, 7]: true median 3 flags the 7 s chunk at
        # factor 2; the old upper-median (4) would have required 8 s.
        stats = SweepStats()
        for chunk, wall in enumerate((2.0, 2.0, 4.0, 7.0)):
            stats.worker_events.append(
                {"chunk": chunk, "lo": chunk, "hi": chunk, "tasks": 1,
                 "done": chunk + 1, "total": 4, "wall_s": wall, "pid": 1})
        assert [ev["chunk"] for ev in stats.stragglers()] == [3]


class TestCliOpts:
    def _ns(self, **overrides):
        ns = argparse.Namespace(max_retries=None, task_timeout=None,
                                resume=False)
        for name, value in overrides.items():
            setattr(ns, name, value)
        return ns

    def test_no_flags_means_zero_policy(self):
        from repro.par.cliopts import supervision_from_args

        assert supervision_from_args(self._ns(), None) == \
            (None, None, False)

    def test_any_flag_opts_in(self, tmp_path):
        from repro.par.cliopts import supervision_from_args

        cache = ResultCache(directory=str(tmp_path))
        policy, journal_dir, resume = supervision_from_args(
            self._ns(max_retries=5, resume=True), cache)
        assert policy.retry.max_retries == 5
        assert policy.retry.backoff == DEFAULT_SWEEP_RETRY.backoff
        assert journal_dir == cache.directory
        assert resume

    def test_parser_round_trip(self):
        from repro.par.cliopts import (
            add_supervision_args,
            supervision_from_args,
        )

        parser = argparse.ArgumentParser()
        add_supervision_args(parser)
        ns = parser.parse_args(["--task-timeout", "2.5"])
        policy, journal_dir, resume = supervision_from_args(ns, None)
        assert policy.task_timeout == 2.5
        assert journal_dir is None and not resume
