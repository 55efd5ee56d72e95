"""The one failure rule of a sweep, its watchdog, checkpoints and resume."""

import argparse
import ast
import dataclasses
import inspect
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.par import (
    ResultCache,
    SweepJournal,
    SweepPolicy,
    SweepStats,
    journal_path,
    read_journal,
    sweep_map,
)
from repro.par.cache import cache_key

TASKS = list(range(6))


# Module-level so process pools can pickle them by reference.
def _double(x):
    return 2 * x


def _key(task):
    return cache_key("supervised-test", task=task)


def _interrupt_at_three(x):
    if x == 3:
        raise KeyboardInterrupt
    return 2 * x


def _bomb_at_four(x):
    if x == 4:
        raise ValueError("task 4 exploded")
    return 2 * x


def _exit_at_four(x):
    if x == 4:
        os._exit(3)  # the worker dies without a word
    return 2 * x


def _hang_at_one(x):
    if x == 1:
        time.sleep(60.0)
    return 2 * x


def _none_when_odd(x):
    return None if x % 2 else 2 * x


each_jobs = pytest.mark.parametrize("jobs", [1, 2])


def _journaled(tmp_path, **kwargs):
    return dict(cache=ResultCache(directory=str(tmp_path)), key_fn=_key,
                journal_dir=str(tmp_path), **kwargs)


def _journal_done(tmp_path):
    journal, = tmp_path.glob("sweep-*.jsonl")
    return sorted(r["index"] for r in read_journal(str(journal))
                  if r["kind"] == "shard_done")


class TestPolicy:
    def test_task_timeout_is_the_one_field(self):
        assert [f.name for f in dataclasses.fields(SweepPolicy)] == \
            ["task_timeout"]
        assert SweepPolicy().task_timeout is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"),
                                     float("nan")])
    def test_invalid_timeout_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepPolicy(task_timeout=bad)

    def test_sweep_map_takes_no_fault_injector(self):
        assert list(inspect.signature(sweep_map).parameters) == [
            "fn", "tasks", "jobs", "cache", "key_fn", "chunk_size",
            "start_method", "stats", "policy", "journal_dir", "resume"]

    def test_par_does_not_import_faults(self):
        import repro.par

        for path in pathlib.Path(repro.par.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            names = [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
            names += [node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module]
            assert not [n for n in names if n.startswith("repro.faults")], \
                path.name


class TestValidation:
    def test_resume_requires_cache_and_journal(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True)
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True,
                      journal_dir=str(tmp_path))


class TestFirstFailureEndsTheSweep:
    @each_jobs
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_finished_shards_survive_and_resume_runs_the_rest(
            self, jobs, chunk_size, tmp_path):
        kwargs = dict(jobs=jobs, chunk_size=chunk_size,
                      policy=SweepPolicy())
        with pytest.raises(ValueError, match="task 4 exploded"):
            sweep_map(_bomb_at_four, TASKS,
                      **_journaled(tmp_path, **kwargs))
        done = _journal_done(tmp_path)
        assert 4 not in done
        if chunk_size == 3:
            assert 3 in done  # its chunk-mate before the failure
        stats = SweepStats()
        out = sweep_map(_double, TASKS, resume=True, stats=stats,
                        **_journaled(tmp_path, **kwargs))
        assert out == [_double(t) for t in TASKS]
        assert stats.resumed == len(done)
        assert stats.executed == len(TASKS) - len(done)

    @pytest.mark.parametrize("policy", [None, SweepPolicy()],
                             ids=["no-policy", "policy"])
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_a_lost_worker_is_broken_process_pool(self, policy, chunk_size,
                                                  tmp_path):
        kwargs = dict(jobs=2, chunk_size=chunk_size, policy=policy)
        with pytest.raises(BrokenProcessPool):
            sweep_map(_exit_at_four, TASKS,
                      **_journaled(tmp_path, **kwargs))
        done = _journal_done(tmp_path)
        assert 4 not in done
        stats = SweepStats()
        out = sweep_map(_double, TASKS, resume=True, stats=stats,
                        **_journaled(tmp_path, **kwargs))
        assert out == sweep_map(_double, TASKS, jobs=1)
        assert stats.executed == len(TASKS) - len(done)
        assert _journal_done(tmp_path) == TASKS


class TestWatchdog:
    @pytest.mark.parametrize("chunk_size, span", [(1, "1-1"), (2, "0-1")])
    def test_a_hung_chunk_ends_the_sweep_with_a_timeout(
            self, chunk_size, span, tmp_path):
        kwargs = dict(jobs=2, chunk_size=chunk_size,
                      policy=SweepPolicy(task_timeout=0.5))
        t0 = time.monotonic()
        with pytest.raises(TimeoutError) as excinfo:
            sweep_map(_hang_at_one, TASKS, **_journaled(tmp_path, **kwargs))
        assert time.monotonic() - t0 < 15.0
        message = str(excinfo.value)
        assert f"tasks {span} " in message
        assert f"0.5 s per task x {chunk_size} tasks" in message
        # killed workers can take a moment to become reapable
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert multiprocessing.active_children() == []
        done = _journal_done(tmp_path)
        assert 1 not in done
        stats = SweepStats()
        out = sweep_map(_double, TASKS, resume=True, stats=stats,
                        **_journaled(tmp_path, **kwargs))
        assert out == [_double(t) for t in TASKS]
        assert stats.executed == len(TASKS) - len(done)


class _BrokenPool:
    """Pool stub: the first chunk's future breaks and the next
    ``submit`` raises — what ``ProcessPoolExecutor`` does when a child
    dies while the gather loop is topping up."""

    def __init__(self, max_workers=None, mp_context=None):
        self.submits = 0

    def submit(self, call, *args):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("worker died")
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSubmitOnABrokenPool:
    @pytest.mark.parametrize("policy", [None, SweepPolicy()],
                             ids=["no-policy", "policy"])
    def test_the_lost_worker_is_reported(self, policy, monkeypatch):
        from repro.par import executor

        monkeypatch.setattr(executor, "ProcessPoolExecutor", _BrokenPool)
        with pytest.raises(BrokenProcessPool):
            sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                      policy=policy)


class TestCheckpointResume:
    def test_completed_shards_checkpoint_incrementally(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        out = sweep_map(_double, TASKS, jobs=2, chunk_size=2,
                        cache=cache, key_fn=_key, policy=SweepPolicy(),
                        journal_dir=str(tmp_path))
        assert out == [_double(t) for t in TASKS]
        journal, = tmp_path.glob("sweep-*.jsonl")
        records = read_journal(str(journal))
        assert _journal_done(tmp_path) == TASKS
        assert records[-1] == {"kind": "sweep_end", "completed": 6}
        # every journaled shard is restorable from the cache
        for task in TASKS:
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
            sweep_map(_interrupt_at_three, TASKS,
                      cache=ResultCache(directory=str(tmp_path)), **kwargs)
        journal, = tmp_path.glob("sweep-*.jsonl")
        assert _journal_done(tmp_path) == [0, 1, 2]
        with open(journal, "a") as fh:  # indices no sweep of 6 wrote
            fh.write('{"index":7,"kind":"shard_done"}\n'
                     '{"index":-1,"kind":"shard_done"}\n')
        stats = SweepStats()
        out = sweep_map(_double, TASKS, resume=True, stats=stats,
                        cache=ResultCache(directory=str(tmp_path)), **kwargs)
        assert out == [_double(t) for t in TASKS]
        assert stats.resumed == 3 and stats.executed == 3

    def test_resume_restores_and_skips_completed_shards(self, tmp_path):
        first = sweep_map(_double, TASKS, jobs=2, policy=SweepPolicy(),
                          **_journaled(tmp_path))
        stats = SweepStats()
        again = sweep_map(_double, TASKS, jobs=2, resume=True,
                          stats=stats, **_journaled(tmp_path))
        assert again == first
        assert stats.resumed == len(TASKS)
        assert stats.executed == 0

    @each_jobs
    def test_resumed_counts_shards_whose_value_is_none(self, jobs,
                                                        tmp_path):
        first = sweep_map(_none_when_odd, TASKS, jobs=jobs,
                          **_journaled(tmp_path))
        assert first[1] is None
        stats = SweepStats()
        again = sweep_map(_none_when_odd, TASKS, jobs=jobs, resume=True,
                          stats=stats, **_journaled(tmp_path))
        assert again == first
        assert stats.cache_hits == stats.resumed == len(TASKS)

    def test_resume_after_a_torn_journal_line_then_resume_again(
            self, tmp_path):
        kwargs = dict(jobs=1, policy=SweepPolicy())
        with pytest.raises(KeyboardInterrupt):
            sweep_map(_interrupt_at_three, TASKS,
                      **_journaled(tmp_path, **kwargs))
        journal, = tmp_path.glob("sweep-*.jsonl")
        with open(journal, "a") as fh:  # killed mid-write of a line
            fh.write('{"index":3,"kind":"shard_do')
        stats = SweepStats()
        out = sweep_map(_double, TASKS, resume=True, stats=stats,
                        **_journaled(tmp_path, **kwargs))
        assert out == [_double(t) for t in TASKS]
        assert (stats.resumed, stats.executed) == (3, 3)
        # the resumed run's own records are readable, so a second
        # resume finds every shard done
        assert _journal_done(tmp_path) == TASKS
        stats = SweepStats()
        sweep_map(_double, TASKS, resume=True, stats=stats,
                  **_journaled(tmp_path, **kwargs))
        assert (stats.resumed, stats.executed) == (6, 0)

    def test_a_new_journal_starts_on_its_own_line(self, tmp_path):
        path = journal_path(str(tmp_path), "abc")
        with open(path, "w") as fh:
            fh.write('{"kind":"sweep_start","sweep_id":"abc","tas')
        with SweepJournal(path, "abc", tasks=2) as journal:
            journal.shard_done(0)
        assert [r["kind"] for r in read_journal(path)] == \
            ["sweep_start", "shard_done"]


class TestStats:
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
        ns = argparse.Namespace(task_timeout=None, resume=False)
        for name, value in overrides.items():
            setattr(ns, name, value)
        return ns

    def test_no_flags_means_no_policy(self):
        from repro.par.cliopts import supervision_from_args

        assert supervision_from_args(self._ns(), None) == \
            (None, None, False)

    def test_resume_journals_under_the_cache(self, tmp_path):
        from repro.par.cliopts import supervision_from_args

        cache = ResultCache(directory=str(tmp_path))
        policy, journal_dir, resume = supervision_from_args(
            self._ns(resume=True), cache)
        assert policy == SweepPolicy()
        assert journal_dir == cache.directory
        assert resume

    def test_a_deadline_without_a_disk_cache_journals_nothing(self):
        from repro.par.cliopts import supervision_from_args

        assert supervision_from_args(self._ns(task_timeout=1.0), None) == \
            (SweepPolicy(task_timeout=1.0), None, False)

    def test_parser_round_trip(self, tmp_path):
        from repro.par.cliopts import (
            add_supervision_args,
            supervision_from_args,
        )

        parser = argparse.ArgumentParser()
        add_supervision_args(parser)
        ns = parser.parse_args(["--task-timeout", "2.5"])
        cache = ResultCache(directory=str(tmp_path))
        policy, journal_dir, resume = supervision_from_args(ns, cache)
        assert policy.task_timeout == 2.5
        assert journal_dir == cache.directory and not resume
        with pytest.raises(SystemExit):
            parser.parse_args(["--max-retries", "2"])
