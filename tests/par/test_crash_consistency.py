"""Crash consistency: SIGKILL mid-sweep, then resume bit-identically.

The property under test (ISSUE 8 satellite): killing a supervised sweep
at an arbitrary moment leaves the cache *consistent* — every shard the
journal marks done has a restorable, correct cache value — and
``resume=True`` re-executes only the missing shards, producing results
bit-identical to a fault-free serial run at any worker count, under
both ``fork`` and ``spawn`` start methods.
"""

import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.par import ResultCache, SweepPolicy, SweepStats, sweep_map
from repro.par.cache import cache_key
from repro.par.journal import read_journal

N_TASKS = 24

#: the sweep the child runs and the parent resumes — must stay in sync
#: with _CHILD below
_CHILD = """\
import sys, time

sys.path.insert(0, {src!r})

from repro.par import ResultCache, SweepPolicy, sweep_map
from repro.par.cache import cache_key


def slow_square(x):
    time.sleep(0.08)
    return x * x


if __name__ == "__main__":
    cache = ResultCache(directory={workdir!r})
    sweep_map(slow_square, list(range({n})), jobs=2, chunk_size=2,
              cache=cache,
              key_fn=lambda t: cache_key("crash-consistency", task=t),
              policy=SweepPolicy(), journal_dir={workdir!r},
              start_method={start_method!r})
"""


def _slow_square(x):
    # parent-side copy of the child's shard function (same math, no
    # sleep — resume correctness is about values, not timing)
    return x * x


def _key(task):
    return cache_key("crash-consistency", task=task)


def _start_methods():
    methods = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in methods]


def _run_and_kill(tmp_path, state, start_method):
    """Launch the sweep in a subprocess and SIGKILL it mid-flight.

    Waits for the journal to record a few completed shards first so the
    kill lands in the interesting window; if the sweep finishes before
    the kill, the property still holds (resume of a complete journal is
    a no-op) — the assertions below do not depend on winning the race.
    """
    script = tmp_path / "child_sweep.py"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "src")
    script.write_text(_CHILD.format(src=os.path.abspath(src),
                                    workdir=str(state), n=N_TASKS,
                                    start_method=start_method))
    # its own session, so the kill reaches the pool workers too: a
    # SIGKILLed interpreter cannot stop its children itself
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done = _journal_done(state)
            if done is not None and len(done) >= 3:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group is already gone
        proc.wait(timeout=60.0)
    # the orphaned workers are reaped by init; until then the group exists
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    pytest.fail("sweep workers outlived the kill")


def _journal_done(state):
    journals = list(state.glob("sweep-*.jsonl"))
    if not journals:
        return None
    return {r["index"] for r in read_journal(str(journals[0]))
            if r.get("kind") == "shard_done"}


@pytest.mark.parametrize("start_method", _start_methods())
class TestKillAndResume:
    def test_cache_is_consistent_and_resume_is_bit_identical(
            self, tmp_path, start_method):
        state = tmp_path / "state"
        state.mkdir()
        _run_and_kill(tmp_path, state, start_method)

        done = _journal_done(state)
        assert done is not None, "journal never appeared"

        # 1. Consistency: every journaled shard has a correct,
        #    restorable cache value (the cache put precedes the journal
        #    line, so a kill can orphan a cache entry but never journal
        #    a shard whose value is missing).
        cache = ResultCache(directory=str(state))
        for index in sorted(done):
            hit, value = cache.lookup(_key(index))
            assert hit, f"journaled shard {index} has no cache entry"
            assert value == index * index

        # 2. Resume at jobs=1 and jobs=4 from identical copies of the
        #    interrupted state: both must re-execute only the missing
        #    shards and agree bit-for-bit with the fault-free serial
        #    sweep.
        expected = [x * x for x in range(N_TASKS)]
        outputs = []
        for jobs in (1, 4):
            workdir = tmp_path / f"resume-jobs{jobs}"
            shutil.copytree(state, workdir)
            stats = SweepStats()
            out = sweep_map(
                _slow_square, list(range(N_TASKS)), jobs=jobs,
                cache=ResultCache(directory=str(workdir)), key_fn=_key,
                policy=SweepPolicy(), journal_dir=str(workdir),
                resume=True, stats=stats, start_method=start_method)
            outputs.append(out)
            assert stats.resumed >= len(done & set(range(N_TASKS)))
            assert stats.executed + stats.cache_hits == N_TASKS
            assert stats.executed <= N_TASKS - len(done)
            resumed_done = _journal_done(workdir)
            assert resumed_done == set(range(N_TASKS))
        assert outputs[0] == outputs[1] == expected
