"""perfbench's own tests: ``python -m pytest perfbench/tests``."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

RUN = os.path.join(HERE, "run.py")


def run_smoke(workload, seed, trace, tmp_path):
    """One smoke run in a fresh interpreter: (result line, full report row)."""
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", "-o", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as fh:
        report = json.load(fh)
    assert report["smoke"] is True
    return line, report["results"][0]


@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory):
    """Memoized smoke runs keyed by (workload, seed, trace, repeat)."""
    tmp = tmp_path_factory.mktemp("perfbench")
    cache = {}

    def get(workload, seed=1, trace=0, repeat=0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            cache[key] = run_smoke(workload, seed, trace, tmp)
        return cache[key]

    return get
