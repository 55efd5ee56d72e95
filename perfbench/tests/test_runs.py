"""Smoke runs of every workload through the real command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import HERE, ROOT
from pb import spec
from pb.harness import Workload, run_workload

WORKLOADS = list(spec.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload,
                                                           smoke_runs):
    line, row = smoke_runs(workload, seed=1, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m[0] for m in spec.END_TO_END]
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == spec.END_TO_END_UNITS[name]
        assert entry["value"] > 0, name
    assert row["fail_share"] == 0 and row["smoke"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload, smoke_runs):
    line, row = smoke_runs(workload, seed=1, trace=1)
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m[0] for m in spec.PER_LAYER]
    for name, entry in line["metrics"].items():
        assert entry["unit"] == spec.PER_LAYER_UNITS[name]
        assert entry["value"] >= 0, name
    # the layers' CPU seconds add up to the traced CPU time (within 5 %)
    layers = sum(entry["value"] for name, entry in line["metrics"].items()
                 if name.endswith(".self_s"))
    cpu = line["metrics"]["trace.cpu_s"]["value"]
    assert abs(layers - cpu) <= 0.05 * cpu
    trace_file = os.path.join(HERE, "out", f"trace-{workload}.json")
    with open(trace_file) as fh:
        spans = json.load(fh)["spans"]
    assert spans and {"name", "start", "end", "parent", "run"} <= set(spans[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest_and_counts(workload, smoke_runs):
    _line, plain = smoke_runs(workload, seed=1, trace=0)
    line_a, traced_a = smoke_runs(workload, seed=1, trace=1)
    line_b, traced_b = smoke_runs(workload, seed=1, trace=1, repeat=1)
    _line, other = smoke_runs(workload, seed=2, trace=0)
    assert (plain["virtual_digest"] == traced_a["virtual_digest"]
            == traced_b["virtual_digest"])
    assert other["virtual_digest"] != plain["virtual_digest"]
    exact = [name for name, unit in spec.PER_LAYER_UNITS.items()
             if unit == "count"]
    exact += ["models.winner_agreement", "models.regret_geomean",
              "core.virtual_comm_s"]
    for name in exact:
        assert (line_a["metrics"][name]["value"]
                == line_b["metrics"][name]["value"]), name


def test_workloads_keep_to_their_layers(smoke_runs):
    fig51 = smoke_runs("fig51_des", trace=1)[0]["metrics"]
    decide = smoke_runs("model_decide", trace=1)[0]["metrics"]
    assert fig51["sim.events"]["value"] > 0
    assert fig51["atlas.lookups"]["value"] == 0
    assert fig51["par.chunks"]["value"] == 0
    assert decide["atlas.lookups"]["value"] > 0
    assert decide["sim.events"]["value"] == 0
    assert decide["mpi.messages"]["value"] == 0


class Exploding(Workload):
    name = "exploding"

    def setup(self):
        pass

    def run_round(self, r):
        self.attempted += 5
        raise RuntimeError("boom")


def test_a_raising_workload_reports_every_operation_failed(capsys):
    row = run_workload("exploding", seed=1, seconds=0.1, trace=False,
                       smoke=True, registry={"exploding": Exploding})
    capsys.readouterr()
    assert row["workload"] == "exploding"
    assert row["correct"] is False
    assert row["attempted"] == row["failed"] == 5
    assert any("boom" in problem for problem in row["problems"])


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig51_des",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
