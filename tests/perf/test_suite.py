"""The perf harness runs, reports sane numbers and writes valid JSON."""

import json

import pytest

from repro.perf import run_suite, write_report
from repro.perf.suite import (
    MIN_ARRAY_CELLS_PER_S,
    MIN_ATLAS_QUERIES_PER_S,
    SCHEMA,
    _engine_workload,
    _find_strategy,
    _plan_cost_workload,
    compare_reports,
    main,
)

WORKLOADS = ["engine", "pingpong", "spmv", "scenarios",
             "plan_cost", "hier_strategies", "atlas_query",
             "obs_overhead", "sweep_parallel"]


def test_smoke_suite_runs_and_reports(tmp_path, capsys):
    results = run_suite(smoke=True, verbose=False)
    names = [r.name for r in results]
    assert names == WORKLOADS
    for r in results:
        assert r.wall_s > 0.0
        assert r.wall_median_s >= r.wall_s  # median of reps >= best
        assert r.repeats >= 1
        assert r.metrics, r.name
        for key, value in r.metrics.items():
            assert value > 0.0, (r.name, key)
    # every workload reports a throughput companion for each raw count
    engine = results[0]
    assert engine.metrics["events_per_s"] == \
        engine.metrics["events"] / engine.wall_s
    # ...except ratios and configuration values
    parallel = results[-1]
    assert "speedup_parallel" in parallel.metrics
    assert "speedup_cached" in parallel.metrics
    assert "speedup_parallel_per_s" not in parallel.metrics
    assert "jobs_per_s" not in parallel.metrics
    # the ratios fall when the serial sweep gets faster, so the serial
    # arm is also reported as an absolute rate (no second companion)
    assert parallel.metrics["serial_cells_per_s"] > 0.0
    assert "serial_cells_per_s_per_s" not in parallel.metrics
    # the cached arm skips every shard, so it beats serial handily
    assert parallel.metrics["speedup_cached"] > 1.0
    # the plan-cost workload asserts array == scalar bit-identity and
    # enforces its absolute floor internally; explicit rates get no
    # second _per_s companion
    plan_cost = next(r for r in results if r.name == "plan_cost")
    assert plan_cost.metrics["array_cells_per_s"] >= MIN_ARRAY_CELLS_PER_S
    assert plan_cost.metrics["scalar_cells_per_s"] > 0.0
    assert "array_cells_per_s_per_s" not in plan_cost.metrics
    assert not any("speedup" in key for key in plan_cost.metrics)
    # the tiered-plan workload covers the full 13-model registry and
    # asserts array == scalar bit-identity on tiered plans internally
    hier = next(r for r in results if r.name == "hier_strategies")
    assert hier.metrics["models"] == 13.0
    assert "fused_cells_per_s" in hier.metrics
    # the atlas workload enforces exact agreement and an absolute
    # lookups/s floor; the ratio over the exact arm is a wiring check
    atlas = next(r for r in results if r.name == "atlas_query")
    assert atlas.metrics["atlas_queries_per_s"] >= MIN_ATLAS_QUERIES_PER_S
    assert atlas.metrics["speedup_atlas"] > 1.0
    assert "atlas_queries_per_s_per_s" not in atlas.metrics

    out = tmp_path / "bench.json"
    report = write_report(results, str(out), smoke=True)
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(report))
    assert on_disk["suite"] == "repro.perf"
    assert on_disk["schema"] == SCHEMA
    assert SCHEMA == 8
    assert on_disk["smoke"] is True
    assert on_disk["machine"] == "lassen"
    assert on_disk["total_wall_s"] > 0.0
    assert len(on_disk["workloads"]) == len(WORKLOADS)
    for w in on_disk["workloads"]:
        assert w["wall_median_s"] >= w["wall_s"]


def test_cli_main_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_repro.json"
    rc = main(["--smoke", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert {w["name"] for w in data["workloads"]} == set(WORKLOADS)
    captured = capsys.readouterr().out
    assert "wrote" in captured


def test_repeats_override(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(["--smoke", "--repeats", "2", "-o", str(out)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    for w in data["workloads"]:
        assert w["repeats"] == 2
        assert w["wall_median_s"] >= w["wall_s"]


def test_engine_floor_is_enforced():
    # per CPU-second, inside the workload (see MIN_ENGINE_EVENTS_PER_S)
    with pytest.raises(AssertionError, match="below the"):
        _engine_workload(procs=2, timeouts=10, min_events_per_s=1e12)()


def test_plan_cost_floor_is_enforced():
    # per CPU-second, inside the workload (see MIN_ARRAY_CELLS_PER_S)
    with pytest.raises(AssertionError, match="below the"):
        _plan_cost_workload(4, (0.0,), min_cells_per_s=1e12)()


def _fake_report(wall_by_name, smoke=True, schema=SCHEMA):
    return {
        "suite": "repro.perf",
        "schema": schema,
        "smoke": smoke,
        "workloads": [
            {"name": name, "wall_s": wall, "wall_median_s": wall,
             "repeats": 1, "metrics": {}}
            for name, wall in wall_by_name.items()
        ],
    }


class TestCompareReports:
    def test_no_regression_within_tolerance(self):
        base = _fake_report({"engine": 1.0, "spmv": 2.0})
        cur = _fake_report({"engine": 1.2, "spmv": 1.5})
        assert compare_reports(base, cur, tolerance=0.25) == []

    def test_regression_detected_beyond_tolerance(self):
        base = _fake_report({"engine": 1.0})
        cur = _fake_report({"engine": 1.6})
        messages = compare_reports(base, cur, tolerance=0.25)
        assert len(messages) == 1
        assert "engine" in messages[0]
        assert "+60%" in messages[0]

    def test_only_common_workloads_compared(self):
        base = _fake_report({"engine": 1.0})
        cur = _fake_report({"spmv": 99.0})
        assert compare_reports(base, cur) == []

    def test_schema1_wall_s_fallback(self):
        base = _fake_report({"engine": 1.0})
        for w in base["workloads"]:
            del w["wall_median_s"]
        cur = _fake_report({"engine": 3.0})
        assert len(compare_reports(base, cur)) == 1

    def test_smoke_mismatch_is_a_failure(self):
        base = _fake_report({"engine": 1.0}, smoke=False)
        cur = _fake_report({"engine": 1.0}, smoke=True)
        messages = compare_reports(base, cur)
        assert messages and "not comparable" in messages[0]

    def test_schema_mismatch_is_a_failure(self):
        # a baseline from another suite version must not be compared
        # over whatever workload names happen to intersect
        base = _fake_report({"engine": 1.0}, schema=SCHEMA - 1)
        cur = _fake_report({"engine": 1.0})
        messages = compare_reports(base, cur)
        assert len(messages) == 1
        assert f"schema={SCHEMA - 1}" in messages[0]
        assert f"schema={SCHEMA}" in messages[0]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_reports(_fake_report({}), _fake_report({}), tolerance=-1)


class TestCompareCli:
    def test_compare_gate_passes_and_fails(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["--smoke", "--only", "engine", "-o", str(out)]) == 0
        capsys.readouterr()
        # same workload vs itself: inside tolerance
        out2 = tmp_path / "bench2.json"
        rc = main(["--smoke", "--only", "engine",
                   "--compare", str(out), "-o", str(out2)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out
        # poison the baseline so the current run must regress
        baseline = json.loads(out.read_text())
        for w in baseline["workloads"]:
            w["wall_median_s"] = w["wall_s"] = 1e-9
        out.write_text(json.dumps(baseline))
        rc = main(["--smoke", "--only", "engine",
                   "--compare", str(out), "-o", str(out2)])
        assert rc == 1
        assert "perf regression" in capsys.readouterr().out

    def test_missing_baseline_fails_fast(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["--smoke", "--only", "engine",
                  "--compare", str(tmp_path / "nope.json"),
                  "-o", str(tmp_path / "out.json")])


class TestOnlyFilter:
    def test_only_runs_named_workloads(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["--smoke", "--only", "engine,spmv", "-o", str(out)])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert [w["name"] for w in data["workloads"]] == ["engine", "spmv"]

    def test_unknown_workload_is_diagnosable(self):
        with pytest.raises(ValueError, match="no-such-workload"):
            run_suite(smoke=True, verbose=False, only=["no-such-workload"])

    def test_cli_unknown_workload_is_a_usage_error(self, tmp_path, capsys):
        # exit 2 and one line naming the workloads, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--only", "engine,no-such-workload",
                  "-o", str(tmp_path / "bench.json")])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "no-such-workload" in last
        for name in WORKLOADS:
            assert name in last
        assert not (tmp_path / "bench.json").exists()


def test_repeats_must_be_positive():
    with pytest.raises(ValueError, match="repeats"):
        run_suite(smoke=True, verbose=False, repeats=0)


def test_find_strategy_unknown_label_is_diagnosable():
    with pytest.raises(ValueError, match="no-such-strategy"):
        _find_strategy("no-such-strategy")
    try:
        _find_strategy("no-such-strategy")
    except ValueError as exc:
        # names every available strategy for the caller
        assert "Standard (staged)" in str(exc)


def test_find_strategy_known_label():
    assert _find_strategy("Standard (staged)").label == "Standard (staged)"
