"""The perf gate runs, reports sane numbers and enforces its floors."""

import pytest

from repro.obs.analysis import render_report
from repro.obs.ledger import read_ledger, validate_ledger
from repro.perf import run_suite, suite
from repro.perf.suite import (
    MIN_ARRAY_CELLS_PER_S,
    MIN_ATLAS_QUERIES_PER_S,
    UnknownWorkloadError,
    _atlas_query_workload,
    _engine_workload,
    _plan_cost_workload,
    main,
)

WORKLOADS = ["engine", "pingpong", "spmv", "scenarios", "plan_cost",
             "atlas_query"]


def _workload_records(path):
    records = read_ledger(str(path))
    validate_ledger(records)
    return [r for r in records if r["event"] == "workload"]


def test_smoke_suite_runs_and_reports():
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
    # the plan-cost workload asserts array == scalar bit-identity and
    # enforces its absolute floor internally; explicit rates get no
    # second _per_s companion
    plan_cost = next(r for r in results if r.name == "plan_cost")
    assert plan_cost.metrics["array_cells_per_s"] >= MIN_ARRAY_CELLS_PER_S
    assert plan_cost.metrics["scalar_cells_per_s"] > 0.0
    assert "array_cells_per_s_per_s" not in plan_cost.metrics
    # the atlas workload enforces exact agreement and an absolute
    # lookups/s floor
    atlas = next(r for r in results if r.name == "atlas_query")
    assert atlas.metrics["atlas_queries_per_s"] >= MIN_ATLAS_QUERIES_PER_S
    assert "atlas_queries_per_s_per_s" not in atlas.metrics


def test_cli_ledger_has_one_record_per_workload(tmp_path, capsys):
    path = tmp_path / "perf.jsonl"
    assert main(["--smoke", "--repeats", "2", "--ledger", str(path)]) == 0
    assert "total" in capsys.readouterr().out
    records = _workload_records(path)
    assert [r["name"] for r in records] == WORKLOADS
    for r in records:
        assert r["repeats"] == 2
        assert r["wall"]["wall_median_s"] >= r["wall"]["wall_s"]
    # `obs report` renders them
    assert "=== workloads ===" in render_report(read_ledger(str(path)))


def test_floor_miss_fails_the_run(monkeypatch, tmp_path):
    # the exit status is the gate: the assertion leaves `main`, no ledger
    monkeypatch.setattr(suite, "default_workloads", lambda **_: [
        ("engine", _engine_workload(2, 10, min_events_per_s=1e12), 1)])
    path = tmp_path / "perf.jsonl"
    with pytest.raises(AssertionError, match="below the"):
        main(["--smoke", "--ledger", str(path)])
    assert not path.exists()


@pytest.mark.parametrize("removed", [
    ["--compare", "a.json"], ["--tolerance", "0.25"], ["-o", "b.json"],
    ["--jobs", "2"], ["--max-retries", "1"], ["--task-timeout", "5"],
    ["--resume"]])
def test_removed_options_are_usage_errors(removed, capsys):
    # no baseline file, no ratio, no pool: the floors are the gate
    with pytest.raises(SystemExit) as exc:
        main(["--smoke", "--only", "engine", *removed])
    assert exc.value.code == 2
    assert removed[0] in capsys.readouterr().err


def test_engine_floor_is_enforced():
    # per CPU-second, inside the workload (see MIN_ENGINE_EVENTS_PER_S)
    with pytest.raises(AssertionError, match="below the"):
        _engine_workload(procs=2, timeouts=10, min_events_per_s=1e12)()


def test_plan_cost_floor_is_enforced():
    # per CPU-second, inside the workload (see MIN_ARRAY_CELLS_PER_S)
    with pytest.raises(AssertionError, match="below the"):
        _plan_cost_workload(4, (0.0,), min_cells_per_s=1e12)()


def test_atlas_query_floor_is_enforced():
    # per second, inside the workload (see MIN_ATLAS_QUERIES_PER_S)
    with pytest.raises(AssertionError, match="below the"):
        _atlas_query_workload(smoke=True, rounds=1,
                              min_queries_per_s=1e12)()


class TestOnlyFilter:
    def test_only_runs_named_workloads(self, tmp_path, capsys):
        path = tmp_path / "perf.jsonl"
        rc = main(["--smoke", "--only", "engine,spmv", "--ledger", str(path)])
        assert rc == 0
        capsys.readouterr()
        names = [r["name"] for r in _workload_records(path)]
        assert names == ["engine", "spmv"]

    def test_unknown_workload_is_diagnosable(self):
        with pytest.raises(ValueError, match="no-such-workload"):
            run_suite(smoke=True, verbose=False, only=["no-such-workload"])

    def test_empty_only_is_diagnosable(self):
        with pytest.raises(UnknownWorkloadError, match="no workload named"):
            run_suite(smoke=True, verbose=False, only=[])

    def test_cli_unknown_workload_is_a_usage_error(self, tmp_path, capsys):
        # exit 2 and one line naming the workloads, not a traceback; an
        # --only that names nothing is no different
        for only in ("engine,no-such-workload", "", ","):
            with pytest.raises(SystemExit) as exc:
                main(["--smoke", "--only", only,
                      "--ledger", str(tmp_path / "perf.jsonl")])
            assert exc.value.code == 2, only
            last = capsys.readouterr().err.strip().splitlines()[-1]
            assert ("no-such-workload" in last) == \
                ("no-such-workload" in only)
            for name in WORKLOADS:
                assert name in last, only
            assert not (tmp_path / "perf.jsonl").exists(), only


def test_repeats_must_be_positive():
    with pytest.raises(ValueError, match="repeats"):
        run_suite(smoke=True, verbose=False, repeats=0)
