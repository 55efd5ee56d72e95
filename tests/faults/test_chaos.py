"""Chaos harness: determinism, invariants, CLI plumbing."""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.selector import all_strategies
from repro.faults import chaos
from repro.faults.chaos import (
    build_scenario,
    main,
    run_chaos,
    run_chaos_shard,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_chaos(seed=0, smoke=True)


class TestScenarioGeneration:
    def test_scenario_zero_is_baseline(self):
        rng = np.random.default_rng(0)
        assert not build_scenario(0, rng).active

    def test_scenarios_are_deterministic(self):
        a = [build_scenario(i, np.random.default_rng(4)) for i in range(4)]
        b = [build_scenario(i, np.random.default_rng(4)) for i in range(4)]
        assert [p.describe() for p in a] == [p.describe() for p in b]

    def test_degradation_windows_sorted_non_overlapping(self):
        # The cursor-based generator must always satisfy the
        # BandwidthResource.set_degradation contract.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for index in range(1, 4):
                plan = build_scenario(index, rng)
                prev_end = -1.0
                for d in plan.degradations:
                    assert d.t0 >= prev_end
                    assert d.t1 > d.t0
                    prev_end = d.t1


class TestSweep:
    def test_smoke_sweep_holds_all_invariants(self, smoke_report):
        assert smoke_report["ok"], smoke_report["violations"]
        assert smoke_report["violations"] == []
        assert smoke_report["summary"]["runs"] == 39  # 3 scenarios x 13

    def test_smoke_sweep_exercises_faults(self, smoke_report):
        totals = {"retries": 0, "degraded": 0}
        for sc in smoke_report["scenarios"]:
            for res in sc["results"].values():
                totals["retries"] += res["retries"]
                totals["degraded"] += res["degraded"]
        assert totals["retries"] > 0
        assert totals["degraded"] > 0

    def test_sweep_is_deterministic(self, smoke_report):
        again = run_chaos(seed=0, smoke=True)
        assert json.dumps(smoke_report, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_results_carry_phase_attribution(self, smoke_report):
        # Every cell exposes per-phase costs (from the traced arm) so
        # the run ledger and `repro obs diff` can attribute movement.
        for sc in smoke_report["scenarios"]:
            for res in sc["results"].values():
                phases = res["phases"]
                assert phases, res
                for name, row in phases.items():
                    assert row["count"] >= 1
                    assert row["total_s"] >= 0.0

    def test_baseline_scenario_matches_untraced_golden_style(
            self, smoke_report):
        # Scenario 0 is fault-free: no retries/timeouts anywhere, and all
        # strategies deliver.
        base = smoke_report["scenarios"][0]
        for res in base["results"].values():
            assert res["outcome"] == "ok"
            assert res["retries"] == 0
            assert res["gave_up"] == 0


def _shard_bytes(spec):
    return json.dumps(run_chaos_shard(spec), sort_keys=True)


class TestCellInputs:
    """A cell shares its scenario's inputs; the bytes it returns do not
    depend on what was evaluated before it."""

    #: sha256 over every cell of a full sweep (6 scenarios x 13
    #: strategies, sweep order), recorded before the scenario memo
    GOLDEN = {
        "lassen": (11, "70fab3b4cea9c53df63798cf875b1bab"
                       "9ae5d3e97449d2efef019215e755571c"),
        "summit": (12, "d1a04c42cf70438410b00ef86c7392a7"
                       "ba372feb5a8dae432683069941cd27fc"),
        "frontier_like": (13, "361ee0cae2715ac1ac10ac2dce0ff524"
                              "aeedd0c95a10f9846bc20f5e3e480f97"),
    }

    @pytest.mark.parametrize("machine", sorted(GOLDEN))
    def test_full_size_cells_match_the_golden(self, machine):
        seed, want = self.GOLDEN[machine]
        digest = hashlib.sha256()
        for index in range(6):
            for strategy in all_strategies():
                digest.update(_shard_bytes(
                    (seed, False, index, strategy.label, machine)).encode())
        assert digest.hexdigest() == want

    def test_evaluation_order_does_not_change_a_cell(self):
        labels = [s.label for s in all_strategies()][::5]
        specs = [(seed, smoke, index, label, machine)
                 for machine in ("lassen", "frontier_like")
                 for seed, smoke in ((5, False), (6, True), (6, False))
                 for index in (0, 1, 2)
                 for label in labels]
        chaos._scenario_inputs.cache_clear()
        in_order = {spec: _shard_bytes(spec) for spec in specs}
        shuffled = list(specs)
        random.Random(0).shuffle(shuffled)
        bound = chaos._scenario_inputs.cache_info().maxsize
        assert bound == 2
        for spec in shuffled:
            assert _shard_bytes(spec) == in_order[spec], spec
            assert chaos._scenario_inputs.cache_info().currsize <= bound

    def test_a_scenario_builds_its_inputs_once(self, monkeypatch):
        # call-count budget: the 13 cells of one scenario share one
        # pattern, one payload draw and one plan list; each cell plans
        # its strategy once for both arms
        from repro.core import base
        from repro.core.pattern import CommPattern

        calls = {"random": 0, "default_data": 0, "build_scenarios": 0}
        plans = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CommPattern, "random", staticmethod(
            counting("random", CommPattern.random)))
        monkeypatch.setattr(base, "default_data",
                            counting("default_data", base.default_data))
        monkeypatch.setattr(chaos, "build_scenarios", counting(
            "build_scenarios", chaos.build_scenarios))
        strategies = all_strategies()
        for strategy in strategies:
            def plan(self, pattern, layout, _plan=type(strategy).plan):
                plans[self.label] = plans.get(self.label, 0) + 1
                return _plan(self, pattern, layout)
            monkeypatch.setattr(type(strategy), "plan", plan)

        chaos._scenario_inputs.cache_clear()
        chaos._scenario_plans.cache_clear()
        for strategy in strategies:
            shard = run_chaos_shard((21, False, 4, strategy.label, "summit"))
            assert not shard["violations"]
        assert calls == {"random": 1, "default_data": 1,
                         "build_scenarios": 1}
        assert plans == {s.label: 1 for s in strategies}

    def test_in_place_write_to_the_payload_is_a_crash(self, monkeypatch):
        # the payload is shared by every cell of a scenario and is the
        # ground truth delivery is verified against: it is read-only
        from repro.core import selector
        from repro.core.standard import StandardStaged

        class Scribbler(StandardStaged):
            def program(self, ctx, plan, data):
                data[0][:1] = 0.0
                return (yield from super().program(ctx, plan, data))

        monkeypatch.setattr(selector, "strategy_by_name",
                            lambda label: Scribbler())
        shard = run_chaos_shard((0, True, 0, "Standard (staged)", "lassen"))
        assert shard["outcome"]["outcome"] == "crash"
        assert "read-only" in shard["outcome"]["error"]
        assert any("crash" in v for v in shard["violations"])


class TestCli:
    def test_main_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(["--smoke", "--seed", "0", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        err = capsys.readouterr().err
        assert "invariant violations" in err

    def test_main_is_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["--smoke", "--seed", "0", "-o", str(a)]) == 0
        assert main(["--smoke", "--seed", "0", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFailedSweepResumes:
    """The first failing cell ends a chaos sweep; ``--resume`` re-runs
    only the missing cells and writes the uninterrupted report."""

    def test_summary_counts_cell_outcomes_only(self, smoke_report):
        assert sorted(smoke_report["summary"]) == \
            ["delivery_errors", "ok", "runs", "violations"]

    def test_resume_after_a_failed_cell_is_byte_identical(
            self, smoke_report, monkeypatch, tmp_path, capsys):
        from repro.obs.analysis import LedgerSummary, render_report
        from repro.obs.ledger import read_ledger

        real = chaos.run_chaos_shard
        calls = []

        def fails_fifth(task):
            calls.append(task)
            if len(calls) == 5:
                raise RuntimeError("cell 4 failed")
            return real(task)

        argv = ["--smoke", "--seed", "0", "--resume",
                "--cache-dir", str(tmp_path / "cache")]
        monkeypatch.setattr(chaos, "run_chaos_shard", fails_fifth)
        with pytest.raises(RuntimeError, match="cell 4 failed"):
            main(argv + ["-o", str(tmp_path / "failed.json")])
        monkeypatch.undo()
        capsys.readouterr()
        out, ledger = tmp_path / "resumed.json", tmp_path / "resumed.jsonl"
        assert main(argv + ["-o", str(out), "--ledger", str(ledger)]) == 0
        assert "chaos: 4 shards resumed" in capsys.readouterr().err
        assert out.read_text() == \
            json.dumps(smoke_report, indent=2, sort_keys=True) + "\n"
        records = read_ledger(str(ledger))
        runs = smoke_report["summary"]["runs"]
        assert [(ev["done"], ev["tasks"])
                for ev in LedgerSummary(records).resumes] == [(4, runs)]
        assert f"resumed: 4/{runs} shards restored" in \
            render_report(records)
