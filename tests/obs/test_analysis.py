"""``repro obs`` analysis: hotspots, report, diff attribution, flame."""

import json

import pytest

from repro.obs.analysis import (
    LedgerSummary,
    _load_ledger,
    diff_ledgers,
    flame_lines,
    hotspots,
    main as obs_main,
    render_diff,
    render_hotspots,
    render_report,
)
from repro.obs.ledger import read_ledger
from repro.obs.tracer import MemoryTracer


@pytest.fixture(scope="module")
def chaos_ledgers(tmp_path_factory):
    """Seed-0 and seed-1 smoke chaos ledgers (different fault plans)."""
    from repro.faults.chaos import main as chaos_main

    root = tmp_path_factory.mktemp("ledgers")
    paths = {}
    for seed in (0, 1):
        path = str(root / f"chaos-{seed}.jsonl")
        rc = chaos_main(["--smoke", "--seed", str(seed), "--ledger", path,
                        "-o", str(root / f"chaos-{seed}.json")])
        assert rc == 0
        paths[seed] = path
    return paths


class TestHotspots:
    def _tracer(self):
        t = MemoryTracer()
        t.span("rank0/phase", "direct", 0.0, 3e-6, cat="phase")
        t.span("rank1/phase", "direct", 0.0, 2e-6, cat="phase")
        t.span("rank0/phase", "redistribute", 3e-6, 4e-6, cat="phase")
        t.span("rank0", "send", 0.0, 1e-6)
        t.span("nic0", "xfer", 0.0, 9e-6)
        return t

    def test_aggregates_by_kind_and_name(self):
        rows = hotspots(self._tracer(), top=None)
        by = {(r["kind"], r["name"]): r for r in rows}
        assert by[("phase", "direct")]["count"] == 2
        assert by[("phase", "direct")]["total_s"] == pytest.approx(5e-6)
        assert by[("rank", "send")]["count"] == 1
        assert by[("nic", "xfer")]["total_s"] == pytest.approx(9e-6)

    def test_sorted_by_total_desc_and_top(self):
        rows = hotspots(self._tracer(), top=2)
        assert len(rows) == 2
        assert rows[0]["total_s"] >= rows[1]["total_s"]
        assert rows[0]["name"] == "xfer"

    def test_accepts_raw_span_list(self):
        t = self._tracer()
        assert hotspots(t.spans) == hotspots(t)

    def test_render_handles_empty(self):
        assert "no spans" in render_hotspots([])


class TestLoadLedger:
    def test_ledger(self, chaos_ledgers):
        records = _load_ledger(chaos_ledgers[0])
        assert records[0]["event"] == "run_start"

    def test_other_json_object_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"seed": 0}))
        with pytest.raises(ValueError, match="run_start"):
            _load_ledger(str(path))


class TestReport:
    def test_ledger_report_sections(self, chaos_ledgers):
        text = render_report(read_ledger(chaos_ledgers[0]))
        assert "per-strategy breakdown" in text
        assert "per-phase breakdown" in text
        assert "histograms" in text
        assert "Standard (staged)" in text
        assert "redistribute" in text


class TestDiffLedgers:
    def test_names_strategy_and_phase_of_top_mover(self, chaos_ledgers):
        """Acceptance: obs diff on two seeded chaos runs with different
        fault plans names the strategy and phase whose cost moved."""
        a = read_ledger(chaos_ledgers[0])
        b = read_ledger(chaos_ledgers[1])
        diff = diff_ledgers(a, b)
        assert diff["movers"], "seeds 0 and 1 must move at least one cell"
        top = diff["movers"][0]
        strategies = {s.label for s in
                      __import__("repro.core",
                                 fromlist=["all_strategies"]
                                 ).all_strategies()}
        assert top["strategy"] in strategies
        assert top["phase"], "top mover must carry a phase attribution"
        text = render_diff(diff)
        assert top["strategy"] in text
        assert top["phase"] in text

    def test_args_change_is_reported(self, chaos_ledgers):
        a = read_ledger(chaos_ledgers[0])
        b = read_ledger(chaos_ledgers[1])
        diff = diff_ledgers(a, b)
        assert diff["a"]["args"]["seed"] == 0
        assert diff["b"]["args"]["seed"] == 1
        assert "seed" in render_diff(diff)

    def test_identical_ledgers_have_no_movers(self, chaos_ledgers):
        a = read_ledger(chaos_ledgers[0])
        diff = diff_ledgers(a, a)
        assert diff["movers"] == []
        assert diff["outcome_flips"] == []
        assert diff["same_run_id"]


class TestFlame:
    def test_synthesized_from_phases(self, chaos_ledgers):
        lines = flame_lines(read_ledger(chaos_ledgers[0]))
        assert lines
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) > 0
        assert stack.startswith("chaos;")
        assert len(stack.split(";")) == 3  # cmd;strategy;phase

    def test_prefers_profile_stacks(self):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(None, "trace", {})
        ledger.event("cell", scenario="x", strategy="s", time_s=1.0,
                     phases={"direct": {"count": 1, "total_s": 1.0}})
        ledger.event("profile_stack", volatile=True,
                     stack="mod:main;mod:run", count=42)
        ledger.finish("ok")
        lines = flame_lines(ledger.records)
        assert lines == ["mod:main;mod:run 42"]


class TestObsCli:
    def test_report(self, chaos_ledgers, capsys):
        assert obs_main(["report", chaos_ledgers[0]]) == 0
        assert "per-strategy breakdown" in capsys.readouterr().out

    def test_diff_writes_structured_output(self, chaos_ledgers, tmp_path,
                                           capsys):
        out = str(tmp_path / "diff.json")
        rc = obs_main(["diff", chaos_ledgers[0], chaos_ledgers[1],
                       "-o", out])
        assert rc == 0
        structured = json.load(open(out))
        assert structured["kind"] == "ledger"
        assert structured["movers"]
        assert "phase" in capsys.readouterr().out

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_a_usage_error(self, chaos_ledgers, top,
                                            capsys):
        for argv in (["report", chaos_ledgers[0]],
                     ["diff", chaos_ledgers[0], chaos_ledgers[1]]):
            with pytest.raises(SystemExit) as exc:
                obs_main(argv + ["--top", top])
            assert exc.value.code == 2
            assert "--top" in capsys.readouterr().err

    def test_diff_has_no_tolerance(self, chaos_ledgers, capsys):
        # `obs diff` attributes; it does not gate
        with pytest.raises(SystemExit) as exc:
            obs_main(["diff", chaos_ledgers[0], chaos_ledgers[1],
                      "--tolerance", "0.25"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_flame_to_file(self, chaos_ledgers, tmp_path, capsys):
        out = str(tmp_path / "stacks.txt")
        assert obs_main(["flame", chaos_ledgers[0], "-o", out]) == 0
        assert open(out).read().splitlines()
        capsys.readouterr()

    def test_validate_ok_and_invalid(self, chaos_ledgers, tmp_path,
                                     capsys):
        assert obs_main(["validate", chaos_ledgers[0]]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event":"cell","scenario":0,"strategy":"s"}\n')
        assert obs_main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err


class TestLedgerSummary:
    def test_indexes_last_run_of_concatenated_file(self, chaos_ledgers):
        records = read_ledger(chaos_ledgers[0]) \
            + read_ledger(chaos_ledgers[1])
        summary = LedgerSummary(records)
        assert summary.args["seed"] == 1

    def test_cell_time_decodes_floats(self, chaos_ledgers):
        summary = LedgerSummary(read_ledger(chaos_ledgers[0]))
        times = [summary.cell_time(k) for k in summary.cells]
        assert any(t is not None and t > 0 for t in times)


class TestResumeLine:
    def test_report_renders_restored_shards(self):
        from repro.obs.ledger import RunLedger
        from repro.par import SweepStats

        ledger = RunLedger(None, "test", {})
        ledger.sweep(SweepStats(tasks=4, executed=2, cache_hits=2,
                                resumed=2))
        ledger.finish("ok")
        summary = LedgerSummary(ledger.records)
        assert [(ev["done"], ev["tasks"]) for ev in summary.resumes] == \
            [(2, 4)]
        assert "  resumed: 2/4 shards restored from a previous run" in \
            render_report(ledger.records).splitlines()

    def test_fresh_ledgers_have_no_resume_line(self, chaos_ledgers):
        records = read_ledger(chaos_ledgers[0])
        assert LedgerSummary(records).resumes == []
        assert "resumed:" not in render_report(records)
