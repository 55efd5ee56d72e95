"""Run ledger: writing, validation, and the determinism contract."""

import json
import os

import numpy as np
import pytest

from repro.obs.ledger import (
    ENVELOPE_KEY,
    LEDGER_SCHEMA,
    RunLedger,
    VOLATILE_KEY,
    canonical_dumps,
    deterministic_view,
    ledger_fingerprint,
    ledger_json_schema,
    make_run_id,
    read_ledger,
    split_runs,
    validate_ledger,
)


class TestCanonicalDumps:
    def test_sorted_compact_keys(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_numpy_scalars_and_arrays(self):
        out = canonical_dumps({"x": np.float64(1.5),
                               "n": np.int64(3),
                               "a": np.arange(3)})
        assert json.loads(out) == {"x": 1.5, "n": 3, "a": [0, 1, 2]}

    def test_float_repr_roundtrip(self):
        # shortest-round-trip formatting: loading gives back the value
        v = 2.90099264e-05
        assert json.loads(canonical_dumps({"t": v}))["t"] == v

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_non_json_rejected(self):
        with pytest.raises(TypeError):
            canonical_dumps({"x": object()})


class TestRunId:
    def test_stable_and_arg_order_insensitive(self):
        a = make_run_id("chaos", {"seed": 0, "smoke": True})
        b = make_run_id("chaos", {"smoke": True, "seed": 0})
        assert a == b
        assert a.startswith("run-")

    def test_semantic_args_distinguish(self):
        assert make_run_id("chaos", {"seed": 0}) != \
            make_run_id("chaos", {"seed": 1})
        assert make_run_id("chaos", {"seed": 0}) != \
            make_run_id("perf", {"seed": 0})


class TestRunLedger:
    def test_run_start_first_and_run_end_last(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path, "test", {"seed": 7}, machine="lassen")
        ledger.event("cell", scenario=0, strategy="s", outcome="ok")
        ledger.finish("ok")
        records = read_ledger(path)
        assert records[0]["event"] == "run_start"
        assert records[0]["schema"] == LEDGER_SCHEMA
        assert records[0]["machine"] == "lassen"
        assert records[0]["args"] == {"seed": 7}
        assert records[-1] == {"event": "run_end", "status": "ok"}
        assert validate_ledger(records) == 1

    def test_memory_only_without_path(self):
        ledger = RunLedger(None, "test", {})
        ledger.finish("ok")
        assert validate_ledger(ledger.records) == 1

    def test_atomic_flush_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        ledger = RunLedger(path, "test", {})
        ledger.flush()
        ledger.event("cell", scenario=0, strategy="s")
        ledger.finish("ok")
        assert sorted(os.listdir(tmp_path)) == ["run.jsonl"]
        # every flush rewrote the whole file: it parses and validates
        assert validate_ledger(read_ledger(path)) == 1

    def test_malformed_record_fails_at_call_site(self):
        ledger = RunLedger(None, "test", {})
        with pytest.raises(TypeError):
            ledger.event("cell", scenario=0, strategy="s", bad=object())

    def test_append_after_finish_rejected(self):
        ledger = RunLedger(None, "test", {})
        ledger.finish("ok")
        with pytest.raises(ValueError, match="finished"):
            ledger.event("cell", scenario=0, strategy="s")

    def test_context_manager_records_error_status(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with pytest.raises(RuntimeError):
            with RunLedger(path, "test", {}):
                raise RuntimeError("boom")
        records = read_ledger(path)
        assert records[-1]["status"] == "error"
        assert "RuntimeError" in records[-1]["error"]

    def test_cache_corrupt_entries_become_ledger_events(self, tmp_path):
        from repro.par.cache import ResultCache, cache_key

        key = cache_key("t", x=1)
        ResultCache(directory=str(tmp_path)).put(key, "good")
        path = tmp_path / key[:2] / (key + ".pkl")
        path.write_bytes(b"garbage")
        cache = ResultCache(directory=str(tmp_path))
        assert cache.lookup(key) == (False, None)
        ledger = RunLedger(None, "test", {})
        ledger.cache_events(cache)
        ledger.finish("ok")
        kinds = [r["event"] for r in ledger.records]
        assert "cache" in kinds
        corrupt = [r for r in ledger.records
                   if r["event"] == "cache_corrupt"]
        assert [r["key"] for r in corrupt] == [key]

    def test_sweep_fleet_records_are_volatile(self):
        from repro.par.executor import SweepStats

        stats = SweepStats(tasks=4, executed=4, cache_hits=0, jobs=2,
                           chunks=2)
        stats.worker_events.append(
            {"chunk": 0, "lo": 0, "hi": 1, "tasks": 2, "done": 1,
             "total": 2, "wall_s": 0.25, "pid": 123})
        ledger = RunLedger(None, "test", {})
        ledger.sweep(stats)
        ledger.finish("ok")
        fleet = [r for r in ledger.records if r["event"] == "fleet"]
        beats = [r for r in ledger.records if r["event"] == "heartbeat"]
        assert fleet and fleet[0][VOLATILE_KEY] is True
        assert beats and beats[0][VOLATILE_KEY] is True
        assert beats[0][ENVELOPE_KEY] == {"wall_s": 0.25, "pid": 123}
        # the deterministic sweep record survives the deterministic view
        view = deterministic_view(ledger.records)
        kinds = [r["event"] for r in view]
        assert "sweep" in kinds
        assert "fleet" not in kinds and "heartbeat" not in kinds


class TestValidation:
    def _run(self):
        ledger = RunLedger(None, "test", {"seed": 0})
        ledger.event("cell", scenario=0, strategy="s")
        ledger.finish("ok")
        return [dict(r) for r in ledger.records]

    def test_missing_run_start(self):
        records = self._run()[1:]
        with pytest.raises(ValueError, match="run_start"):
            validate_ledger(records)

    def test_truncated_ledger(self):
        records = self._run()[:-1]
        with pytest.raises(ValueError, match="run_end"):
            validate_ledger(records)

    def test_wrong_schema(self):
        records = self._run()
        records[0]["schema"] = LEDGER_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            validate_ledger(records)

    def test_missing_required_field(self):
        records = self._run()
        del records[1]["strategy"]
        with pytest.raises(ValueError, match="strategy"):
            validate_ledger(records)

    def test_non_dict_envelope(self):
        records = self._run()
        records[1][ENVELOPE_KEY] = "noon"
        with pytest.raises(ValueError, match=ENVELOPE_KEY):
            validate_ledger(records)

    def test_split_runs_concatenated_file(self):
        records = self._run() + self._run()
        assert len(split_runs(records)) == 2
        assert validate_ledger(records) == 2

    def test_json_schema_shape(self):
        schema = ledger_json_schema()
        assert schema["required"] == ["event"]
        assert any(clause["if"]["properties"]["event"]["const"] == "cell"
                   for clause in schema["allOf"])


class TestDeterminism:
    """The headline contract: byte-identity across execution shapes."""

    def _chaos_ledger(self, tmp_path, name, jobs, seed=0):
        from repro.faults.chaos import main as chaos_main

        path = str(tmp_path / name)
        out = str(tmp_path / (name + ".report.json"))
        rc = chaos_main(["--smoke", "--seed", str(seed),
                         "--jobs", str(jobs),
                         "--ledger", path, "-o", out])
        assert rc == 0
        return path

    def test_chaos_ledger_identical_at_jobs_1_and_4(self, tmp_path):
        a = self._chaos_ledger(tmp_path, "serial.jsonl", jobs=1)
        b = self._chaos_ledger(tmp_path, "parallel.jsonl", jobs=4)
        assert ledger_fingerprint(a) == ledger_fingerprint(b)
        # and the byte-level difference is *only* the declared
        # non-deterministic envelope: strip it and compare lines
        det_a = [canonical_dumps(r) for r in
                 deterministic_view(read_ledger(a))]
        det_b = [canonical_dumps(r) for r in
                 deterministic_view(read_ledger(b))]
        assert det_a == det_b

    def test_chaos_ledger_run_id_stable_across_jobs(self, tmp_path):
        a = read_ledger(self._chaos_ledger(tmp_path, "a.jsonl", jobs=1))
        b = read_ledger(self._chaos_ledger(tmp_path, "b.jsonl", jobs=2))
        assert a[0]["run_id"] == b[0]["run_id"]

    def test_different_seed_changes_fingerprint(self, tmp_path):
        a = self._chaos_ledger(tmp_path, "s0.jsonl", jobs=1, seed=0)
        b = self._chaos_ledger(tmp_path, "s1.jsonl", jobs=1, seed=1)
        assert ledger_fingerprint(a) != ledger_fingerprint(b)

    def test_scenario_ledger_identical_at_jobs_1_and_2(self, tmp_path):
        from repro.__main__ import main as repro_main

        paths = []
        for jobs, name in ((1, "sc1.jsonl"), (2, "sc2.jsonl")):
            path = str(tmp_path / name)
            rc = repro_main(["scenario", "--points", "3",
                            "--jobs", str(jobs), "--ledger", path])
            assert rc == 0
            paths.append(path)
        assert ledger_fingerprint(paths[0]) == ledger_fingerprint(paths[1])


class TestCanonicalSnapshots:
    """Satellite: registry/tracer snapshots are byte-deterministic."""

    def test_metrics_registry_order_insensitive(self):
        from repro.obs.metrics import MetricsRegistry

        a = MetricsRegistry()
        a.counter("x").inc(2)
        a.gauge("g").set(1.5)
        a.histogram("h").observe(100.0)
        b = MetricsRegistry()
        b.histogram("h").observe(100.0)
        b.gauge("g").set(1.5)
        b.counter("x").inc(2)
        assert a.canonical_json() == b.canonical_json()
        assert '"schema"' in a.canonical_json()

    def test_memory_tracer_snapshot_bytes(self):
        from repro.obs.tracer import MemoryTracer

        def build():
            t = MemoryTracer()
            t.span("rank0/phase", "direct", 0.0, 1.5e-6, cat="phase")
            t.instant("rank0", "start", 0.0)
            t.counter("nic0", "util", 1e-6, 0.5)
            return t

        assert build().canonical_json() == build().canonical_json()
        snapshot = build().to_snapshot()
        assert snapshot["spans"][0]["name"] == "direct"
        # plain data: survives a JSON round trip unchanged
        assert json.loads(build().canonical_json()) == json.loads(
            canonical_dumps(snapshot))


class TestResumeRecord:
    """A resumed sweep's ``sweep_resume`` record and its determinism."""

    @staticmethod
    def _stats(resumed=1):
        from repro.par.executor import SweepStats

        return SweepStats(tasks=4, executed=4 - resumed, cache_hits=resumed,
                          jobs=2, chunks=2, resumed=resumed)

    def _ledger(self, resumed=1):
        ledger = RunLedger(None, "test", {"seed": 0})
        ledger.sweep(self._stats(resumed))
        ledger.finish("ok")
        return ledger

    def test_resume_is_recorded_volatile(self):
        records = self._ledger().records
        resume, = [r for r in records if r["event"] == "sweep_resume"]
        assert resume[VOLATILE_KEY] is True
        assert (resume["done"], resume["tasks"]) == (1, 4)
        assert "sweep_resume" not in \
            {r["event"] for r in deterministic_view(records)}

    def test_a_fresh_sweep_records_no_resume(self):
        assert "sweep_resume" not in \
            {r["event"] for r in self._ledger(resumed=0).records}

    def test_sweep_execution_shape_lives_in_the_envelope(self):
        sweep = [r for r in self._ledger().records
                 if r["event"] == "sweep"][0]
        assert sweep["tasks"] == 4
        assert "executed" not in sweep and "cache_hits" not in sweep
        assert sweep[ENVELOPE_KEY] == {"executed": 3, "cache_hits": 1}

    def test_resume_does_not_change_the_fingerprint(self):
        # a resumed sweep must fingerprint identically to an
        # uninterrupted one: both finished every shard
        assert ledger_fingerprint(self._ledger(resumed=3).records) == \
            ledger_fingerprint(self._ledger(resumed=0).records)

    def test_ledgers_validate_with_resume_records(self):
        assert validate_ledger(self._ledger().records) == 1

    def test_cache_repair_events_are_volatile(self, tmp_path):
        from repro.par.cache import ResultCache, cache_key

        key = cache_key("t", x=1)
        ResultCache(directory=str(tmp_path)).put(key, "good")
        (tmp_path / key[:2] / (key + ".pkl")).write_bytes(b"garbage")
        cache = ResultCache(directory=str(tmp_path))
        assert cache.lookup(key) == (False, None)
        ledger = RunLedger(None, "test", {})
        ledger.cache_events(cache)
        ledger.finish("ok")
        repairs = [r for r in ledger.records
                   if r["event"] == "cache_repair"]
        assert [r["key"] for r in repairs] == [key]
        assert repairs[0][VOLATILE_KEY] is True
        assert validate_ledger(ledger.records) == 1
