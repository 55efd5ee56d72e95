"""Parallel and cached sweeps are byte-identical to serial ones.

The executor contract: at any ``jobs`` value, and on any mix of cold
and warm cache, every sweep entry point produces *exactly* the serial
result — chaos reports down to the JSON byte, figure grids down to the
array bit.  A warm cache must also short-circuit every evaluation.
"""

import json

import numpy as np
import pytest

import repro.models.scenarios as scenarios_mod
from repro.bench.figures import fig4_3_data
from repro.faults.chaos import run_chaos
from repro.models.scenarios import PAPER_SCENARIOS, sweep_scenarios
from repro.par import ResultCache, SweepStats
from repro.sparse.suite import suite_sweep


@pytest.fixture(scope="module")
def serial_chaos():
    return run_chaos(seed=0, smoke=True, jobs=1)


def _dumps(report):
    return json.dumps(report, sort_keys=True)


class TestChaosEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_report_is_byte_identical(self, serial_chaos, jobs):
        parallel = run_chaos(seed=0, smoke=True, jobs=jobs)
        assert _dumps(parallel) == _dumps(serial_chaos)

    def test_cold_then_warm_cache_byte_identical(self, serial_chaos,
                                                 tmp_path):
        cold_cache = ResultCache(directory=str(tmp_path))
        cold = run_chaos(seed=0, smoke=True, jobs=2, cache=cold_cache)
        assert _dumps(cold) == _dumps(serial_chaos)
        assert cold_cache.misses == 39 and cold_cache.stores == 39

        # a fresh instance over the same directory: disk tier only
        warm_cache = ResultCache(directory=str(tmp_path))
        warm = run_chaos(seed=0, smoke=True, jobs=2, cache=warm_cache)
        assert _dumps(warm) == _dumps(serial_chaos)
        assert warm_cache.misses == 0
        assert warm_cache.disk_hits == 39

    def test_jobs_cli_flag_byte_identical(self, tmp_path):
        from repro.faults.chaos import main

        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["--smoke", "--seed", "0", "-o", str(serial)]) == 0
        assert main(["--smoke", "--seed", "0", "--jobs", "2",
                     "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestScenarioEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sweep_scenarios_matches_serial(self, machine, jobs):
        sizes = np.logspace(1, 5.5, 7)
        serial = sweep_scenarios(machine, PAPER_SCENARIOS, sizes, jobs=1)
        parallel = sweep_scenarios(machine, PAPER_SCENARIOS, sizes,
                                   jobs=jobs)
        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            assert list(p) == list(s)
            for label in s:
                np.testing.assert_array_equal(p[label], s[label])


class TestFig43Equivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_grid_matches_serial(self, machine, jobs):
        serial = fig4_3_data(machine)
        parallel = fig4_3_data(machine, jobs=jobs)
        assert list(parallel) == list(serial)
        for label in serial:
            xs_s, series_s = serial[label]
            xs_p, series_p = parallel[label]
            np.testing.assert_array_equal(xs_p, xs_s)
            assert list(series_p) == list(series_s)
            for name in series_s:
                np.testing.assert_array_equal(series_p[name],
                                              series_s[name])

    def test_warm_cache_rerun_evaluates_nothing(self, machine,
                                                monkeypatch, tmp_path):
        calls = {"n": 0}
        real_shard = scenarios_mod._sweep_scenario_shard

        def counting_shard(spec):
            calls["n"] += 1
            return real_shard(spec)

        monkeypatch.setattr(scenarios_mod, "_sweep_scenario_shard",
                            counting_shard)

        cold_cache = ResultCache(directory=str(tmp_path))
        cold = fig4_3_data(machine, jobs=1, cache=cold_cache)
        cold_calls = calls["n"]
        assert cold_calls == len(cold)  # one evaluation per panel

        warm_cache = ResultCache(directory=str(tmp_path))
        warm = fig4_3_data(machine, jobs=1, cache=warm_cache)
        assert calls["n"] == cold_calls  # zero new simulation calls
        assert warm_cache.misses == 0
        assert warm_cache.hits == len(cold)

        for label in cold:
            np.testing.assert_array_equal(warm[label][0], cold[label][0])
            for name in cold[label][1]:
                np.testing.assert_array_equal(warm[label][1][name],
                                              cold[label][1][name])

    def test_stats_report_cache_hits(self, machine):
        # Shared in-memory cache across two sweeps of the same grid.
        cache = ResultCache()
        sizes = np.logspace(1, 5.5, 5)
        fig4_3_data(machine, sizes=sizes, jobs=1, cache=cache)
        stats = SweepStats()
        key_fn = lambda t: scenarios_mod.scenario_sweep_key(*t)  # noqa: E731
        from repro.par import sweep_map

        tasks = [(machine, sc, np.asarray(sizes, dtype=np.float64))
                 for sc in PAPER_SCENARIOS]
        sweep_map(scenarios_mod._sweep_scenario_shard, tasks, jobs=1,
                  cache=cache, key_fn=key_fn, stats=stats)
        assert stats.executed == 0
        assert stats.cache_hits == len(tasks)


class TestSuiteSweepEquivalence:
    def test_warm_cache_panel_carries_the_model_row(self, machine,
                                                   tmp_path):
        """A cached suite panel returns DES ``series`` and Table-6
        ``model`` bit for bit, with no panel re-measured."""
        kwargs = dict(matrices=["audikw_1"], gpu_counts=(8, 16),
                      matrix_n=2001, jobs=1)
        cold = suite_sweep(machine, cache=ResultCache(str(tmp_path)),
                           **kwargs)
        warm_cache = ResultCache(str(tmp_path))
        warm = suite_sweep(machine, cache=warm_cache, **kwargs)
        assert warm_cache.misses == 0 and warm_cache.hits == 1
        assert warm == cold
        assert list(warm["audikw_1"]["model"]) == \
            list(warm["audikw_1"]["series"])
