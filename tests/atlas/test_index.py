"""Atlas query semantics: exact grid agreement, interpolation, fallback."""

import numpy as np
import pytest

from repro.atlas import (
    MARGIN_BAND,
    AtlasGridSpec,
    AtlasIndex,
    build_atlas,
    default_grid,
)
from repro.atlas import lookup as atlas_lookup
from repro.machine import resolve_machine
from repro.models.decision import decide
from repro.models.scenarios import Scenario, best_strategy
from repro.obs.metrics import MetricsRegistry

SPEC = default_grid(smoke=True)


@pytest.fixture(scope="module", params=["lassen", "summit", "frontier_like"])
def machine_index(request):
    machine = resolve_machine(request.param)
    return machine, AtlasIndex(build_atlas(machine, spec=SPEC))


class TestGridAgreement:
    def test_every_grid_point_matches_exact_evaluation(self, machine_index):
        """The tentpole contract: on-grid lookups equal best_strategy,
        winner for winner, on every machine preset."""
        machine, index = machine_index
        for (i, j, k, l) in SPEC.points():
            scenario = SPEC.scenario_at(i, j, k)
            size = SPEC.sizes[l]
            answer = index.lookup(scenario, size)
            assert answer.winner == best_strategy(machine, scenario, size), \
                (machine.name, i, j, k, l)
            assert answer.source == "atlas"
            assert not answer.interpolated

    def test_on_grid_never_falls_back(self, machine_index):
        _machine, index = machine_index
        counters = index.counters()
        assert counters["atlas.fallbacks.margin"] == 0
        assert counters["atlas.fallbacks.hull"] == 0
        assert counters["atlas.hits"] == counters["atlas.lookups"]

    def test_on_grid_times_are_the_kernel_outputs(self, machine_index):
        _machine, index = machine_index
        answer = index.lookup(SPEC.scenario_at(0, 0, 0), SPEC.sizes[0])
        assert np.array_equal(answer.times,
                              index.atlas.times[:, 0, 0, 0, 0])


class TestInterpolation:
    @pytest.fixture(scope="class")
    def index(self):
        return AtlasIndex(build_atlas(resolve_machine("lassen"), spec=SPEC))

    def test_off_grid_interpolates(self, index):
        answer = index.query(8, 100, 5_000.0, dup_fraction=0.1)
        assert answer.interpolated
        assert answer.winner in index.atlas.labels
        assert answer.margin >= 0.0

    def test_interpolated_times_bracketed_by_corners(self, index):
        # between two size grid points, all else on-grid: the log-space
        # blend stays inside the corner values, per strategy
        lo_l, hi_l = 1, 2
        size = float(np.sqrt(SPEC.sizes[lo_l] * SPEC.sizes[hi_l]))
        answer = index.lookup(SPEC.scenario_at(0, 0, 0), size)
        assert answer.interpolated and answer.source == "atlas"
        lo = index.atlas.times[:, 0, 0, 0, lo_l]
        hi = index.atlas.times[:, 0, 0, 0, hi_l]
        assert np.all(answer.times >= np.minimum(lo, hi) * (1 - 1e-12))
        assert np.all(answer.times <= np.maximum(lo, hi) * (1 + 1e-12))

    def test_margin_is_the_runner_up_gap(self, index):
        answer = index.lookup(SPEC.scenario_at(0, 0, 0), SPEC.sizes[0])
        ordered = np.sort(answer.times)
        expected = (ordered[1] - ordered[0]) / ordered[0]
        assert answer.margin == pytest.approx(expected)


class TestFallback:
    def test_out_of_hull_evaluates_exactly(self):
        machine = resolve_machine("lassen")
        index = AtlasIndex(build_atlas(machine, spec=SPEC))
        scenario = Scenario(num_dest_nodes=64, num_messages=1024)
        answer = index.lookup(scenario, 5_000.0)
        assert answer.source == "exact-hull"
        assert answer.exact
        assert answer.winner == best_strategy(machine, scenario, 5_000.0)
        assert index.counters()["atlas.fallbacks.hull"] == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_size_raises(self, bad):
        """No size outside [0, inf) gets a winner — it used to be
        ``Standard (staged)`` for NaN."""
        index = AtlasIndex(build_atlas(resolve_machine("lassen"), spec=SPEC))
        with pytest.raises(ValueError, match=f"got .*{bad!r}"):
            index.lookup(Scenario(num_dest_nodes=4, num_messages=32), bad)

    def test_the_band_splits_interpolated_queries(self):
        """Off-grid queries whose interpolated margin falls inside the
        band answer exactly; the rest answer from the atlas."""
        machine = resolve_machine("lassen")
        index = AtlasIndex(build_atlas(machine, spec=SPEC))
        seen = {"exact-margin": 0, "atlas": 0}
        for nodes, msgs in ((5, 40), (8, 100), (12, 200)):
            scenario = Scenario(num_dest_nodes=nodes, num_messages=msgs)
            for size in np.logspace(1, 6, 13):
                times, interpolated = index._grid_times(scenario, size)
                inside = decide(index.atlas.labels, times).margin < MARGIN_BAND
                answer = index.lookup(scenario, size)
                assert interpolated and answer.interpolated
                assert answer.source == ("exact-margin" if inside
                                         else "atlas")
                if inside:
                    assert answer.winner == best_strategy(machine, scenario,
                                                          size)
                seen[answer.source] += 1
        assert all(seen.values()), seen  # the grid has both kinds
        assert index.counters()["atlas.fallbacks.margin"] == \
            seen["exact-margin"]
        on_grid = index.lookup(SPEC.scenario_at(0, 0, 0), SPEC.sizes[0])
        assert on_grid.source == "atlas"  # on-grid never falls back


class TestCounters:
    def test_counters_live_in_a_metrics_registry(self):
        registry = MetricsRegistry()
        index = AtlasIndex(build_atlas(resolve_machine("lassen"),
                                       spec=SPEC), metrics=registry)
        index.lookup(SPEC.scenario_at(0, 0, 0), SPEC.sizes[0])
        index.query(64, 1024, 5_000.0)  # hull fallback
        snapshot = registry.to_dict()["counters"]
        assert snapshot["atlas.lookups"] == 2
        assert snapshot["atlas.hits"] == 1
        assert snapshot["atlas.fallbacks.hull"] == 1


class TestModuleLookup:
    def test_convenience_lookup_builds_and_memoizes(self):
        import repro.atlas.index as index_mod

        index_mod._DEFAULT_INDEXES.clear()
        tiny = Scenario(num_dest_nodes=4, num_messages=256)
        first = atlas_lookup("lassen", tiny, 1_000.0)
        assert first.winner == best_strategy(resolve_machine("lassen"),
                                             tiny, 1_000.0)
        assert "lassen" in index_mod._DEFAULT_INDEXES
        cached = index_mod._DEFAULT_INDEXES["lassen"]
        atlas_lookup("lassen", tiny, 1_000.0)
        assert index_mod._DEFAULT_INDEXES["lassen"] is cached

    def test_single_axis_value_grids_answer_on_grid(self):
        spec = AtlasGridSpec(node_counts=(4,), msg_counts=(32,),
                             dup_fractions=(0.0,), sizes=(1_000.0,))
        index = AtlasIndex(build_atlas(resolve_machine("lassen"),
                                       spec=spec))
        answer = index.query(4, 32, 1_000.0)
        assert answer.source == "atlas" and not answer.interpolated
        off = index.query(4, 32, 2_000.0)
        assert off.source == "exact-hull"
