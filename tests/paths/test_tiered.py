"""Locality-tier costing: flat bit-identity goldens + tier features.

``tier_flat/...`` goldens in ``tests/data/golden_times.json`` were
captured from the pre-hierarchy model code; every strategy model must
keep reproducing them bit-for-bit through both the scalar and the array
walks — the locality-hierarchy machinery is a strict superset of the
flat postal model.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.machine.locality import Locality, TransportKind
from repro.machine.presets import frontier_like, lassen, resolve_machine
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    fused_scenario_times,
    scenario_summary,
    sweep_scenario,
)
from repro.models.strategies import all_strategy_models, model_label
from repro.paths.ir import Hop, HopKind, HopStage, Serialization, StageKind
from repro.paths.compile import as_setup, off_node_stage
from repro.paths.kernel import (
    ARRAY_OPS,
    SCALAR_OPS,
    cpu_injection_rate,
    resolve_link,
    stage_cost,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "data" /
     "golden_times.json").read_text())

MACHINES = ("lassen", "summit", "frontier_like")


# ---------------------------------------------------------------------------
# Flat degenerate case: bit-identical to the pre-hierarchy goldens
# ---------------------------------------------------------------------------
class TestFlatGoldens:
    @pytest.mark.parametrize("name", MACHINES)
    def test_fused_sweep_reproduces_golden(self, name):
        m = resolve_machine(name)
        scenarios = [Scenario(num_dest_nodes=n, num_messages=max(256, n))
                     for n in (2, 8, 32)]
        labels, times = fused_scenario_times(
            m, scenarios, list(np.logspace(1, 6, 6)))
        for i, label in enumerate(labels):
            got = [float.hex(float(t)) for t in times[i].ravel()]
            assert got == GOLDEN[f"tier_flat/{name}/fused/{label}"], label

    @pytest.mark.parametrize("name", MACHINES)
    def test_scalar_models_reproduce_golden(self, name):
        m = resolve_machine(name)
        s = scenario_summary(m, Scenario(num_dest_nodes=8, num_messages=256),
                             msg_size=20000.0)
        for model in all_strategy_models(m):
            got = float.hex(model.time(s))
            assert got == GOLDEN[f"tier_flat/{name}/scalar/"
                                 f"{model_label(model)}"], model_label(model)


# ---------------------------------------------------------------------------
# Tier refinements: alpha/beta scaling, NIC shares, persistent channels
# ---------------------------------------------------------------------------
def _off_node_hop(nbytes, **kw):
    kw.setdefault("serialization", Serialization.SEQUENTIAL)
    return Hop(HopKind.CPU_SEND, count=1.0, nbytes=nbytes,
               locality=Locality.OFF_NODE, **kw)


class TestTierScaling:
    def test_group_tier_scales_alpha_only(self):
        m = frontier_like()
        group = m.locality_hierarchy.deepest_network_tier()
        flat = resolve_link(m, _off_node_hop(20000.0), SCALAR_OPS)
        tiered = resolve_link(m, _off_node_hop(20000.0, tier=group),
                              SCALAR_OPS)
        assert tiered[0] == 0.5 * flat[0]
        assert tiered[1] == flat[1]

    def test_global_tier_is_bit_identical_to_flat(self):
        m = frontier_like()
        glob = m.locality_hierarchy.tier_of(Locality.OFF_NODE)
        flat = resolve_link(m, _off_node_hop(300.0), SCALAR_OPS)
        tiered = resolve_link(m, _off_node_hop(300.0, tier=glob), SCALAR_OPS)
        assert tiered == flat

    def test_scalar_and_array_links_agree_on_tiers(self):
        m = frontier_like()
        group = m.locality_hierarchy.deepest_network_tier()
        sizes = np.array([64.0, 4096.0, 20000.0, 1.0e6])
        alpha_a, beta_a = ARRAY_OPS.link(m, TransportKind.CPU,
                                         Locality.OFF_NODE, sizes, False)
        for i, nbytes in enumerate(sizes):
            a, b = resolve_link(m, _off_node_hop(float(nbytes), tier=group),
                                SCALAR_OPS)
            assert a == 0.5 * alpha_a[i]
            assert b == beta_a[i]


class TestNicSerialization:
    def test_nics_used_overrides_node_aggregate(self):
        m = frontier_like()
        base = _off_node_hop(20000.0, serialization=Serialization.MAX_RATE,
                             total_bytes=1.0e6, node_bytes=4.0e6)
        assert cpu_injection_rate(m, base) == \
            m.nic.injection_rate * m.nic.nics_per_node
        one = Hop(**{**base.__dict__, "nics_used": 1})
        assert cpu_injection_rate(m, one) == m.nic.injection_rate

    def test_nics_used_clamps_to_ports_present(self):
        m = frontier_like()
        hop = _off_node_hop(20000.0, serialization=Serialization.MAX_RATE,
                            total_bytes=1.0e6, node_bytes=4.0e6,
                            nics_used=99)
        assert cpu_injection_rate(m, hop) == \
            m.nic.injection_rate * m.nic.nics_per_node

    def test_tier_nic_share_scales_node_rate(self):
        m = frontier_like()
        group = m.locality_hierarchy.deepest_network_tier()
        hop = _off_node_hop(20000.0, serialization=Serialization.MAX_RATE,
                            total_bytes=1.0e6, node_bytes=4.0e6, tier=group)
        assert cpu_injection_rate(m, hop) == \
            m.nic.injection_rate * m.nic.nics_per_node * 0.25

    def test_legacy_rate_on_flat_machines(self):
        m = lassen()
        hop = _off_node_hop(20000.0, serialization=Serialization.MAX_RATE,
                            total_bytes=1.0e6, node_bytes=4.0e6)
        assert cpu_injection_rate(m, hop) == m.nic.injection_rate


class TestPersistentChannels:
    def test_pre_posted_pays_eager_alpha_rendezvous_beta(self):
        m = lassen()
        nbytes = 20000.0  # above the 8192 B rendezvous threshold
        _, link = m.comm_params.persistent_link(TransportKind.CPU,
                                                Locality.OFF_NODE, nbytes)
        got = resolve_link(m, _off_node_hop(nbytes, pre_posted=True),
                           SCALAR_OPS)
        assert got == (link.alpha, link.beta)
        flat = resolve_link(m, _off_node_hop(nbytes), SCALAR_OPS)
        assert got[0] < flat[0] and got[1] == flat[1]

    def test_pre_posted_below_threshold_is_a_noop(self):
        m = lassen()
        assert resolve_link(m, _off_node_hop(512.0, pre_posted=True),
                            SCALAR_OPS) == \
            resolve_link(m, _off_node_hop(512.0), SCALAR_OPS)


class TestSetupAmortization:
    def test_as_setup_divides_stage_cost(self):
        m = lassen()
        stage = off_node_stage(4.0, 4.0 * 20000.0, 80000.0, 20000.0)
        setup = as_setup(stage, 64.0)
        assert setup.kind is StageKind.SETUP
        assert setup.phases == ()
        assert stage_cost(m, setup, SCALAR_OPS) == \
            stage_cost(m, stage, SCALAR_OPS) / 64.0

    def test_setup_stage_rejects_phases(self):
        with pytest.raises(ValueError, match="SETUP"):
            HopStage("bad", hops=(_off_node_hop(100.0),),
                     phases=("gather",), kind=StageKind.SETUP,
                     amortize_over=8.0)


# ---------------------------------------------------------------------------
# Array walk == scalar walk on *tiered* plans (the extended families)
# ---------------------------------------------------------------------------
class TestFusedTieredIdentity:
    @pytest.mark.parametrize("name", MACHINES)
    @pytest.mark.parametrize("dup", [0.0, 0.25])
    @pytest.mark.parametrize("base", [
        Scenario(num_dest_nodes=8, num_messages=256), *PAPER_SCENARIOS],
        ids=lambda sc: sc.label)
    def test_fused_matches_scalar_for_extended_models(self, name, dup, base):
        m = resolve_machine(name)
        models = all_strategy_models(m, include_best_case=False,
                                     include_extended=True)
        sc = replace(base, dup_fraction=dup)
        sizes = np.logspace(0, 7, 8)
        fused = sweep_scenario(m, sc, sizes, models=models)
        assert len(fused) == 13
        for model in models:
            series = fused[model_label(model)]
            for j, size in enumerate(sizes):
                s = scenario_summary(m, sc, msg_size=float(size))
                assert float(series[j]) == model.time(s, dup), \
                    (model_label(model), size)
