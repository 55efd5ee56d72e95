"""Section 4.6 scenarios and the paper's Figure-4.3 qualitative shape."""

import numpy as np
import pytest
from dataclasses import fields, replace

from repro.machine import lassen, resolve_machine
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    _joint_scenario_batch,
    best_strategy,
    scenario_summary,
    scenario_summary_batch,
    sweep_scenario,
)

M = lassen()


class TestScenarioConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(num_dest_nodes=0, num_messages=4)
        with pytest.raises(ValueError):
            Scenario(num_dest_nodes=8, num_messages=4)
        with pytest.raises(ValueError):
            Scenario(num_dest_nodes=2, num_messages=4, dup_fraction=1.0)

    def test_paper_panels(self):
        assert len(PAPER_SCENARIOS) == 4
        shapes = {(s.num_dest_nodes, s.num_messages) for s in PAPER_SCENARIOS}
        assert shapes == {(4, 32), (4, 256), (16, 32), (16, 256)}

    def test_summary_quantities(self):
        sc = Scenario(num_dest_nodes=4, num_messages=32)
        s = scenario_summary(M, sc, msg_size=1000.0)
        assert s.num_dest_nodes == 4
        assert s.messages_per_node_pair == 8
        assert s.bytes_per_node_pair == pytest.approx(8000.0)
        assert s.node_bytes == pytest.approx(32_000.0)
        assert s.proc_bytes == pytest.approx(8000.0)   # 32 msgs / 4 GPUs
        assert s.proc_messages == 8
        assert s.active_gpus == 4

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            scenario_summary(M, PAPER_SCENARIOS[0], -1.0)


class TestSweep:
    def test_sweep_shapes(self):
        sizes = np.logspace(1, 4, 5)
        out = sweep_scenario(M, PAPER_SCENARIOS[0], sizes)
        assert len(out) == 10  # includes the 2-Step 1 best cases
        for series in out.values():
            assert series.shape == (5,)
            assert (series > 0).all()
            # monotone nondecreasing in message size
            assert (np.diff(series) >= -1e-15).all()


class TestJointBatch:
    """The broadcast ``(scenarios x sizes)`` batch is field-wise the
    concatenation of the per-scenario batches, dtype included."""

    MIXED = PAPER_SCENARIOS + (
        Scenario(num_dest_nodes=16, num_messages=256, dup_fraction=0.25),
        Scenario(num_dest_nodes=7, num_messages=300, dup_fraction=0.4),
        # fewer messages than GPUs on a node
        Scenario(num_dest_nodes=1, num_messages=1),
        Scenario(num_dest_nodes=2, num_messages=3, dup_fraction=0.1),
    )

    @pytest.mark.parametrize("machine_name", ["lassen", "frontier_like"])
    @pytest.mark.parametrize("sizes", [np.logspace(0, 7, 23),
                                       np.array([4096.0]),
                                       np.array([0.0, 1.0 / 3.0])])
    def test_fieldwise_equal_to_concatenation(self, machine_name, sizes):
        machine = resolve_machine(machine_name)
        assert any(sc.num_messages < machine.gpus_per_node
                   for sc in self.MIXED)
        joint, keep = _joint_scenario_batch(machine, self.MIXED, sizes)
        batches = [scenario_summary_batch(machine, sc, sizes)
                   for sc in self.MIXED]
        for f in fields(joint):
            want = np.concatenate([getattr(b, f.name) for b in batches])
            got = getattr(joint, f.name)
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want), f.name
        want_keep = np.concatenate([np.full(sizes.shape, 1.0 - sc.dup_fraction)
                                    for sc in self.MIXED])
        assert keep.dtype == want_keep.dtype
        assert np.array_equal(keep, want_keep)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="msg sizes must be >= 0"):
            _joint_scenario_batch(M, PAPER_SCENARIOS, np.array([8.0, -8.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_size_outside_zero_to_infinity_rejected_everywhere(self, bad):
        """``nan < 0`` is false: the check is "not inside [0, inf)", and
        every entry point names the value it refused."""
        sc = PAPER_SCENARIOS[0]
        named = f"got .*{bad!r}"
        with pytest.raises(ValueError, match=named):
            scenario_summary(M, sc, bad)
        with pytest.raises(ValueError, match=named):
            scenario_summary_batch(M, sc, [8.0, bad, 64.0])
        with pytest.raises(ValueError, match=named):
            _joint_scenario_batch(M, PAPER_SCENARIOS, np.array([8.0, bad]))
        with pytest.raises(ValueError, match=named):
            best_strategy(M, sc, bad)


class TestPaperShape:
    """The qualitative Figure-4.3 structure the reproduction must keep."""

    def test_staged_node_aware_wins_small_messages(self):
        for sc in PAPER_SCENARIOS:
            label = best_strategy(M, sc, 256.0)
            assert "staged" in label and "Standard" not in label

    def test_standard_device_aware_wins_very_large_low_count(self):
        sc = Scenario(num_dest_nodes=4, num_messages=32)
        assert best_strategy(M, sc, 2**20) == "Standard (device-aware)"

    def test_device_aware_node_aware_wins_large_high_count(self):
        """High message counts: 3-Step/2-Step DA beat standard DA at
        large sizes (message-count reduction dominates)."""
        sc = Scenario(num_dest_nodes=16, num_messages=256)
        label = best_strategy(M, sc, 2**17)
        assert "device-aware" in label and "Standard" not in label

    def test_split_md_wins_many_nodes_high_count_mid_sizes(self):
        sc = Scenario(num_dest_nodes=16, num_messages=256)
        assert best_strategy(M, sc, 4096.0) == "Split + MD (staged)"

    def test_dup_removal_can_flip_md_to_dd(self):
        """Figure 4.3 bottom rows: removing 25% duplicate data switches
        the winner from Split+MD toward Split+DD at some sizes."""
        sc = Scenario(num_dest_nodes=16, num_messages=256)
        flipped = False
        for size in np.logspace(3, 4.6, 12):
            plain = best_strategy(M, sc, size)
            dup = best_strategy(M, replace(sc, dup_fraction=0.25), size)
            if plain == "Split + MD (staged)" and dup == "Split + DD (staged)":
                flipped = True
        assert flipped

    def test_two_step_best_case_dominates_two_step(self):
        """2-Step 1 is the idealized best case — never slower."""
        from repro.models.strategies import (
            TwoStepBestCaseDeviceModel,
            TwoStepDeviceModel,
        )

        sc = Scenario(num_dest_nodes=16, num_messages=256)
        for size in (256.0, 4096.0, 65536.0, 2**20):
            s = scenario_summary(M, sc, size)
            assert (TwoStepBestCaseDeviceModel(M).time(s)
                    <= TwoStepDeviceModel(M).time(s) + 1e-15)
