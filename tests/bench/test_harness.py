"""Experiment-harness smoke tests: every table/figure regenerates."""

import numpy as np
import pytest

from repro.bench import (
    fig2_5_data,
    fig2_6_data,
    fig3_1_data,
    fig4_3_data,
    render_series,
    render_table2,
    render_table3,
    render_table4,
    table2_data,
    table3_data,
    table4_data,
)
from repro.core.base import default_data, run_exchange, verify_exchange
from repro.core.selector import all_strategies, predict_times
from repro.machine import lassen, resolve_machine
from repro.mpi.job import SimJob
from repro.sparse.distributed import DistributedCSR
from repro.sparse.suite import SUITE, suite_sweep

M = lassen()


def _assert_model_row_is_predict_times(panel, machine, name, matrix_n,
                                       ppn):
    """The panel's ``model`` row has ``series``' labels and is
    ``predict_times`` on the same cell (job, partition), bit for bit."""
    assert list(panel["model"]) == list(panel["series"])
    matrix = SUITE[name].build(matrix_n)
    for i, gpus in enumerate(panel["gpus"]):
        nodes = -(-gpus // machine.gpus_per_node)
        job = SimJob(machine, num_nodes=nodes, ppn=ppn)
        pattern = DistributedCSR(matrix, num_gpus=gpus).comm_pattern()
        expected = predict_times(pattern, job.layout, ppn=ppn)
        assert {label: row[i] for label, row in panel["model"].items()} \
            == {label: expected[label] for label in panel["series"]}


class TestTables:
    def test_table2(self):
        fits = table2_data(M)
        assert len(fits) == 15
        text = render_table2(fits, machine=M)
        assert "CPU rendezvous" in text and "GPU eager" in text

    def test_table3(self):
        fits = table3_data(M)
        assert len(fits) == 4
        text = render_table3(fits, machine=M)
        assert "1 proc" in text and "4 proc" in text

    def test_table4(self):
        fit = table4_data(M)
        assert fit.beta == pytest.approx(M.nic.rn_inv, rel=1e-3)
        assert "R_N" in render_table4(fit, machine=M)


class TestFigureData:
    def test_fig2_5(self):
        sizes, series = fig2_5_data(M, sizes=[64, 4096, 65536])
        assert set(series) == {"on-socket", "on-node", "off-node"}
        assert all(len(v) == 3 for v in series.values())

    def test_fig2_6(self):
        sizes, series = fig2_6_data(M, sizes=[1 << 12, 1 << 22],
                                    ppn_values=[1, 8])
        assert set(series) == {"ppn=1", "ppn=8"}
        # large volume: more processes help
        assert series["ppn=8"][1] < series["ppn=1"][1]

    def test_fig3_1(self):
        sizes, series = fig3_1_data(M, sizes=[1 << 12, 1 << 20],
                                    nproc_values=(1, 4))
        assert len(series) == 4  # 2 directions x 2 NP values

    def test_fig4_3_panels(self):
        panels = fig4_3_data(M, sizes=np.logspace(1, 4, 4))
        assert len(panels) == 8  # 4 scenarios x 2 dup fractions
        for _label, (sizes, series) in panels.items():
            assert len(series) == 10

    def test_fig4_2_small(self):
        d = suite_sweep(M, ["audikw_1"], gpu_counts=(8,), matrix_n=3000,
                        ppn=8)["audikw_1"]
        assert set(d["series"]) == set(d["model"])
        # 8 GPUs on 2 lassen nodes: the model row is costed on that job
        _assert_model_row_is_predict_times(d, M, "audikw_1", 3000, ppn=8)
        # models upper-bound or track measured for node-aware strategies
        for label in ("3-Step (staged)", "Split + MD (staged)"):
            assert d["model"][label][0] > 0 and d["series"][label][0] > 0

    def test_fig5_1_small(self):
        data = suite_sweep(M, matrices=["thermal2"], gpu_counts=(8,),
                           matrix_n=4096, ppn=8)
        d = data["thermal2"]
        assert d["gpus"] == [8]
        assert len(d["series"]) == 8
        assert d["meta"][8]["inter_node_msgs"] > 0

    def test_part_filled_last_node_on_summit(self):
        """6 GPUs per node: 8 GPUs need 2 nodes and 16 need 3, not 1 and 2."""
        summit = resolve_machine("summit")
        panel = suite_sweep(summit, matrices=["thermal2"], gpu_counts=(8, 16),
                            matrix_n=4096, ppn=8)["thermal2"]
        assert len(panel["series"]) == 8
        assert all(len(times) == 2 and min(times) > 0
                   for times in panel["series"].values())
        data = suite_sweep(summit, ["audikw_1"], gpu_counts=(8, 16),
                           matrix_n=3000, ppn=8)["audikw_1"]
        _assert_model_row_is_predict_times(data, summit, "audikw_1", 3000,
                                           ppn=8)
        assert set(data["series"]) == set(data["model"])
        # a count that fills fewer than 2 nodes is not a panel column
        with pytest.raises(ValueError, match="< 2 nodes"):
            suite_sweep(summit, ["audikw_1"], gpu_counts=(6,),
                        matrix_n=3000, ppn=8)

    @pytest.mark.parametrize("gpus, nodes", [(8, 2), (16, 3)])
    def test_every_strategy_delivers_on_a_part_filled_node(self, gpus, nodes):
        job = SimJob(resolve_machine("summit"), num_nodes=nodes, ppn=8)
        pattern = DistributedCSR(SUITE["thermal2"].build(4096),
                                 num_gpus=gpus).comm_pattern()
        data = default_data(pattern, job.layout)
        strategies = all_strategies(include_extended=True)
        assert len(strategies) == 13
        for strategy in strategies:
            verify_exchange(run_exchange(job, strategy, pattern, data=data),
                            pattern, data)


class TestRender:
    def test_render_series_marks_minimum(self):
        text = render_series("t", "x", [1, 2],
                             {"a": [3.0, 1.0], "b": [2.0, 5.0]},
                             mark_min=True)
        lines = text.splitlines()
        assert "t" == lines[0]
        assert "*" in lines[2] and "*" in lines[3]
