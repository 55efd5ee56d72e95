"""Experiment-record generator smoke test (small scale)."""

import pytest

from repro.bench.figures import render_series
from repro.bench.report import generate
from repro.machine import lassen
from repro.sparse.suite import SUITE, SuiteMatrix, suite_sweep


@pytest.fixture(scope="module")
def report_run():
    """The small record, and the name of every SUITE analog it built."""
    builds = []
    real_build = SuiteMatrix.build

    def counting_build(self, n=0):
        builds.append(self.name)
        return real_build(self, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuiteMatrix, "build", counting_build)
        text = generate(matrix_n=3000, gpu_counts=(8,))
    return text, builds


@pytest.fixture(scope="module")
def report_text(report_run):
    return report_run[0]


@pytest.fixture(scope="module")
def audikw_panel():
    """The suite-sweep panel the small record's Figure 4.2 is a view of."""
    return suite_sweep(lassen(), ["audikw_1"], gpu_counts=(8,),
                       matrix_n=3000)["audikw_1"]


class TestReport:
    def test_contains_every_artifact_section(self, report_text):
        for heading in (
            "Table 2", "Table 3", "Table 4",
            "Figure 2.5", "Figure 2.6", "Figure 3.1",
            "Figure 4.2", "Figure 4.3", "Figure 5.1",
            "regime map",
        ):
            assert heading in report_text, heading

    def test_mentions_all_suite_matrices(self, report_text):
        for name in SUITE:
            assert name in report_text

    def test_builds_each_suite_analog_once(self, report_run):
        """Figure 4.2 is the audikw_1 panel of the one suite sweep, so
        audikw_1 is built once like every other analog."""
        assert sorted(report_run[1]) == sorted(SUITE)

    @pytest.mark.parametrize("row, title, mark_min", [
        ("series", "measured (DES)", True),
        ("model", "modelled (Table 6)", False),
    ])
    def test_fig4_2_tables_are_the_audikw_1_panel(self, report_text,
                                                  audikw_panel, row, title,
                                                  mark_min):
        times = {label: audikw_panel[row][label]
                 for label in sorted(audikw_panel[row])}
        assert render_series(title, "GPUs", [8], times,
                             mark_min=mark_min) in report_text

    def test_fig4_2_ratio_line_reads_the_panel(self, report_text,
                                               audikw_panel):
        std = "Standard (device-aware)"
        ratio = audikw_panel["model"][std][0] / audikw_panel["series"][std][0]
        assert (f"{std} model/measured ratio by scale: 8 GPUs: {ratio:.1f}x"
                in report_text)

    def test_reports_winners(self, report_text):
        assert "Winners at the largest GPU count" in report_text

    def test_paper_reference_values_included(self, report_text):
        assert "4.190e-11" in report_text  # Table 4 R_N^-1
        assert "(paper" in report_text
