import json

import pytest

import compare


def report(path, workload, values, smoke=False, failed=0, digest="d",
           metric="work_per_s", unit="1/s"):
    rows = [{"workload": workload, "seed": 1, "trace": 0, "smoke": smoke,
             "correct": failed == 0, "attempted": 100, "failed": failed,
             "virtual_digest": digest,
             "metrics": {metric: {"value": v, "unit": unit}}}
            for v in values]
    path.write_text(json.dumps({"schema": 1, "smoke": smoke, "env": {},
                                "results": rows}))
    return str(path)


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


@pytest.mark.parametrize("b, expected", [
    ([v * 1.0 for v in STEADY], "unchanged"),
    ([v * 0.97 for v in STEADY], "unchanged"),     # inside the 10 % bound
    ([v * 0.85 for v in STEADY], "worse"),         # higher is better
    ([v * 1.20 for v in STEADY], "better"),
    ([70.0, 130.0, 95.0, 105.0, 100.0], "unresolved"),
])
def test_verdicts_for_a_higher_is_better_metric(b, expected):
    assert compare.verdict(STEADY, b, "higher", 0.10) == expected


def test_wide_spread_is_resolved_when_the_sets_are_separated():
    wide = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(wide, [v * 3 for v in wide], "lower",
                           0.10) == "worse"
    assert compare.verdict(wide, [v / 3 for v in wide], "lower",
                           0.10) == "better"


def test_single_runs_never_claim_a_gain():
    assert compare.verdict([100.0], [150.0], "higher", 0.10) == "unchanged"
    assert compare.verdict([100.0], [50.0], "higher", 0.10) == "worse"


def test_exit_codes(tmp_path, capsys):
    a = report(tmp_path / "a.json", "fig51_des", STEADY)
    same = report(tmp_path / "b.json", "fig51_des", STEADY)
    slow = report(tmp_path / "c.json", "fig51_des",
                  [v * 0.5 for v in STEADY])
    failing = report(tmp_path / "d.json", "fig51_des", STEADY, failed=3)
    smoke = report(tmp_path / "e.json", "fig51_des", STEADY, smoke=True)
    assert compare.main([a, "--", same]) == 0
    assert "identical" in capsys.readouterr().out
    assert compare.main([a, "--", slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([a, "--", failing]) == 1
    assert "HIGHER" in capsys.readouterr().out
    assert compare.main([a, "--", smoke]) == 2
    assert compare.main([a, same]) == 2
    capsys.readouterr()


def test_counts_compare_exactly(tmp_path, capsys):
    kwargs = dict(metric="sim.events", unit="count")
    a = report(tmp_path / "a.json", "fig51_des", [5.0, 5.0], **kwargs)
    b = report(tmp_path / "b.json", "fig51_des", [5.0, 6.0], **kwargs)
    assert compare.main([a, "--", a]) == 0
    assert "identical" in capsys.readouterr().out
    assert compare.main([a, "--", b]) == 0
    assert "differs" in capsys.readouterr().out
