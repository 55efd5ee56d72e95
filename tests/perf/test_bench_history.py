"""``BENCH_history.jsonl``: the perfbench trajectory, one line per PR.

``perfbench/baseline.json`` holds the first numbers and cannot move (a
PR that claims a gain may not edit the benchmark), so the medians each
PR measured are appended here instead.  This test keeps the file a
dataset: every line parses, carries every workload x metric key of
``BENCHMARK.json``, and PR numbers only go up.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _lines():
    text = (ROOT / "BENCH_history.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def _keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {f"{w['name']}/{m['name']}"
            for w in spec["workloads"] for m in spec["end_to_end"]}


def test_every_line_carries_every_workload_metric_pair():
    keys = _keys()
    assert len(keys) == 24
    lines = _lines()
    assert len(lines) >= 6  # seeded with PRs 11-15, then one per PR
    for line in lines:
        assert set(line) == {"pr", "commit", "kind", "claim", "medians"}
        assert set(line["medians"]) == keys, line["pr"]
        for key, cell in line["medians"].items():
            assert set(cell) == {"parent", "change"}, (line["pr"], key)
            for value in cell.values():
                assert value is None or value > 0, (line["pr"], key)
        assert line["claim"] is None or line["claim"] in keys


def test_pr_numbers_increase_and_only_the_last_commit_may_be_unknown():
    lines = _lines()
    prs = [line["pr"] for line in lines]
    assert prs == sorted(set(prs)) and prs[0] == 11
    for line in lines[:-1]:
        assert isinstance(line["commit"], str) and len(line["commit"]) >= 7


def test_a_claimed_metric_was_measured_on_both_sides():
    for line in _lines():
        if line["claim"] is not None:
            cell = line["medians"][line["claim"]]
            assert cell["parent"] and cell["change"], line["pr"]
