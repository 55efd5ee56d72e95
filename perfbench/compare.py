#!/usr/bin/env python3
"""Compare two sets of perfbench reports with the benchmark's own bounds.

    python3 perfbench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

For every (metric, workload) pair the medians and quartiles of both sets
are printed with a verdict for B against A:

``worse``       B's median is worse than A's by more than the metric's bound
``better``      B wins at least nine tenths of all (A run, B run) pairs and
                the medians differ by more than A's inter-quartile distance
``unresolved``  the run-to-run spread of either set is wider than the
                bound, and the sets are not fully separated
``unchanged``   none of the above

Per-layer metrics have no bound: counts are reported as ``identical`` or
``differs``, times with their change only.  Exits 1 on any ``worse`` or
on a higher share of failed operations, 2 on unusable input (smoke
reports are never compared against full ones).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import spec, stats  # noqa: E402

#: fewer runs than this on a side cannot show a spread, so never "better"
MIN_RUNS_FOR_GAIN = 3
WIN_SHARE_FOR_GAIN = 0.9

Key = Tuple[str, int, str]  # workload, trace, metric


def load(paths: Sequence[str]) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    smoke = set()
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        smoke.add(bool(report["smoke"]))
        rows.extend(report["results"])
    return {"rows": rows, "smoke": smoke}


def values(rows: List[Dict[str, Any]]) -> Dict[Key, List[float]]:
    out: Dict[Key, List[float]] = {}
    for row in rows:
        for metric, entry in row["metrics"].items():
            out.setdefault((row["workload"], row["trace"], metric),
                           []).append(float(entry["value"]))
    return out


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """B against A for one bounded metric (see the module docstring)."""
    med_a, med_b = stats.median(a), stats.median(b)
    lower = better == "lower"
    worsening = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
    b_beats_a = max(b) < min(a) if lower else min(b) > max(a)
    a_beats_b = max(a) < min(b) if lower else min(a) > max(b)
    if (max(stats.spread(a), stats.spread(b)) > bound
            and not (b_beats_a or a_beats_b)):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN and worsening < 0:
        wins = sum((y < x) if lower else (y > x) for x in a for y in b)
        q1, _q2, q3 = stats.quartiles(a)
        if (wins >= WIN_SHARE_FOR_GAIN * len(a) * len(b)
                and abs(med_b - med_a) > q3 - q1):
            return "better"
    return "unchanged"


def describe(vals: Sequence[float]) -> str:
    q1, q2, q3 = stats.quartiles(vals)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}"


def fail_shares(rows: List[Dict[str, Any]]) -> Dict[Tuple[str, int], float]:
    failed: Dict[Tuple[str, int], List[int]] = {}
    for row in rows:
        tally = failed.setdefault((row["workload"], row["trace"]), [0, 0])
        tally[0] += row["failed"]
        tally[1] += row["attempted"]
    return {key: f / max(1, n) for key, (f, n) in failed.items()}


def digests(rows: List[Dict[str, Any]]) -> Dict[Tuple[str, int], set]:
    out: Dict[Tuple[str, int], set] = {}
    for row in rows:
        if "virtual_digest" in row:
            out.setdefault((row["workload"], row["seed"]),
                           set()).add(row["virtual_digest"])
    return out


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    worse = 0
    vals_a, vals_b = values(a["rows"]), values(b["rows"])
    units = {**spec.END_TO_END_UNITS, **spec.PER_LAYER_UNITS}
    for key in sorted(set(vals_a) & set(vals_b)):
        workload, trace, metric = key
        xs, ys = vals_a[key], vals_b[key]
        med_a, med_b = stats.median(xs), stats.median(ys)
        change = (f"{(med_b - med_a) / med_a * 100:+.1f}%" if med_a
                  else "n/a")
        if metric in spec.BOUNDS:
            bound = spec.BOUNDS[metric]
            outcome = verdict(xs, ys, spec.BETTER[metric], bound)
            worse += outcome == "worse"
            limit = f"bound {bound * 100:.0f}%"
        elif units.get(metric) == "count":
            outcome = "identical" if set(xs) == set(ys) else "differs"
            limit = "exact"
        else:
            outcome, limit = "-", "no bound"
        print(f"{workload:13s} {metric:30s} {units.get(metric, '?'):6s} "
              f"A {describe(xs):42s} B {describe(ys):42s} "
              f"{change:>8s}  {limit:10s} {outcome}")
    shares_a, shares_b = fail_shares(a["rows"]), fail_shares(b["rows"])
    for key in sorted(set(shares_a) & set(shares_b)):
        higher = shares_b[key] > shares_a[key]
        worse += higher
        print(f"{key[0]:13s} fail_share A {shares_a[key]:.6g} "
              f"B {shares_b[key]:.6g} {'HIGHER' if higher else 'ok'}")
    dig_a, dig_b = digests(a["rows"]), digests(b["rows"])
    for key in sorted(set(dig_a) & set(dig_b)):
        same = len(dig_a[key] | dig_b[key]) == 1
        print(f"{key[0]:13s} virtual_digest seed {key[1]} "
              f"{'identical' if same else 'DIFFERS'}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a, b = load(argv[:split]), load(argv[split + 1:])
    if len(a["smoke"] | b["smoke"]) != 1:
        print("compare: smoke reports cannot be compared against full "
              "ones", file=sys.stderr)
        return 2
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
