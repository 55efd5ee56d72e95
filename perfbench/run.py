#!/usr/bin/env python3
"""perfbench runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--traced] [--smoke] [-o OUT.json]

With ``--workload`` the workload runs in this interpreter, every metric
is printed by name with its unit, and the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without it, each workload runs in a fresh interpreter of its own (so
peak memory and import cost are per workload) and the rows are gathered
into one report.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` (``--traced``) the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from pb import spec
from pb.harness import OUT, SRC, environment, run_workload

SCHEMA = 1
SMOKE_SECONDS = 1.0
#: a child that has not finished by then is killed and reported failed
CHILD_TIMEOUT_S = 170.0


def result_line(row: Dict[str, Any]) -> str:
    """The line the driver parses (exactly these four keys)."""
    return json.dumps({"correct": row["correct"],
                       "attempted": row["attempted"],
                       "failed": row["failed"],
                       "metrics": row["metrics"]})


def print_row(row: Dict[str, Any]) -> None:
    name = row["workload"]
    kind = "traced" if row["trace"] else "untraced"
    print(f"== {name} ({kind}, seed {row['seed']}"
          f"{', smoke' if row['smoke'] else ''}) ==")
    for metric, entry in row["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    share = row["failed"] / max(1, row["attempted"])
    print(f"{name} fail_share {share:.6g} ratio "
          f"({row['failed']} of {row['attempted']} operations)")
    if "samples" in row:
        counts = {k: v for k, v in row["samples"].items()
                  if not isinstance(v, list)}
        print(f"{name} samples {json.dumps(counts)}")
    if "virtual_digest" in row:
        print(f"{name} virtual_digest {row['virtual_digest']}")
    for problem in row.get("problems", []):
        print(f"{name} PROBLEM {problem}")


def write_report(path: str, rows: List[Dict[str, Any]], smoke: bool) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "smoke": smoke, "env": environment(),
                   "results": rows}, fh, indent=1)
        fh.write("\n")


def run_child(name: str, args: argparse.Namespace, trace: int
              ) -> Dict[str, Any]:
    """One workload in a fresh interpreter; a child that dies without a
    row still yields one, with every operation failed."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"child-{name}-trace{trace}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "-o", path]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
        status = f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        status = f"killed after {CHILD_TIMEOUT_S:.0f} s"
    try:
        with open(path) as fh:
            row = json.load(fh)["results"][0]
        os.remove(path)
        return row
    except (OSError, ValueError, KeyError, IndexError):
        return {"workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": trace, "smoke": args.smoke, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {}, "crashed": True,
                "problems": [f"workload process left no report ({status})"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds measured per run (default "
                             f"{spec.RUN_SECONDS}; {SMOKE_SECONDS:g} "
                             f"with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths; not comparable")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON report (default: under perfbench/out/)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS
    trace = 1 if args.traced else args.trace

    if args.workload is None:
        rows = [run_child(name, args, trace) for name in spec.WORKLOADS]
        for row in rows:
            print_row(row)
        path = args.output or os.path.join(
            OUT, f"report-seed{args.seed}-trace{trace}.json")
        write_report(path, rows, args.smoke)
        print(f"report: {os.path.relpath(path)}")
        return 0 if all(row["correct"] for row in rows) else 1

    row = run_workload(args.workload, args.seed, args.seconds, bool(trace),
                       args.smoke)
    print_row(row)
    write_report(args.output or os.path.join(
        OUT, f"result-{args.workload}-trace{trace}.json"), [row], args.smoke)
    print(result_line(row))
    return 1 if row.get("crashed") else 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program to measure at {SRC}/repro")
    sys.path.insert(0, SRC)
    sys.exit(main())
