"""``python -m repro obs`` — analyze run ledgers.

Subcommands
-----------
``obs report <ledger>``
    One-page summary of a run: header (run id, command, machine, git),
    per-strategy/per-phase cost breakdown, latency histograms with
    p50/p95/p99, cache hit rate, fleet telemetry (workers, chunk
    heartbeats, stragglers) and — for resumed sweeps — the shards
    restored from the previous run.
``obs diff <A> <B>``
    **Regression attribution** between two ledgers: ranks the
    (scenario, strategy) cells whose cost moved and attributes the
    largest mover to the strategy *phase* carrying the change.
``obs flame <ledger>``
    Collapsed-stack output (``flamegraph.pl`` / speedscope format) from
    the ledger's sampling-profiler stacks when the run used
    ``--profile``, else synthesized from the recorded per-phase virtual
    times.
``obs validate <ledger>``
    Structural schema check (:func:`repro.obs.ledger.validate_ledger`);
    non-zero exit on violation — CI runs this on every uploaded ledger.

Also home of :func:`hotspots`, the span-aggregation primitive behind
the per-phase tables ("where did the virtual time go"), shared by
``repro trace --report`` and the ledger writers.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.ledger import (
    ENVELOPE_KEY,
    read_ledger,
    split_runs,
    validate_ledger,
)

#: default row limit for top-N tables
DEFAULT_TOP = 10


# ---------------------------------------------------------------------------
# Hotspot attribution over spans
# ---------------------------------------------------------------------------
def _track_kind(track: str) -> str:
    """Normalize a track name to its kind: rank / phase / nic / other."""
    if track.startswith("rank"):
        return "phase" if track.endswith("/phase") else "rank"
    if track.startswith("nic") or track.startswith("gpu-nic"):
        return "nic"
    return track


def hotspots(tracer_or_spans: Any,
             top: Optional[int] = DEFAULT_TOP) -> List[Dict[str, Any]]:
    """Aggregate spans into a top-N wall table by (track kind, name).

    Accepts a :class:`~repro.obs.tracer.MemoryTracer` or any iterable
    of :class:`~repro.obs.tracer.SpanRecord`.  Rows carry ``kind``
    (normalized track family), ``name``, ``count``, ``total_s`` and
    ``mean_s``, sorted by descending total virtual time (ties broken by
    name, so the table is deterministic).  ``top=None`` returns all
    rows.
    """
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    agg: Dict[Tuple[str, str], List[float]] = {}
    for s in spans:
        cell = agg.setdefault((_track_kind(s.track), s.name), [0, 0.0])
        cell[0] += 1
        cell[1] += s.t1 - s.t0
    rows = [
        {"kind": kind, "name": name, "count": int(count),
         "total_s": total, "mean_s": total / count if count else 0.0}
        for (kind, name), (count, total) in agg.items()
    ]
    rows.sort(key=lambda r: (-r["total_s"], r["kind"], r["name"]))
    return rows[:top] if top is not None else rows


def render_hotspots(rows: Sequence[Mapping[str, Any]],
                    title: str = "hotspots (virtual time)") -> str:
    """ASCII table for a :func:`hotspots` row list."""
    lines = [f"=== {title} ==="]
    if not rows:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    width = max(len(f"{r['kind']}/{r['name']}") for r in rows)
    for r in rows:
        label = f"{r['kind']}/{r['name']}"
        lines.append(f"  {label:<{width}s}  {r['count']:>7d} spans  "
                     f"total {r['total_s']:.3e} s  "
                     f"mean {r['mean_s']:.3e} s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ledger loading
# ---------------------------------------------------------------------------
def _load_ledger(path: str) -> List[Dict[str, Any]]:
    """``read_ledger`` + ``validate_ledger``: the records of a valid ledger."""
    records = read_ledger(path)
    validate_ledger(records)
    return records


class LedgerSummary:
    """Indexed view of one run's records (the last run in the file)."""

    def __init__(self, records: Sequence[Mapping[str, Any]]) -> None:
        runs = split_runs(records)
        if not runs:
            raise ValueError("ledger holds no records")
        run = runs[-1]
        self.header: Dict[str, Any] = dict(run[0])
        self.end: Dict[str, Any] = (dict(run[-1])
                                    if run[-1].get("event") == "run_end"
                                    else {})
        self.cells: Dict[Tuple[Any, str], Dict[str, Any]] = {}
        self.workloads: Dict[str, Dict[str, Any]] = {}
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.cache: Optional[Dict[str, Any]] = None
        self.cache_corrupt: List[Dict[str, Any]] = []
        self.cache_repair: List[Dict[str, Any]] = []
        self.sweeps: List[Dict[str, Any]] = []
        self.fleet: List[Dict[str, Any]] = []
        self.heartbeats: List[Dict[str, Any]] = []
        self.resumes: List[Dict[str, Any]] = []
        self.span_summaries: List[Dict[str, Any]] = []
        self.profile_stacks: List[Dict[str, Any]] = []
        for record in run[1:]:
            kind = record.get("event")
            if kind == "cell":
                key = (record.get("scenario"), record.get("strategy"))
                self.cells[key] = dict(record)
            elif kind == "workload":
                self.workloads[record["name"]] = dict(record)
            elif kind == "metrics":
                self.metrics[record.get("name", "metrics")] = \
                    record["snapshot"]
            elif kind == "cache":
                self.cache = dict(record)
            elif kind == "cache_corrupt":
                self.cache_corrupt.append(dict(record))
            elif kind == "cache_repair":
                self.cache_repair.append(dict(record))
            elif kind == "sweep":
                self.sweeps.append(dict(record))
            elif kind == "fleet":
                self.fleet.append(dict(record))
            elif kind == "heartbeat":
                self.heartbeats.append(dict(record))
            elif kind == "sweep_resume":
                self.resumes.append(dict(record))
            elif kind == "span_summary":
                self.span_summaries.append(dict(record))
            elif kind == "profile_stack":
                self.profile_stacks.append(dict(record))

    @property
    def run_id(self) -> str:
        return self.header.get("run_id", "?")

    @property
    def cmd(self) -> str:
        return self.header.get("cmd", "?")

    @property
    def args(self) -> Dict[str, Any]:
        return dict(self.header.get("args", {}))

    def cell_time(self, key: Tuple[Any, str]) -> Optional[float]:
        cell = self.cells.get(key)
        if cell is None:
            return None
        t = cell.get("time_s")
        return float(t) if t is not None else None

    def phase_totals(self, key: Tuple[Any, str]) -> Dict[str, float]:
        cell = self.cells.get(key, {})
        phases = cell.get("phases") or {}
        return {name: float(p["total_s"]) for name, p in phases.items()}


# ---------------------------------------------------------------------------
# obs report
# ---------------------------------------------------------------------------
def _histogram_lines(name: str, hist: Mapping[str, Any],
                     bar_width: int = 30) -> List[str]:
    lines = [f"  {name}: n={hist['count']}, mean={hist['mean']:.3e}, "
             f"p50={hist['p50']:.3e}, p95={hist['p95']:.3e}, "
             f"p99={hist['p99']:.3e}"]
    counts = hist.get("counts", [])
    bounds = hist.get("buckets", [])
    peak = max(counts) if counts else 0
    if peak:
        for i, n in enumerate(counts):
            if n == 0:
                continue
            label = (f"<= {bounds[i]:.1e}" if i < len(bounds)
                     else f" > {bounds[-1]:.1e}")
            bar = "#" * max(1, int(bar_width * n / peak))
            lines.append(f"    {label:>12s} {bar} {n}")
    return lines


def render_report(records: Sequence[Mapping[str, Any]],
                  top: int = DEFAULT_TOP) -> str:
    """Text body of ``obs report`` for a ledger's records."""
    lines: List[str] = []
    summary = LedgerSummary(records)
    head = summary.header
    lines.append(f"run {summary.run_id}: repro {summary.cmd} "
                 f"(schema {head.get('schema')}, "
                 f"machine {head.get('machine', '-')}, "
                 f"git {head.get('git', '-')}, "
                 f"status {summary.end.get('status', '?')})")
    if summary.args:
        args = ", ".join(f"{k}={v}" for k, v in sorted(summary.args.items()))
        lines.append(f"  args: {args}")

    if summary.cells:
        lines.append("")
        lines.append("=== per-strategy breakdown ===")
        by_strategy: Dict[str, List[Dict[str, Any]]] = {}
        for (_scenario, strategy), cell in summary.cells.items():
            by_strategy.setdefault(strategy, []).append(cell)
        width = max(len(s) for s in by_strategy)
        rows = []
        for strategy, cells in by_strategy.items():
            times = [float(c["time_s"]) for c in cells
                     if c.get("time_s") is not None]
            outcomes = [c.get("outcome", "ok") for c in cells]
            not_ok = sum(1 for o in outcomes if o != "ok")
            total = sum(times)
            rows.append((total, strategy, len(cells), not_ok, times))
        rows.sort(key=lambda r: (-r[0], r[1]))
        for total, strategy, n, not_ok, times in rows:
            worst = max(times) if times else 0.0
            lines.append(
                f"  {strategy:<{width}s}  {n:>3d} cells  "
                f"total {total:.3e} s  worst {worst:.3e} s"
                + (f"  [{not_ok} not ok]" if not_ok else ""))

        phase_totals: Dict[str, List[float]] = {}
        for key in summary.cells:
            for name, t in summary.phase_totals(key).items():
                phase_totals.setdefault(name, [0, 0.0])
                phase_totals[name][0] += 1
                phase_totals[name][1] += t
        if phase_totals:
            lines.append("")
            lines.append("=== per-phase breakdown (virtual time) ===")
            ranked = sorted(phase_totals.items(),
                            key=lambda kv: (-kv[1][1], kv[0]))[:top]
            pw = max(len(name) for name, _ in ranked)
            for name, (count, total) in ranked:
                lines.append(f"  {name:<{pw}s}  {count:>4d} cells  "
                             f"total {total:.3e} s")

    if summary.workloads:
        lines.append("")
        lines.append("=== workloads ===")
        for name, w in summary.workloads.items():
            wall = (w.get(ENVELOPE_KEY) or {}).get("wall_s")
            wall_txt = f"wall {wall:.4f} s" if wall is not None else "wall -"
            metrics = {k: v for k, v in w.items()
                       if isinstance(v, (int, float)) and k != "repeats"}
            extra = ", ".join(f"{k}={v:,.0f}" for k, v in
                              sorted(metrics.items()))
            lines.append(f"  {name:<16s} {wall_txt}  {extra}")

    if summary.span_summaries:
        lines.append("")
        lines.append("=== span hotspots (virtual time) ===")
        ranked = sorted(summary.span_summaries,
                        key=lambda r: (-r["total_s"], r["name"]))[:top]
        for r in ranked:
            lines.append(f"  {r.get('kind', '-')}/{r['name']:<20s} "
                         f"{r['count']:>7d} spans  "
                         f"total {r['total_s']:.3e} s")

    for name, snapshot in summary.metrics.items():
        hists = snapshot.get("histograms", {})
        if hists:
            lines.append("")
            lines.append(f"=== latency/size histograms ({name}) ===")
            for hname, hist in sorted(hists.items()):
                lines.extend(_histogram_lines(hname, hist))
        counters = snapshot.get("counters", {})
        if counters:
            lines.append("")
            lines.append(f"=== counters ({name}) ===")
            ranked = sorted(counters.items(),
                            key=lambda kv: (-kv[1], kv[0]))[:top]
            cw = max(len(k) for k, _ in ranked)
            for key, value in ranked:
                lines.append(f"  {key:<{cw}s} = {value:,}")

    if summary.cache is not None:
        lines.append("")
        lines.append("=== result cache ===")
        c = summary.cache
        lines.append(f"  hits {c['hits']}, misses {c['misses']}, "
                     f"stores {c['stores']}, corrupt {c['corrupt']}, "
                     f"repaired {c.get('repaired', 0)}, "
                     f"hit rate {c['hit_rate']:.1%}")
        for ev in summary.cache_corrupt:
            lines.append(f"  CORRUPT entry: {ev['key']}")
        for ev in summary.cache_repair:
            lines.append(f"  repaired (deleted) entry: {ev['key']}")

    if summary.sweeps or summary.heartbeats:
        lines.append("")
        lines.append("=== sweep fleet ===")
        for sweep in summary.sweeps:
            env = sweep.get(ENVELOPE_KEY) or {}
            executed = sweep.get("executed", env.get("executed"))
            cache_hits = sweep.get("cache_hits", env.get("cache_hits"))
            lines.append(f"  tasks {sweep['tasks']}, executed "
                         f"{executed}, cache hits {cache_hits}")
        for fleet in summary.fleet:
            stragglers = fleet.get("stragglers", [])
            lines.append(f"  jobs {fleet.get('jobs')}, chunks "
                         f"{fleet.get('chunks')}"
                         + (f", STRAGGLER chunks: {stragglers}"
                            if stragglers else ", no stragglers"))
        walls = [(hb.get(ENVELOPE_KEY) or {}).get("wall_s")
                 for hb in summary.heartbeats]
        walls = [w for w in walls if w is not None]
        if walls:
            walls.sort()
            lines.append(f"  {len(walls)} heartbeats, chunk wall "
                         f"min {walls[0]:.3f} s / median "
                         f"{walls[len(walls) // 2]:.3f} s / max "
                         f"{walls[-1]:.3f} s")
        for ev in summary.resumes:
            lines.append(f"  resumed: {ev.get('done')}/{ev.get('tasks')} "
                         f"shards restored from a previous run")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# obs diff — regression attribution
# ---------------------------------------------------------------------------
def diff_ledgers(a: Sequence[Mapping[str, Any]],
                 b: Sequence[Mapping[str, Any]],
                 top: int = DEFAULT_TOP) -> Dict[str, Any]:
    """Attribute cost movement between two run ledgers.

    Pairs the runs' ``cell`` records by (scenario, strategy), ranks the
    absolute cost deltas, and attributes each mover to the phase whose
    recorded virtual time moved the most — the "which strategy, which
    phase" answer.  Outcome flips (ok -> delivery-error etc.) are
    listed separately; counter deltas cover the sweep-wide metrics.
    """
    sa, sb = LedgerSummary(a), LedgerSummary(b)
    movers: List[Dict[str, Any]] = []
    flips: List[Dict[str, Any]] = []
    for key in sorted(set(sa.cells) & set(sb.cells),
                      key=lambda k: (str(k[0]), k[1])):
        scenario, strategy = key
        ca, cb = sa.cells[key], sb.cells[key]
        if ca.get("outcome") != cb.get("outcome"):
            flips.append({"scenario": scenario, "strategy": strategy,
                          "a": ca.get("outcome"), "b": cb.get("outcome")})
        t_a, t_b = sa.cell_time(key), sb.cell_time(key)
        if t_a is None or t_b is None or t_a == t_b:
            continue
        pa, pb = sa.phase_totals(key), sb.phase_totals(key)
        phase_deltas = sorted(
            ({"phase": name,
              "a_s": pa.get(name, 0.0), "b_s": pb.get(name, 0.0),
              "delta_s": pb.get(name, 0.0) - pa.get(name, 0.0)}
             for name in sorted(set(pa) | set(pb))),
            key=lambda d: (-abs(d["delta_s"]), d["phase"]))
        movers.append({
            "scenario": scenario, "strategy": strategy,
            "a_s": t_a, "b_s": t_b, "delta_s": t_b - t_a,
            "ratio": t_b / t_a if t_a > 0 else float("inf"),
            "phases": phase_deltas,
            "phase": phase_deltas[0]["phase"] if phase_deltas else None,
        })
    movers.sort(key=lambda m: (-abs(m["delta_s"]), str(m["scenario"]),
                               m["strategy"]))

    counters: List[Dict[str, Any]] = []
    for name in sorted(set(sa.metrics) & set(sb.metrics)):
        ka = sa.metrics[name].get("counters", {})
        kb = sb.metrics[name].get("counters", {})
        for key in sorted(set(ka) | set(kb)):
            va, vb = ka.get(key, 0), kb.get(key, 0)
            if va != vb:
                counters.append({"counter": key, "a": va, "b": vb,
                                 "delta": vb - va})
    counters.sort(key=lambda c: (-abs(c["delta"]), c["counter"]))

    return {
        "kind": "ledger",
        "a": {"run_id": sa.run_id, "cmd": sa.cmd, "args": sa.args},
        "b": {"run_id": sb.run_id, "cmd": sb.cmd, "args": sb.args},
        "same_run_id": sa.run_id == sb.run_id,
        "outcome_flips": flips,
        "movers": movers[:top],
        "total_movers": len(movers),
        "counters": counters[:top],
        "only_a": sorted(str(k) for k in set(sa.cells) - set(sb.cells)),
        "only_b": sorted(str(k) for k in set(sb.cells) - set(sa.cells)),
    }


def render_diff(diff: Mapping[str, Any], top: int = DEFAULT_TOP) -> str:
    """Text body of ``obs diff`` for a diff structure."""
    lines: List[str] = []
    a, b = diff["a"], diff["b"]
    lines.append(f"ledger diff: {a['run_id']} ({a['cmd']}) -> "
                 f"{b['run_id']} ({b['cmd']})")
    changed = {k: (a["args"].get(k), b["args"].get(k))
               for k in sorted(set(a["args"]) | set(b["args"]))
               if a["args"].get(k) != b["args"].get(k)}
    if changed:
        lines.append("  args changed: " + ", ".join(
            f"{k}: {va!r} -> {vb!r}" for k, (va, vb) in changed.items()))
    for flip in diff["outcome_flips"]:
        lines.append(f"  OUTCOME scenario {flip['scenario']} / "
                     f"{flip['strategy']}: {flip['a']} -> {flip['b']}")
    if not diff["movers"]:
        lines.append("  no cell cost moved")
        return "\n".join(lines)
    lines.append(f"  {diff['total_movers']} cells moved; largest first:")
    for m in diff["movers"]:
        lines.append(f"  scenario {m['scenario']} / {m['strategy']}: "
                     f"{m['a_s']:.3e} -> {m['b_s']:.3e} s "
                     f"({(m['ratio'] - 1.0) * 100:+.0f}%)")
        if m["phases"]:
            p = m["phases"][0]
            moved = sum(abs(d["delta_s"]) for d in m["phases"])
            share = abs(p["delta_s"]) / moved if moved else 0.0
            lines.append(f"    -> phase {p['phase']!r}: "
                         f"{p['a_s']:.3e} -> {p['b_s']:.3e} s "
                         f"({share:.0%} of the phase-time movement)")
    if diff["counters"]:
        lines.append("  counter deltas:")
        for c in diff["counters"]:
            lines.append(f"    {c['counter']}: {c['a']:,} -> {c['b']:,} "
                         f"({c['delta']:+,})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# obs flame
# ---------------------------------------------------------------------------
def flame_lines(records: Sequence[Mapping[str, Any]]) -> List[str]:
    """Collapsed-stack lines for a ledger.

    Prefers real sampling-profiler stacks (``profile_stack`` records
    from a ``--profile`` run, unit: samples); falls back to the
    recorded per-phase virtual times (unit: whole microseconds), so
    every chaos/trace ledger can render *some* flame even without the
    profiler.
    """
    summary = LedgerSummary(records)
    if summary.profile_stacks:
        ranked = sorted(summary.profile_stacks,
                        key=lambda r: (-r["count"], r["stack"]))
        return [f"{r['stack']} {r['count']}" for r in ranked]
    folded: Dict[str, int] = {}
    for (scenario, strategy), cell in summary.cells.items():
        for name, phase in (cell.get("phases") or {}).items():
            stack = f"{summary.cmd};{strategy};{name}"
            folded[stack] = folded.get(stack, 0) + int(
                round(float(phase["total_s"]) * 1e6))
    for r in summary.span_summaries:
        stack = f"{summary.cmd};{r.get('kind', 'span')};{r['name']}"
        folded[stack] = folded.get(stack, 0) + int(
            round(float(r["total_s"]) * 1e6))
    return [f"{stack} {count}"
            for stack, count in sorted(folded.items(),
                                       key=lambda kv: (-kv[1], kv[0]))
            if count > 0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _top(text: str) -> int:
    """argparse type of ``--top``: a row count of at least one."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Analyze run ledgers.")
    sub = parser.add_subparsers(dest="obs_cmd", required=True)

    p = sub.add_parser("report", help="summarize one ledger")
    p.add_argument("path", help="ledger .jsonl")
    p.add_argument("--top", type=_top, default=DEFAULT_TOP,
                   help="rows per table (default: %(default)s)")

    p = sub.add_parser("diff", help="regression attribution A -> B")
    p.add_argument("a", help="baseline ledger")
    p.add_argument("b", help="current ledger")
    p.add_argument("--top", type=_top, default=DEFAULT_TOP,
                   help="movers to show (default: %(default)s)")
    p.add_argument("-o", "--output", default=None,
                   help="also write the structured diff as JSON here")

    p = sub.add_parser("flame", help="collapsed stacks for flamegraph.pl")
    p.add_argument("path", help="ledger .jsonl")
    p.add_argument("-o", "--output", default=None,
                   help="write collapsed stacks here (default stdout)")

    p = sub.add_parser("validate", help="schema-check a ledger")
    p.add_argument("path", help="ledger .jsonl")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.obs_cmd == "report":
        print(render_report(_load_ledger(args.path), top=args.top))
        return 0

    if args.obs_cmd == "diff":
        diff = diff_ledgers(_load_ledger(args.a), _load_ledger(args.b),
                            top=args.top)
        print(render_diff(diff, top=args.top))
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(diff, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0

    if args.obs_cmd == "flame":
        lines = flame_lines(_load_ledger(args.path))
        if args.output:
            with open(args.output, "w") as fh:
                for line in lines:
                    fh.write(line + "\n")
            print(f"wrote {args.output} ({len(lines)} stacks)")
        else:
            for line in lines:
                print(line)
        return 0

    # validate
    import sys

    try:
        records = read_ledger(args.path)
        n_runs = validate_ledger(records)
    except ValueError as exc:
        print(f"INVALID ledger {args.path}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.path} OK ({n_runs} run(s), {len(records)} records)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
