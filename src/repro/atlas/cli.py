"""``python -m repro atlas`` — build, inspect and query atlases.

``build`` is a sweep-shaped command like ``scenario``/``report``: it
takes the shared ``--jobs`` / ``--cache`` / ``--ledger`` /
``--task-timeout`` / ``--resume`` flags, fans build shards through
:func:`repro.par.sweep_map`, and writes the byte-deterministic artifact
(identical at any ``--jobs`` value; a killed build ``--resume``\\ s
from the journal + cache).
``query`` loads an artifact and answers one scenario in O(1); ``info``
prints the header, winner distribution and frontier size without
touching the tensor payload semantics.
"""

from __future__ import annotations

import sys
from typing import List, Optional


def _build(args: List[str]) -> int:
    import argparse

    from repro.atlas.artifact import save_atlas
    from repro.atlas.build import build_atlas
    from repro.atlas.grid import default_grid
    from repro.machine import resolve_machine
    from repro.par.cache import ResultCache, default_cache_dir
    from repro.par.cliopts import add_supervision_args, supervision_from_args

    parser = argparse.ArgumentParser(
        prog="python -m repro atlas build",
        description="Precompute the best-strategy frontier for one "
                    "machine preset into an .atlas artifact.")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset (see `python -m repro info`)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI/tests")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="artifact path (default atlas-<machine>.atlas)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or "
                             "serial); the artifact is byte-identical at "
                             "any value")
    parser.add_argument("--cache", action="store_true",
                        help="cache build shards on disk")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (implies --cache)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    add_supervision_args(parser)
    ns = parser.parse_args(args)
    machine = resolve_machine(ns.machine)
    spec = default_grid(smoke=ns.smoke)
    out = ns.output or f"atlas-{machine.name}.atlas"
    cache = None
    if ns.cache or ns.cache_dir or ns.resume:
        cache = ResultCache(directory=ns.cache_dir or default_cache_dir())
    policy, journal_dir, resume = supervision_from_args(ns, cache)
    stats = None
    ledger = None
    shard_done = None
    if ns.ledger:
        from repro.obs.ledger import RunLedger
        from repro.par.executor import SweepStats

        stats = SweepStats()
        ledger = RunLedger(ns.ledger, "atlas-build",
                           {"machine": machine.name, "smoke": ns.smoke},
                           machine=machine.name)
        tasks_meta = [(msgs, dup) for msgs in spec.msg_counts
                      for dup in spec.dup_fractions]

        def shard_done(index, shard):
            msgs, dup = tasks_meta[index]
            ledger.event("atlas_shard", msgs=msgs, dup=dup,
                         outcome="ok",
                         winners=sorted(set(
                             shard["labels"][i]
                             for i in shard["winners_idx"].reshape(-1))))

    atlas = build_atlas(machine, spec=spec, jobs=ns.jobs, cache=cache,
                        stats=stats, policy=policy, journal_dir=journal_dir,
                        resume=resume, shard_done=shard_done)
    header = save_atlas(atlas, out)
    if ledger is not None:
        if stats is not None:
            ledger.sweep(stats)
        if cache is not None:
            ledger.cache_events(cache)
        ledger.finish("ok", artifact=out,
                      payload_sha256=header["tensor"]["sha256"])
    n, m, d, z = spec.shape
    print(f"atlas: {machine.name}, {atlas.cells} cells "
          f"({n} nodes x {m} msgs x {d} dups x {z} sizes), "
          f"{len(atlas.labels)} strategies")
    print(f"frontier: {atlas.frontier_cells()} crossover boundaries")
    for label, count in sorted(atlas.winner_counts().items(),
                               key=lambda kv: -kv[1]):
        share = count / atlas.cells
        print(f"  {label:30s} wins {count:5d} cells ({share:6.1%})")
    print(f"wrote {out} (payload sha256 "
          f"{header['tensor']['sha256'][:12]}…)")
    return 0


def _query(args: List[str]) -> int:
    import argparse

    from repro.atlas.artifact import load_atlas
    from repro.atlas.index import DEFAULT_MARGIN_BAND, AtlasIndex

    parser = argparse.ArgumentParser(
        prog="python -m repro atlas query",
        description="Answer one best-strategy query from an atlas "
                    "artifact in O(1).")
    parser.add_argument("atlas", help="path to an .atlas artifact")
    parser.add_argument("nodes", type=int, help="destination node count")
    parser.add_argument("msgs", type=int, help="messages per node")
    parser.add_argument("size", type=float, help="bytes per message")
    parser.add_argument("--dup", type=float, default=0.0, metavar="F",
                        help="duplicate fraction (default 0)")
    parser.add_argument("--margin-band", type=float,
                        default=DEFAULT_MARGIN_BAND, metavar="F",
                        help="frontier band: interpolated lookups whose "
                             "winner/runner-up margin falls below this "
                             "re-evaluate exactly (default "
                             f"{DEFAULT_MARGIN_BAND})")
    ns = parser.parse_args(args)
    index = AtlasIndex(load_atlas(ns.atlas), margin_band=ns.margin_band)
    answer = index.query(ns.nodes, ns.msgs, ns.size, dup_fraction=ns.dup)
    print(f"scenario: {ns.nodes} nodes, {ns.msgs} msgs, {ns.size:g} B"
          + (f", {ns.dup:.1%} duplicates" if ns.dup else "")
          + f" on {index.atlas.machine}")
    print(f"winner: {answer.winner}")
    margin = ("inf" if answer.margin == float("inf")
              else f"{answer.margin:.1%}")
    print(f"margin: {margin} over the runner-up")
    how = {"atlas": ("interpolated from the atlas grid"
                     if answer.interpolated else "atlas grid point"),
           "exact-margin": "exact evaluation (inside the frontier band)",
           "exact-hull": "exact evaluation (outside the atlas grid)",
           }[answer.source]
    print(f"source: {answer.source} — {how}")
    order = sorted(range(len(answer.times)), key=lambda i: answer.times[i])
    for i in order:
        mark = "  <= best" if i == answer.winner_idx else ""
        print(f"  {index.atlas.labels[i]:30s} {answer.times[i]:.3e} s{mark}")
    return 0


def _info(args: List[str]) -> int:
    import argparse

    from repro.atlas.artifact import load_atlas

    parser = argparse.ArgumentParser(
        prog="python -m repro atlas info",
        description="Describe an atlas artifact.")
    parser.add_argument("atlas", help="path to an .atlas artifact")
    ns = parser.parse_args(args)
    atlas = load_atlas(ns.atlas)
    spec = atlas.spec
    print(f"machine: {atlas.machine}")
    print(f"cells:   {atlas.cells} "
          f"(nodes x msgs x dups x sizes = "
          f"{' x '.join(str(s) for s in spec.shape)})")
    print(f"nodes:   {', '.join(str(n) for n in spec.node_counts)}")
    print(f"msgs:    {', '.join(str(m) for m in spec.msg_counts)}")
    print(f"dups:    {', '.join(f'{d:g}' for d in spec.dup_fractions)}")
    print(f"sizes:   {spec.sizes[0]:g} .. {spec.sizes[-1]:g} B "
          f"({len(spec.sizes)} points)")
    print(f"strategies ({len(atlas.labels)}):")
    counts = atlas.winner_counts()
    for label in atlas.labels:
        count = counts.get(label, 0)
        print(f"  {label:30s} wins {count:5d} cells "
              f"({count / atlas.cells:6.1%})")
    print(f"frontier: {atlas.frontier_cells()} crossover boundaries")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    verbs = {"build": _build, "query": _query, "info": _info}
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro atlas {build|query|info} ...\n"
              "  build  precompute a machine's best-strategy frontier\n"
              "  query  answer one scenario from an artifact in O(1)\n"
              "  info   describe an artifact")
        return 0
    verb = verbs.get(argv[0])
    if verb is None:
        print(f"unknown atlas verb {argv[0]!r} "
              f"(verbs: {', '.join(verbs)})", file=sys.stderr)
        return 2
    from repro.atlas.artifact import AtlasFormatError

    try:
        return verb(argv[1:])
    except AtlasFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
