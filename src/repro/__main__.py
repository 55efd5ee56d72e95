"""Command-line entry point.

Usage::

    python -m repro info                  # package + machine summary
    python -m repro report [out.md] [--jobs N] [--cache] [--machine M]
                                          # regenerate EXPERIMENTS body
    python -m repro predict N_NODES MSGS SIZE [--machine M]
                                          # model the Fig-4.3 scenario
    python -m repro scenario [--machine M] [--jobs N] [-o out.json]
                                          # sweep the paper scenarios
                                          # and print modelled times
    python -m repro perf [--smoke] [--repeats N] [--only NAME[,NAME...]]
                         [--ledger L.jsonl]
                                          # wall-clock micro-suite; exits
                                          # non-zero when a workload
                                          # misses its absolute floor
    python -m repro trace [SCENARIO] [--smoke] [-o trace.json]
                                          # traced run -> Perfetto JSON
    python -m repro chaos [--seed N] [--smoke] [--jobs N] [--cache]
                          [--ledger L.jsonl] [--profile P.txt]
                          [-o report.json]
                                          # randomized fault sweep with
                                          # engine invariant checks
    python -m repro atlas build [--machine M] [--smoke] [--jobs N]
                                [--cache] [--ledger L.jsonl] [-o A.atlas]
                                          # precompute the best-strategy
                                          # frontier (byte-identical at
                                          # any --jobs; --resume-able)
    python -m repro atlas query A.atlas N_NODES MSGS SIZE [--dup F]
                                          # O(1) winner + margin lookup
    python -m repro atlas info A.atlas    # describe an artifact
    python -m repro obs report LEDGER     # summarize a run ledger
    python -m repro obs diff A B          # regression attribution
                                          # between two runs
    python -m repro obs flame LEDGER      # collapsed stacks (flamegraph)
    python -m repro obs validate LEDGER   # schema-check a ledger
    python -m repro --version             # print the package version

``--jobs N`` fans sweep shards out over N worker processes (results
stay byte-identical to serial runs); ``$REPRO_JOBS`` sets the default.
``--cache`` / ``--cache-dir`` reuse content-addressed shard results
from ``.repro-cache/`` (or ``$REPRO_CACHE_DIR``).  ``--machine M``
selects any preset from ``repro.machine.PRESETS`` (dash or underscore
spelling — ``frontier-like`` == ``frontier_like``; default lassen).
``--ledger PATH`` writes a schema-versioned JSONL run ledger (see
docs/observability.md) consumed by ``python -m repro obs``.

``report``, ``scenario``, ``chaos`` and ``atlas build`` also take
``--task-timeout SECONDS`` / ``--resume``.  At any setting the first
failure — a shard's exception, a lost worker, a worker chunk past its
``--task-timeout`` budget — ends the sweep; either flag journals the
sweep under the disk cache, so a failed or killed run can ``--resume``
and re-execute only the missing shards (see docs/resilience.md).

Input that fails validation — an unknown ``--machine``, a negative or
non-finite size, a path that is not there — ends in one line on stderr
and exit status 2, like an argparse usage error.
"""

from __future__ import annotations

import sys

#: every dispatchable subcommand — the unknown-command error lists
#: these, so the listing can never drift from the dispatch table below
#: (tests assert each one appears in the usage text).
COMMANDS = ("info", "report", "predict", "scenario", "perf", "trace",
            "chaos", "atlas", "obs")


def _info() -> None:
    import repro
    from repro.machine import PRESETS

    print(f"repro {repro.__version__} — node-aware communication strategies")
    print("machines:")
    for name, factory in PRESETS.items():
        m = factory()
        th = m.comm_params.thresholds
        print(f"  {name:14s} {m.sockets_per_node} socket(s) x "
              f"{m.gpus_per_socket} GPU(s), {m.cores_per_node} cores/node, "
              f"R_N = {m.nic.injection_rate:.2e} B/s")
        print(f"  {'':14s} short<={th.short_limit} B, "
              f"eager<={th.eager_limit} B, "
              f"gpu-eager<={th.gpu_eager_limit} B, "
              f"ppn<={m.cores_per_node}, gpn={m.gpus_per_node}")
        print(f"  {'':14s} NICs/node={m.nic.nics_per_node}, "
              f"node rate = {m.nic.node_injection_rate:.2e} B/s, "
              f"leaders/node={m.leaders_per_node}")
        tiers = []
        for tier in m.locality_hierarchy.tiers:
            extras = []
            if tier.alpha_scale != 1.0:
                extras.append(f"alpha x{tier.alpha_scale:g}")
            if tier.beta_scale != 1.0:
                extras.append(f"beta x{tier.beta_scale:g}")
            if tier.nic_share != 1.0:
                extras.append(f"nic share {tier.nic_share:g}")
            suffix = f" ({', '.join(extras)})" if extras else ""
            tiers.append(f"{tier.name}[{tier.base.name.lower()}]{suffix}")
        print(f"  {'':14s} tiers: {' -> '.join(tiers)}")
    from repro.core import all_strategies

    print("strategies:", ", ".join(s.label for s in all_strategies()))


def _predict(args: list) -> None:
    import argparse

    from repro.machine import resolve_machine
    from repro.models.scenarios import Scenario, scenario_summary
    from repro.models.strategies import all_strategy_models, model_label

    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description="Model one Figure-4.3 scenario on a machine preset.")
    parser.add_argument("nodes", type=int, help="destination node count")
    parser.add_argument("msgs", type=int, help="messages per node")
    parser.add_argument("size", type=float, help="bytes per message")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset (see `python -m repro info`)")
    ns = parser.parse_args(args)
    machine = resolve_machine(ns.machine)
    sc = Scenario(num_dest_nodes=ns.nodes, num_messages=ns.msgs)
    summary = scenario_summary(machine, sc, ns.size)
    times = {model_label(m): m.time(summary)
             for m in all_strategy_models(machine)}
    best = min(times, key=lambda k: times[k])
    print(f"scenario: {sc.label}, {ns.size:g} B/message on {machine.name}")
    for label, t in sorted(times.items(), key=lambda kv: kv[1]):
        mark = "  <= best" if label == best else ""
        print(f"  {label:30s} {t:.3e} s{mark}")


def _scenario(args: list) -> int:
    import argparse
    import json

    import numpy as np

    from repro.bench.figures import render_series
    from repro.machine import resolve_machine
    from repro.models.scenarios import PAPER_SCENARIOS, sweep_scenarios
    from repro.par.cache import ResultCache, default_cache_dir
    from repro.par.cliopts import add_supervision_args, supervision_from_args

    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Sweep the paper's Figure-4.3 scenarios over message "
                    "sizes and print the modelled strategy times.")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset (see `python -m repro info`)")
    parser.add_argument("--points", type=int, default=9,
                        help="message sizes per scenario panel (default 9)")
    parser.add_argument("--extended", action="store_true",
                        help="also sweep the hierarchy-aware strategy "
                             "families (3-Step H, Neighbor P, ML 3-Step) "
                             "beyond the paper's Table-5 set")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or "
                             "serial); results are byte-identical")
    parser.add_argument("--cache", action="store_true",
                        help="cache panel results on disk")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (implies --cache)")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the swept times as JSON here")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    add_supervision_args(parser)
    ns = parser.parse_args(args)
    machine = resolve_machine(ns.machine)
    cache = None
    if ns.cache or ns.cache_dir or ns.resume:
        cache = ResultCache(directory=ns.cache_dir or default_cache_dir())
    policy, journal_dir, resume = supervision_from_args(ns, cache)
    sizes = np.logspace(1, 5, ns.points)
    stats = None
    if ns.ledger:
        from repro.par.executor import SweepStats

        stats = SweepStats()
    swept = sweep_scenarios(machine, PAPER_SCENARIOS, sizes, jobs=ns.jobs,
                            cache=cache, stats=stats, policy=policy,
                            journal_dir=journal_dir, resume=resume,
                            include_extended=ns.extended)
    if ns.ledger:
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(ns.ledger, "scenario",
                           {"machine": machine.name, "points": ns.points},
                           machine=machine.name)
        for sc, series in zip(PAPER_SCENARIOS, swept):
            for label, times in series.items():
                # One cell per (scenario panel, strategy model); the
                # panel's cost is the modelled time summed over sizes.
                ledger.event("cell", scenario=sc.label, strategy=label,
                             outcome="ok",
                             time_s=float(sum(float(t) for t in times)))
        if stats is not None:
            ledger.sweep(stats)
        if cache is not None:
            ledger.cache_events(cache)
        ledger.finish("ok")
    for sc, series in zip(PAPER_SCENARIOS, swept):
        print(render_series(f"scenario {sc.label} on {machine.name}",
                            "bytes/msg", sizes, series, mark_min=True))
        print()
    if ns.output:
        payload = {
            "machine": machine.name,
            "sizes": [float(s) for s in sizes],
            "scenarios": {
                sc.label: {label: [float(t) for t in times]
                           for label, times in series.items()}
                for sc, series in zip(PAPER_SCENARIOS, swept)
            },
        }
        with open(ns.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if argv[0] in ("-V", "--version"):
        import repro

        print(f"repro {repro.__version__}")
        return 0
    cmd, rest = argv[0], argv[1:]
    try:
        return _dispatch(cmd, rest)
    except (ValueError, FileNotFoundError) as exc:
        # What input validation raises (a size below zero, an unknown
        # --machine, a path that is not there): one line and the usage
        # exit status, not a traceback.  Library callers of the
        # functions underneath still get the exception.
        print(f"python -m repro {cmd}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(cmd: str, rest: list) -> int:
    if cmd == "info":
        _info()
    elif cmd == "report":
        from repro.bench.report import main as report_main

        return report_main(rest)
    elif cmd == "predict":
        _predict(rest)
    elif cmd == "scenario":
        return _scenario(rest)
    elif cmd == "perf":
        from repro.perf.suite import main as perf_main

        return perf_main(rest)
    elif cmd == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(rest)
    elif cmd == "chaos":
        from repro.faults.chaos import main as chaos_main

        return chaos_main(rest)
    elif cmd == "atlas":
        from repro.atlas.cli import main as atlas_main

        return atlas_main(rest)
    elif cmd == "obs":
        from repro.obs.analysis import main as obs_main

        return obs_main(rest)
    else:
        print(f"unknown command {cmd!r} "
              f"(commands: {', '.join(COMMANDS)})", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
