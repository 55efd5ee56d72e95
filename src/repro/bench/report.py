"""Full experiment record generator.

``python -m repro.bench.report [output.md]`` reruns every table and
figure regeneration at the default benchmark scale and writes the
paper-vs-measured record (the body of EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
import time
from typing import List

import numpy as np

from repro.bench.figures import (
    fig2_5_data,
    fig2_6_data,
    fig3_1_data,
    fig4_3_data,
    render_series,
)
from repro.bench.tables import (
    render_table2,
    render_table3,
    render_table4,
    table2_data,
    table3_data,
    table4_data,
)
from repro.machine import resolve_machine
from repro.models.decision import decide
from repro.sparse.suite import SUITE, suite_sweep


def _code(text: str, lang: str = "") -> List[str]:
    return [f"```{lang}", text, "```", ""]


def generate(matrix_n: int = 16_000, gpu_counts=(8, 16, 32),
             jobs=None, cache=None, machine="lassen", policy=None,
             journal_dir=None, resume: bool = False) -> str:
    """Regenerate the full record.

    ``jobs`` fans the two sweeps (the suite sweep behind Figures 4.2
    and 5.1, and Figure 4.3's) out over worker processes; ``cache`` (a
    :class:`repro.par.ResultCache`) skips shards whose inputs are
    unchanged since the last regeneration.  ``machine`` is a preset
    name from :data:`repro.machine.PRESETS` (Lassen reproduces the
    paper; the others model its Section-6 what-if architectures).
    Output is bit-identical at any ``jobs``/cache setting.

    ``policy``/``journal_dir``/``resume`` give each sweep section a
    failure policy (watchdog + retry) and a checkpoint journal (see
    :func:`repro.par.sweep_map`).  Each sweep journals under its own
    sweep id, so a killed regeneration resumed with ``resume=True``
    re-executes only the shards that had not yet checkpointed.  The
    suite sweep runs once: Figure 4.2 is its audikw_1 panel (DES
    ``series`` beside Table-6 ``model``) and Figure 5.1 is every panel's
    ``series``.
    """
    machine = resolve_machine(machine)
    out: List[str] = []
    t_start = time.time()

    out.append(f"## Regenerated results (simulator, "
               f"{machine.name} constants)\n")
    out.append(f"Matrix analog scale: n = {matrix_n:,}; GPU sweep: "
               f"{list(gpu_counts)}; all times are DES virtual seconds "
               f"(max per-rank communication time).\n")

    # --- Tables ----------------------------------------------------------
    out.append("### Table 2 — communication parameters\n")
    out.extend(_code(render_table2(table2_data(machine), machine=machine)))
    out.append("### Table 3 — cudaMemcpyAsync parameters\n")
    out.extend(_code(render_table3(table3_data(machine), machine=machine)))
    out.append("### Table 4 — injection bandwidth limit\n")
    out.extend(_code(render_table4(table4_data(machine), machine=machine)))

    # --- Figure 2.5 --------------------------------------------------------
    out.append("### Figure 2.5 — ping-pong by locality\n")
    xs, series = fig2_5_data(machine)
    out.extend(_code(render_series("time [s] vs message size", "bytes",
                                   xs, series)))

    # --- Figure 2.6 --------------------------------------------------------
    out.append("### Figure 2.6 — node-pong split over ppn processes\n")
    xs, series = fig2_6_data(machine)
    out.extend(_code(render_series("time [s] vs total volume "
                                   "(row minimum marked *)", "bytes", xs,
                                   series, mark_min=True)))

    # --- Figure 3.1 --------------------------------------------------------
    out.append("### Figure 3.1 — memcpy split over NP processes\n")
    xs, series = fig3_1_data(machine)
    out.extend(_code(render_series("time [s] vs total volume", "bytes",
                                   xs, series)))

    # --- Figure 4.2: the audikw_1 panel of the suite sweep ----------------
    suite_data = suite_sweep(machine, gpu_counts=gpu_counts,
                             matrix_n=matrix_n, jobs=jobs, cache=cache,
                             policy=policy, journal_dir=journal_dir,
                             resume=resume)
    out.append("### Figure 4.2 — model validation (audikw analog)\n")
    audikw = suite_data["audikw_1"]
    labels = sorted(audikw["series"])
    measured = {l: audikw["series"][l] for l in labels}
    modelled = {l: audikw["model"][l] for l in labels}
    out.extend(_code(
        render_series("measured (DES)", "GPUs", list(gpu_counts), measured,
                      mark_min=True)
        + "\n\n"
        + render_series("modelled (Table 6)", "GPUs", list(gpu_counts),
                        modelled)))
    std = "Standard (device-aware)"
    ratios = [m / t for m, t in zip(audikw["model"][std],
                                    audikw["series"][std])]
    out.append(f"{std} model/measured ratio by scale: "
               + ", ".join(f"{g} GPUs: {r:.1f}x"
                           for g, r in zip(gpu_counts, ratios)) + "\n")

    # --- Figure 4.3 --------------------------------------------------------
    out.append("### Figure 4.3 — modelled scenarios\n")
    panels = fig4_3_data(machine, sizes=np.logspace(1, 5.5, 10),
                         jobs=jobs, cache=cache, policy=policy,
                         journal_dir=journal_dir, resume=resume)
    for label, (xs, series) in panels.items():
        out.extend(_code(render_series(f"panel: {label}", "bytes", xs,
                                       series, mark_min=True)))

    # --- Figure 5.1 --------------------------------------------------------
    out.append("### Figure 5.1 — SpMV communication across the suite\n")
    winners = {}
    for name, d in suite_data.items():
        meta = ", ".join(
            f"{g} GPUs: recv_nodes={m['recv_nodes']}, "
            f"vol={m['inter_node_bytes'] / 1e3:.0f}KB, "
            f"msgs={m['inter_node_msgs']}"
            for g, m in d["meta"].items())
        out.extend(_code(render_series(
            f"{name} ({SUITE[name].description})\n  [{meta}]",
            "GPUs", d["gpus"], d["series"], mark_min=True)))
        winners[name] = decide(
            d["series"].keys(), [ts[-1] for ts in d["series"].values()]
        ).winner
    out.append("Winners at the largest GPU count: "
               + "; ".join(f"{k}: **{v}**" for k, v in winners.items())
               + "\n")

    # --- Regime map (summary view of Figure 4.3) -----------------------------
    out.append("### Strategy regime map (model, 256 messages)\n")
    from repro.models.regime_map import compute_regime_map, render_regime_map

    out.extend(_code(render_regime_map(compute_regime_map(machine))))
    out.extend(_code(render_regime_map(
        compute_regime_map(machine, dup_fraction=0.25))))

    # --- Extended strategies on the multi-NIC preset -------------------------
    from repro.machine.presets import frontier_like

    out.append("### Extended-strategy regime map "
               "(multi-NIC preset; beyond the paper)\n")
    out.append(
        "The hierarchy-aware families (3-Step H, Neighbor P, ML 3-Step) "
        "are kept\nout of the paper maps above by default; they compete "
        "when opted in.  On\nthe multi-NIC `frontier_like` preset "
        "(4 NICs/node, dragonfly-ish group\ntier) they rewrite most of "
        "the mid/large-message frontier —\n"
        "`NP/S` = Neighbor P (persistent channels + amortized setup),\n"
        "`ML/S` = ML 3-Step (one leader per NIC):\n")
    out.extend(_code(
        "from repro.machine.presets import frontier_like\n"
        "from repro.models.regime_map import compute_regime_map, "
        "render_regime_map\n"
        "print(render_regime_map(compute_regime_map(frontier_like(),\n"
        "                                           "
        "include_extended=True)))", lang="python"))
    out.extend(_code(render_regime_map(
        compute_regime_map(frontier_like(), include_extended=True))))
    out.append(
        "Neighbor P wins exactly where the flat map's 3-Step wins turned\n"
        "rendezvous-bound (pair bytes > 8 KiB): pre-posted channels drop "
        "the\nRTS/CTS latency while the amortized SETUP stage (window 64) "
        "hides the\nregistration cost.  ML 3-Step takes the "
        "bandwidth-bound frontier by\ninjecting through all four NICs "
        "concurrently (`nics_used=4` on the\ngroup-tier inter-node "
        "stage).  The default (`include_extended=False`)\nmaps and all "
        "figure goldens stay on the paper's Table-5 competitor set;\n"
        "the flat single-NIC presets cost the paper strategies "
        "bit-identically\nto the pre-hierarchy model either way "
        "(`tier_flat` goldens).\n")

    out.append(f"\n_Total regeneration wall time: "
               f"{time.time() - t_start:.0f} s._\n")
    return "\n".join(out)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Regenerate the EXPERIMENTS.md record.")
    parser.add_argument("output", nargs="?", default=None,
                        help="write the record here (default stdout)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for the sweep sections "
                             "(default: $REPRO_JOBS or serial)")
    parser.add_argument("--cache", action="store_true",
                        help="cache sweep shards on disk under "
                             "$REPRO_CACHE_DIR or .repro-cache/")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache sweep shards under DIR (implies "
                             "--cache)")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset to regenerate for "
                             "(see `python -m repro info`)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    from repro.par.cliopts import add_supervision_args, supervision_from_args

    add_supervision_args(parser)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    cache = None
    if args.cache or args.cache_dir or args.resume:
        from repro.par.cache import ResultCache, default_cache_dir

        cache = ResultCache(directory=args.cache_dir or default_cache_dir())
    policy, journal_dir, resume = supervision_from_args(args, cache)
    text = generate(jobs=args.jobs, cache=cache, machine=args.machine,
                    policy=policy, journal_dir=journal_dir, resume=resume)
    if args.ledger:
        import hashlib

        from repro.machine import resolve_machine as _resolve
        from repro.obs.ledger import RunLedger

        machine_name = _resolve(args.machine).name
        ledger = RunLedger(args.ledger, "report",
                           {"machine": machine_name}, machine=machine_name)
        # The record body is bit-identical across jobs/cache settings
        # except for the wall-time footer — hash it with that line
        # stripped so the ledger fact is deterministic.
        body = "\n".join(
            line for line in text.splitlines()
            if not line.startswith("_Total regeneration wall time"))
        ledger.event("artifact", name="experiments-body",
                     bytes=len(body.encode()),
                     sha256=hashlib.sha256(body.encode()).hexdigest())
        if cache is not None:
            ledger.cache_events(cache)
        ledger.finish("ok")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
