"""Chaos-testing harness: randomized fault sweeps with invariant checks.

``python -m repro chaos [--seed N] [--smoke] [-o report.json]`` runs a
deterministic sweep of randomized fault scenarios (plus a fault-free
baseline) across every Table-5 strategy and asserts engine invariants on
each run:

* **Byte conservation** — for every NIC, the bytes it served equal the
  sum over off-node messages of ``nbytes * attempts`` from that node
  (retransmitted bytes consume real injection bandwidth).
* **Monotone times** — every message's transfer start, send-complete
  and delivery times are ordered and never precede the send post.
* **Termination** — every run either completes (all rank programs
  finish) or raises a diagnosable :class:`DeliveryError`; a
  :class:`DeadlockError`/:class:`WatchdogError` or any other crash is a
  violation ("never a hang").
* **Trace transparency** — re-running the identical scenario with the
  Perfetto tracer attached produces a bit-identical outcome fingerprint
  (virtual times compared via ``float.hex``).
* **Correct delivery** — completed exchanges are verified bit-exact
  against the pattern's ground truth.

The whole sweep is a pure function of ``--seed``: two invocations with
the same seed produce byte-identical reports (no timestamps, sorted
keys), which is what the CI ``chaos-smoke`` job asserts — **at any
worker count**.  ``--jobs N`` fans the (scenario, strategy) shards out
over a process pool via :func:`repro.par.sweep_map`; each shard is a
pure function of ``(seed, smoke, scenario index, strategy label)``, and
the ordered gather reassembles violations, outcomes and merged metrics
in serial order, so parallel reports are byte-identical to serial ones.
``--cache`` / ``--cache-dir`` enable the content-addressed result cache
(:class:`repro.par.ResultCache`): a re-run with unchanged inputs skips
completed shards entirely.

``--task-timeout SECONDS`` ends the sweep with a timeout when a worker
chunk overruns its budget, and ``--resume`` (implies ``--cache``)
re-executes only the shards a failed or killed run didn't checkpoint;
because shards are pure, the resumed report is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import DeliveryError
from repro.obs.metrics import MetricsRegistry
from repro.par.cache import ResultCache, cache_key, default_cache_dir
from repro.par.executor import (
    SweepPolicy,
    SweepStats,
    sweep_map,
)
from repro.faults.plan import (
    NO_FAULTS,
    DeviceOutage,
    FaultPlan,
    LinkDegradation,
    MessageLoss,
    Pacing,
    RetryPolicy,
    Straggler,
)
from repro.sim.engine import DeadlockError, SimulationError, WatchdogError

#: sweep shape: 2 Lassen-like nodes, 4 GPU owners + 2 helpers per node
NUM_NODES = 2
PPN = 6
NUM_GPUS = 8
#: element counts covering the short / eager / rendezvous protocols
#: (itemsize 8: 128 B, 2 KiB, 16 KiB)
MSG_ELEMS = (16, 256, 2048)
#: watchdog budgets — generous for these tiny jobs; a hang trips them
MAX_EVENTS = 2_000_000
MAX_WALL_SECONDS = 60.0


def build_scenario(index: int, rng: np.random.Generator) -> FaultPlan:
    """One randomized fault plan (index 0 is the fault-free baseline).

    All randomness comes from ``rng``, so a sweep is a pure function of
    its seed.  Degradation windows are drawn cursor-style (each window
    starts at or after the previous one ends), which satisfies the
    sorted/non-overlapping contract of
    :meth:`~repro.sim.resources.BandwidthResource.set_degradation`.
    """
    if index == 0:
        return NO_FAULTS
    degradations = []
    cursor = float(rng.uniform(0.0, 2e-5))
    for _ in range(int(rng.integers(0, 3))):
        width = float(rng.uniform(1e-5, 2e-4))
        degradations.append(LinkDegradation(
            t0=cursor, t1=cursor + width,
            factor=float(rng.uniform(0.05, 0.8)),
            node=int(rng.integers(0, NUM_NODES)) if rng.random() < 0.5
            else None))
        cursor += width + float(rng.uniform(1e-6, 5e-5))
    stragglers = []
    for rank in sorted(rng.choice(NUM_NODES * PPN,
                                  size=int(rng.integers(0, 3)),
                                  replace=False).tolist()):
        stragglers.append(Straggler(rank=int(rank),
                                    factor=float(rng.uniform(1.5, 4.0))))
    loss = None
    if rng.random() < 0.7:
        loss = MessageLoss(prob=float(rng.uniform(0.05, 0.3)))
    outages = []
    if rng.random() < 0.5:
        outages.append(DeviceOutage())
    retry = RetryPolicy(timeout=2e-4, backoff=1e-4, backoff_cap=1e-3,
                        max_retries=int(rng.integers(2, 6)))
    pacing = None
    if rng.random() < 0.3:
        pacing = Pacing(rate=float(rng.uniform(1e9, 1e10)),
                        burst=float(rng.uniform(4096, 65536)))
    return FaultPlan(degradations=degradations, stragglers=stragglers,
                     loss=loss, outages=outages, retry=retry,
                     pacing=pacing, seed=index)


def build_scenarios(seed: int, n_scenarios: int) -> List[FaultPlan]:
    """All fault plans of one sweep, in index order.

    One shared generator is consumed across indices (scenario ``i``
    depends on the draws of scenarios ``0..i-1``), so a worker needs
    the full list to pick its index — bit-identical to the serial
    construction; :func:`_scenario_inputs` keeps it per process.
    """
    rng = np.random.default_rng(seed)
    return [build_scenario(index, rng) for index in range(n_scenarios)]


def _scenario_pattern(seed: int, index: int):
    """The randomized exchange pattern of one scenario (pure function)."""
    from repro.core.pattern import CommPattern

    return CommPattern.random(
        num_gpus=NUM_GPUS, local_n=4096, messages_per_gpu=3,
        msg_elems=MSG_ELEMS[index % len(MSG_ELEMS)],
        seed=seed * 1000 + index)


@functools.lru_cache(maxsize=2)
def _scenario_plans(seed: int, n_scenarios: int) -> Tuple[FaultPlan, ...]:
    """:func:`build_scenarios`, once per sweep and process."""
    return tuple(build_scenarios(seed, n_scenarios))


@functools.lru_cache(maxsize=2)
def _scenario_inputs(seed: int, n_scenarios: int, index: int,
                     machine_name: str):
    """``(machine, fault plan, pattern, layout, payload data)`` of one
    scenario — what its 13 strategies x 2 arms share.

    A per-process memo of a pure function, keyed on every input the
    value depends on (the data depends on the machine through
    ``layout.num_gpus``).  Sweeps walk tasks scenario-major, so two
    entries are enough.  Nothing in it is written by a run: jobs fork
    the plan, pattern and layout are only read, and the payload arrays
    are read-only, so a strategy program that writes into ``data`` in
    place raises (a ``crash``) instead of corrupting the ground truth
    the delivery is verified against.
    """
    from repro.core.base import default_data
    from repro.machine.presets import resolve_machine
    from repro.machine.topology import JobLayout

    machine = resolve_machine(machine_name)
    pattern = _scenario_pattern(seed, index)
    layout = JobLayout(machine, NUM_NODES, PPN)
    data = default_data(pattern, layout)
    for array in data:
        array.flags.writeable = False
    return (machine, _scenario_plans(seed, n_scenarios)[index], pattern,
            layout, tuple(data))


def _check_conservation(job, violations: List[str], where: str) -> None:
    """Every NIC's bytes_served == sum(nbytes * attempts) injected into it."""
    from repro.machine.locality import Locality, TransportKind

    expected: Dict[tuple, float] = {}
    for t in job.transport.trace_log:
        if t.locality is not Locality.OFF_NODE:
            continue
        if job.transport.nic_of(0, t.kind) is None:
            continue
        node = job.layout.placement(t.src).node
        key = (node, t.kind)
        expected[key] = expected.get(key, 0.0) + t.nbytes * t.attempts
    for node in range(job.layout.num_nodes):
        for kind in (TransportKind.CPU, TransportKind.GPU):
            nic = job.transport.nic_of(node, kind)
            if nic is None:
                continue
            want = expected.get((node, kind), 0.0)
            if nic.bytes_served != want:
                violations.append(
                    f"{where}: byte conservation broken on {kind.name} NIC "
                    f"of node {node}: served {nic.bytes_served}, "
                    f"messages injected {want}")


def _check_monotone(job, violations: List[str], where: str) -> None:
    for t in job.transport.trace_log:
        ok = (t.t_send <= t.t_start
              and t.t_start <= t.send_complete
              and t.t_start <= t.delivery)
        if not ok:
            violations.append(
                f"{where}: non-monotone message times "
                f"{t.src}->{t.dest}: send={t.t_send} start={t.t_start} "
                f"complete={t.send_complete} delivery={t.delivery}")
            return  # one example per run is enough


def _phase_profile(job) -> Dict[str, Dict[str, Any]]:
    """Aggregate a traced job's strategy-phase spans by phase name.

    ``{phase: {"count": spans, "total_s": summed virtual seconds}}`` —
    virtual times are deterministic, so the profile is too (and safe to
    put in the deterministic section of the run ledger / report).
    """
    profile: Dict[str, Dict[str, Any]] = {}
    for span in job.tracer.spans:
        if span.cat != "phase":
            continue
        cell = profile.setdefault(span.name, {"count": 0, "total_s": 0.0})
        cell["count"] += 1
        cell["total_s"] += span.t1 - span.t0
    return profile


def _run_once(machine, plan: FaultPlan, pattern, strategy, data,
              strategy_plan, tracer: bool, violations: List[str],
              where: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One arm of a (scenario, strategy) cell.

    ``data`` and ``strategy_plan`` are the cell's shared payload and
    ``strategy.plan(pattern, layout)``.  Returns ``(outcome
    fingerprint, extra)`` where ``extra`` is what only this arm
    supplies: the plain arm's :meth:`~repro.mpi.job.SimJob.metrics`
    snapshot (merged across shards into the report's aggregate
    ``metrics`` section), the traced arm's :func:`_phase_profile`.
    """
    from repro.core.base import run_exchange, verify_exchange
    from repro.mpi.job import SimJob

    job = SimJob(machine, num_nodes=NUM_NODES, ppn=PPN, seed=0,
                 faults=plan, trace=True, tracer=True if tracer else None,
                 max_events=MAX_EVENTS, max_wall_seconds=MAX_WALL_SECONDS)
    outcome: Dict[str, Any] = {}
    try:
        result = run_exchange(job, strategy, pattern, data=data,
                              plan=strategy_plan)
    except DeliveryError as exc:
        outcome["outcome"] = "delivery-error"
        outcome["error"] = str(exc)
    except (DeadlockError, WatchdogError) as exc:
        outcome["outcome"] = "hang"
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        violations.append(f"{where}: hang ({type(exc).__name__}: {exc})")
    except (SimulationError, AssertionError) as exc:
        outcome["outcome"] = "crash"
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        violations.append(f"{where}: crash ({type(exc).__name__}: {exc})")
    else:
        outcome["outcome"] = "ok"
        outcome["comm_time_hex"] = result.comm_time.hex()
        try:
            verify_exchange(result, pattern, data)
        except AssertionError as exc:
            violations.append(f"{where}: corrupt delivery ({exc})")
        blocked = job.sim.blocked_labels()
        if blocked:
            violations.append(
                f"{where}: processes still blocked after a completed "
                f"run: {blocked}")
    stats = job.transport.stats
    outcome["elapsed_hex"] = float(job.sim.now).hex()
    outcome["messages"] = stats.messages
    outcome["retries"] = stats.retries
    outcome["timeouts"] = stats.timeouts
    outcome["gave_up"] = stats.gave_up
    outcome["degraded"] = stats.degraded
    _check_conservation(job, violations, where)
    _check_monotone(job, violations, where)
    if job.sim.now < 0:
        violations.append(f"{where}: virtual clock went negative")
    return outcome, _phase_profile(job) if tracer else job.metrics()


def run_chaos_shard(spec: Tuple) -> Dict[str, Any]:
    """One sweep shard: both runs (plain + traced) of one cell.

    ``spec = (seed, smoke, scenario index, strategy label[, machine
    preset name])`` — tiny and picklable, so shards fan out over any
    start method.  The scenario's inputs (machine, fault plan, pattern,
    payload data) are rebuilt deterministically inside the worker, once
    per scenario (:func:`_scenario_inputs`); the strategy's plan is
    built once for the cell and both arms run it.  Returns the cell's
    outcome, its local violations (in serial order), the plain run's
    metrics snapshot and the traced run's per-phase virtual-time
    profile (attached *after* the plain-vs-traced fingerprint
    comparison, so trace transparency is still checked on the bare
    outcome).
    """
    from repro.core.selector import strategy_by_name

    seed, smoke, index, label = spec[:4]
    machine, plan, pattern, layout, data = _scenario_inputs(
        seed, 3 if smoke else 6, index,
        spec[4] if len(spec) > 4 else "lassen")
    strategy = strategy_by_name(label)
    strategy_plan = strategy.plan(pattern, layout)
    violations: List[str] = []
    where = f"scenario {index} / {label}"
    plain, metrics = _run_once(machine, plan, pattern, strategy, data,
                               strategy_plan, tracer=False,
                               violations=violations, where=where)
    traced, phases = _run_once(machine, plan, pattern, strategy, data,
                               strategy_plan, tracer=True,
                               violations=violations,
                               where=f"{where} [traced]")
    if plain != traced:
        violations.append(
            f"{where}: tracing changed the outcome fingerprint "
            f"(untraced {plain} != traced {traced})")
    return {"outcome": plain, "violations": violations, "metrics": metrics,
            "phases": phases}


def _shard_key(spec: Tuple, machine,
               plan: FaultPlan, pattern_fp: str) -> str:
    """Content hash of one shard's inputs (see :func:`repro.par.cache_key`).

    ``machine`` is the resolved :class:`MachineSpec`; every field of it
    (including its name) enters the hash, so otherwise-identical sweeps
    on different machines can never share cache entries.
    """
    seed, smoke, index, label = spec[:4]
    return cache_key("chaos-shard", machine=machine, plan=plan,
                     pattern=pattern_fp, strategy=label, seed=seed,
                     smoke=smoke, index=index,
                     shape=(NUM_NODES, PPN, NUM_GPUS),
                     budgets=(MAX_EVENTS, MAX_WALL_SECONDS))


def run_chaos(seed: int = 0, smoke: bool = False,
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              machine: str = "lassen",
              stats: Optional[SweepStats] = None,
              policy: Optional[SweepPolicy] = None,
              journal_dir: Optional[str] = None,
              resume: bool = False) -> Dict[str, Any]:
    """Run the sweep; returns the (JSON-serializable) report.

    ``jobs`` fans shards out over a process pool (default:
    ``$REPRO_JOBS`` or serial); ``cache`` skips shards whose content
    hash already has a stored result.  ``machine`` names any preset in
    :data:`repro.machine.PRESETS` (workers rebuild it from the name).
    ``stats`` (a :class:`repro.par.SweepStats`) collects the sweep's
    fleet telemetry in place for the run ledger.  The report is
    byte-identical across worker counts and cache states.

    ``policy`` / ``journal_dir`` / ``resume`` go to
    :func:`repro.par.sweep_map` as they are: the first failing cell
    ends the sweep, and a resumed sweep's report is byte-identical to
    an uninterrupted one.
    """
    from repro.core.selector import all_strategies
    from repro.machine.presets import resolve_machine

    spec = resolve_machine(machine)
    machine_name = spec.name
    n_scenarios = 3 if smoke else 6
    plans = build_scenarios(seed, n_scenarios)
    labels = [s.label for s in all_strategies()]
    tasks = [(seed, smoke, index, label, machine_name)
             for index in range(n_scenarios) for label in labels]
    key_fn = None
    if cache is not None:
        pattern_fps = {index: _scenario_pattern(seed, index).fingerprint()
                       for index in range(n_scenarios)}

        def key_fn(task):
            return _shard_key(task, spec, plans[task[2]],
                              pattern_fps[task[2]])

    if stats is None:
        stats = SweepStats()
    shards = sweep_map(run_chaos_shard, tasks, jobs=jobs,
                       cache=cache, key_fn=key_fn, stats=stats,
                       policy=policy, journal_dir=journal_dir,
                       resume=resume)

    violations: List[str] = []
    merged = MetricsRegistry()
    scenarios = []
    runs = ok_runs = delivery_errors = 0
    task_index = 0
    for index in range(n_scenarios):
        results: Dict[str, Any] = {}
        for label in labels:
            shard = shards[task_index]
            runs += 1
            violations.extend(shard["violations"])
            merged.merge(shard["metrics"])
            outcome = shard["outcome"]
            if outcome["outcome"] == "ok":
                ok_runs += 1
            elif outcome["outcome"] == "delivery-error":
                delivery_errors += 1
            results[label] = dict(outcome, phases=shard["phases"])
            task_index += 1
        scenarios.append({
            "index": index,
            "plan": plans[index].describe(),
            "msg_elems": MSG_ELEMS[index % len(MSG_ELEMS)],
            "results": results,
        })
    return {
        "seed": seed,
        "smoke": smoke,
        "machine": machine_name,
        "scenarios": scenarios,
        "violations": violations,
        "ok": not violations,
        "metrics": merged.to_dict(),
        "summary": {
            "runs": runs,
            "ok": ok_runs,
            "delivery_errors": delivery_errors,
            "violations": len(violations),
        },
    }


def write_chaos_ledger(ledger, report: Dict[str, Any],
                       stats: Optional[SweepStats] = None,
                       cache: Optional[ResultCache] = None) -> None:
    """Emit a chaos report into a :class:`repro.obs.RunLedger`.

    One ``cell`` record per (scenario, strategy) — outcome, delivered
    comm time (decoded from the report's ``comm_time_hex``) and the
    per-phase virtual-time profile — plus the merged metrics snapshot,
    the sweep's fleet telemetry and the result-cache attribution.  All
    cell fields are deterministic; execution-shape facts land in the
    volatile/envelope sections via :meth:`RunLedger.sweep`.
    """
    for scenario in report["scenarios"]:
        for label, cell in scenario["results"].items():
            fields: Dict[str, Any] = {
                k: cell[k] for k in ("outcome", "messages", "retries",
                                     "timeouts", "gave_up", "degraded")
                if k in cell
            }
            if "comm_time_hex" in cell:
                fields["time_s"] = float.fromhex(cell["comm_time_hex"])
            if cell.get("phases"):
                fields["phases"] = cell["phases"]
            ledger.event("cell", scenario=scenario["index"],
                         strategy=label, **fields)
    ledger.metrics(report["metrics"])
    if stats is not None:
        ledger.sweep(stats)
    if cache is not None:
        ledger.cache_events(cache)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.par.cliopts import (add_supervision_args,
                                   supervision_from_args)

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Randomized fault-injection sweep with engine "
                    "invariant checks.")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (the whole report is a pure "
                             "function of it)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (3 scenarios instead of 6)")
    parser.add_argument("--machine", default="lassen", metavar="PRESET",
                        help="machine preset to sweep on (see "
                             "`python -m repro info`; default lassen)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for the sweep (default: "
                             "$REPRO_JOBS or serial); the report is "
                             "byte-identical at any value")
    parser.add_argument("--cache", action="store_true",
                        help="cache shard results on disk under "
                             "$REPRO_CACHE_DIR or .repro-cache/")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache shard results under DIR (implies "
                             "--cache)")
    add_supervision_args(parser)
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here (default stdout)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="write a JSONL run ledger here (consumed by "
                             "`python -m repro obs`)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="sample the host stack during the sweep and "
                             "write collapsed stacks (flamegraph.pl "
                             "format) here")
    args = parser.parse_args(argv)
    cache = None
    if args.cache or args.cache_dir or args.resume:
        cache = ResultCache(directory=args.cache_dir or default_cache_dir())

    policy, journal_dir, resume = supervision_from_args(args, cache)
    stats = SweepStats()
    profiler = None
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        report = run_chaos(seed=args.seed, smoke=args.smoke, jobs=args.jobs,
                           cache=cache, machine=args.machine, stats=stats,
                           policy=policy, journal_dir=journal_dir,
                           resume=resume)
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        n = profiler.write_collapsed(args.profile)
        print(f"profile: wrote {args.profile} ({n} stacks, "
              f"{profiler.total_samples} samples)", file=sys.stderr)
    if args.ledger:
        from repro.obs.ledger import RunLedger

        ledger_args = {"seed": args.seed, "smoke": args.smoke,
                       "machine": report["machine"]}
        ledger = RunLedger(args.ledger, "chaos", ledger_args,
                           machine=report["machine"])
        write_chaos_ledger(ledger, report, stats=stats, cache=cache)
        if profiler is not None:
            for stack, count in profiler.stacks():
                ledger.event("profile_stack", volatile=True,
                             stack=stack, count=count)
        ledger.finish("ok" if report["ok"] else "violations",
                      violations=len(report["violations"]))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    summary = report["summary"]
    print(f"chaos: {summary['runs']} runs, {summary['ok']} ok, "
          f"{summary['delivery_errors']} delivery errors, "
          f"{summary['violations']} invariant violations",
          file=sys.stderr)
    if resume:
        print(f"chaos: {stats.resumed} shards resumed", file=sys.stderr)
    for v in report["violations"]:
        print(f"  VIOLATION: {v}", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
