"""chaos_small — the full chaos sweep, cell by cell.

One round is three chaos sweeps, one per machine (``lassen``, ``summit``,
``frontier_like``), each on a chaos seed of its own (``seed*100 + 3*r +
m``): the task list ``run_chaos(seed, smoke=False, jobs=1, machine=M)``
builds, evaluated in the same order by the public shard function
``run_chaos_shard`` so that each cell (two arms: plain and
tracer-attached) is one timed operation.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Tuple

from pb import stats
from pb.harness import Workload, empty_program

MACHINES = ("lassen", "summit", "frontier_like")
BAD_OUTCOMES = ("hang", "crash", "quarantined")
#: the two SimJob runs (plain arm, traced arm) of one cell
ARMS = 2


class ChaosSmall(Workload):
    name = "chaos_small"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.labels: List[str] = []
        #: per round: messages/s, cells/s, p50 and p90 cell seconds
        self.rounds: List[Tuple[float, float, float, float]] = []
        self.first_round: List[Dict[str, Any]] = []

    def setup(self) -> None:
        from repro.core.selector import all_strategies
        from repro.faults.chaos import build_scenarios, run_chaos_shard
        from repro.machine.presets import resolve_machine

        self.labels = [s.label for s in all_strategies()]
        self.scenarios = 3 if self.smoke else 6
        # what run_chaos does before it fans out: resolve the preset and
        # build the seed's plans (the shards rebuild their own inputs)
        build_scenarios(self.seed * 100, self.scenarios)
        self.machine_names = [resolve_machine(m).name for m in MACHINES]
        # one fault-free cell per machine, so lazy imports and the
        # presets' caches are paid here and not inside the first round
        for machine in self.machine_names:
            run_chaos_shard((self.seed * 100, True, 0, self.labels[0],
                             machine))

    def tasks(self, r: int) -> List[Tuple]:
        machines = self.machine_names
        return [(self.seed * 100 + len(machines) * r + m, self.smoke, index,
                 label, machine)
                for m, machine in enumerate(machines)
                for index in range(self.scenarios) for label in self.labels]

    def run_round(self, r: int) -> List[str]:
        from repro.faults.chaos import run_chaos_shard

        tr = self.tr
        pieces: List[str] = []
        shards: List[Dict[str, Any]] = []
        op_s: List[float] = []
        messages = 0
        tasks = self.tasks(r)
        for task in tasks:
            self.attempted += 1
            with tr.span("faults.chaos_cell", "faults") as span:
                shard = run_chaos_shard(task)
            op_s.append(span.dt)
            outcome = shard["outcome"]
            if outcome["outcome"] in BAD_OUTCOMES or shard["violations"]:
                self.fail(f"seed {task[0]} scenario {task[2]} {task[3]}: "
                          f"{outcome['outcome']} {shard['violations'][:1]}")
            messages += ARMS * outcome["messages"]
            pieces.append(json.dumps(outcome, sort_keys=True))
            shards.append(shard)
        wall = sum(op_s)
        self.rounds.append((messages / wall, len(tasks) / wall,
                            stats.median(op_s),
                            stats.percentile(op_s, 90.0)))
        self.round_walls.append(wall)
        if r == 0:
            self.first_round = shards
        return pieces

    def end_to_end(self) -> Dict[str, float]:
        work, ops, p50, p90 = zip(*self.rounds)
        return {
            "work_per_s": stats.best_quartile(work, lower=False),
            "ops_per_s": stats.best_quartile(ops, lower=False),
            "op_p50_us": stats.best_quartile(p50) * 1e6,
            "op_p90_us": stats.best_quartile(p90) * 1e6,
        }

    # -- traced run --------------------------------------------------------------
    def _events_pass(self) -> Dict[str, float]:
        """Round 0's cells again, both arms, with the event counter read.

        ``run_chaos_shard`` does not return event counts, so the cells
        are rebuilt from the chaos module's public pieces; each rebuilt
        cell must deliver exactly the messages the shard reported, or
        the rebuild no longer matches the program and the run fails.
        """
        from repro.core.base import run_exchange
        from repro.core.pattern import CommPattern
        from repro.core.selector import strategy_by_name
        from repro.faults import chaos
        from repro.faults.errors import DeliveryError
        from repro.machine.presets import resolve_machine
        from repro.mpi.job import SimJob

        machines = {name: resolve_machine(name)
                    for name in self.machine_names}
        plans: Dict[int, List[Any]] = {}
        events = spans = 0
        init_us: List[float] = []
        empty_us: List[float] = []
        arm_s = {False: 0.0, True: 0.0}
        for task, shard in zip(self.tasks(0), self.first_round):
            seed, _smoke, index, label, machine = task
            pattern = CommPattern.random(
                num_gpus=chaos.NUM_GPUS, local_n=4096, messages_per_gpu=3,
                msg_elems=chaos.MSG_ELEMS[index % len(chaos.MSG_ELEMS)],
                seed=seed * 1000 + index)
            if seed not in plans:
                plans[seed] = chaos.build_scenarios(seed, self.scenarios)
            for tracer in (False, True):
                t0 = time.perf_counter()
                job = SimJob(machines[machine],
                             num_nodes=chaos.NUM_NODES, ppn=chaos.PPN, seed=0,
                             faults=plans[seed][index], trace=True,
                             tracer=True if tracer else None,
                             max_events=chaos.MAX_EVENTS,
                             max_wall_seconds=chaos.MAX_WALL_SECONDS)
                t1 = time.perf_counter()
                try:
                    run_exchange(job, strategy_by_name(label), pattern)
                except DeliveryError:
                    pass  # a legitimate fault outcome; counters still stand
                arm_s[tracer] += time.perf_counter() - t1
                init_us.append((t1 - t0) * 1e6)
            events += job.sim.steps_traced
            spans += len(job.tracer.spans)
            if job.transport.stats.messages != shard["outcome"]["messages"]:
                self.fail(f"events pass: scenario {index} {label} delivered "
                          f"{job.transport.stats.messages} messages, the "
                          f"shard reported {shard['outcome']['messages']}")
            t2 = time.perf_counter()
            job.run(empty_program)
            empty_us.append((time.perf_counter() - t2) * 1e6)
        return {"sim.events": events, "obs.spans": spans,
                "mpi.job_init_us": stats.median(init_us),
                "mpi.empty_run_us": stats.median(empty_us),
                "plain_arm_s": arm_s[False], "traced_arm_s": arm_s[True]}

    def traced_extras(self, totals: Dict[str, float], rounds: int
                      ) -> Dict[str, float]:
        counters: Dict[str, int] = {}
        delivery_errors = violations = 0
        for shard in self.first_round:
            for key, value in shard["metrics"]["counters"].items():
                counters[key] = counters.get(key, 0) + value
            delivery_errors += shard["outcome"]["outcome"] == "delivery-error"
            violations += len(shard["violations"])
        probe = self._events_pass()
        messages = counters.get("transport.messages", 0)
        cell_s = totals.get("faults.chaos_cell", 0.0) / rounds
        cells = len(self.first_round)
        virtual = sum(float.fromhex(shard["outcome"]["comm_time_hex"])
                      for shard in self.first_round
                      if "comm_time_hex" in shard["outcome"])
        return {
            "sim.events": probe["sim.events"],
            "sim.host_us_per_event":
                probe["traced_arm_s"] / probe["sim.events"] * 1e6,
            "sim.events_per_message": probe["sim.events"] / messages,
            "mpi.messages": messages,
            "mpi.bytes": counters.get("transport.bytes_sent", 0),
            "mpi.off_node_messages":
                counters.get("transport.off_node.messages", 0),
            "mpi.host_us_per_message": cell_s / (ARMS * messages) * 1e6,
            "mpi.empty_run_us": probe["mpi.empty_run_us"],
            "mpi.job_init_us": probe["mpi.job_init_us"],
            "mpi.retries": counters.get("faults.retries", 0),
            "mpi.timeouts": counters.get("faults.timeouts", 0),
            "core.exchange_s": cell_s,
            "core.exchanges": ARMS * cells,
            "core.virtual_comm_s": ARMS * virtual,
            "obs.tracer_overhead":
                probe["traced_arm_s"] / probe["plain_arm_s"],
            "obs.spans": probe["obs.spans"],
            "faults.retries": counters.get("faults.retries", 0),
            "faults.degraded": counters.get("faults.degraded", 0),
            "faults.delivery_errors": delivery_errors,
            "faults.violations": violations,
        }
