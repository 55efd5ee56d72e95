"""fig51_des — the Figure-5.1 measurement loop, serial and in-process.

One round is one *cycle*: every SUITE analog x GPU count x all 13
strategies, each cell built the way ``measure_matrix_panel`` builds it
(fresh ``SimJob``, ``comm_pattern``, ``summarize``, ``default_data``,
then ``plan`` + ``run_exchange`` per strategy) plus one
``predict_times`` per cell for the model-vs-DES accuracy figures.
Cycles replay the same inputs, so each exchange is timed once per
cycle and its time is the best quartile over the run's cycles.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

from pb import stats
from pb.harness import Workload, empty_program

MACHINE = "lassen"
MATRICES = ("audikw_1", "Serena", "ldoor", "thermal2", "bone010", "Geo_1438")
#: (matrix rows before the seed's offset, GPU counts)
FULL = (12000, (8, 16, 32))
SMOKE = (2000, (8, 16))


def matrix_rows(base: int, seed: int) -> int:
    """The seed picks the matrix dimension: the SUITE builders take
    nothing else, and a few rows more change every partition boundary
    and random coupling without changing how much work a cycle is."""
    return base + seed % 64


class Fig51Des(Workload):
    name = "fig51_des"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        base, self.gpu_counts = SMOKE if smoke else FULL
        self.n = matrix_rows(base, seed)
        self.matrices = MATRICES[:2] if smoke else MATRICES
        self.cells: List[Tuple[str, int, Any]] = []
        #: per round: seconds of each exchange op / of each cell's overhead
        self.op_rows: List[List[float]] = []
        self.overhead_rows: List[List[float]] = []
        self.messages = 0
        self.accuracy: Dict[str, float] = {}
        self._first: List[str] = []

    def setup(self) -> None:
        from repro.machine.presets import resolve_machine
        from repro.sparse.distributed import DistributedCSR
        from repro.sparse.suite import SUITE

        tr = self.tr
        self.machine = resolve_machine(MACHINE)
        self.cells = []
        for name in self.matrices:
            with tr.span("sparse.build", "sparse"):
                matrix = SUITE[name].build(self.n)
            for gpus in self.gpu_counts:
                with tr.span("sparse.partition", "sparse"):
                    dist = DistributedCSR(matrix, num_gpus=gpus)
                self.cells.append((name, gpus, dist))

    # -- one cycle -------------------------------------------------------------
    def _cycle(self, job_kwargs: Dict[str, Any], verify: bool = True
               ) -> Dict[str, Any]:
        """Run every cell once; returns times, counts and virtual results."""
        from repro.core.base import default_data, run_exchange, verify_exchange
        from repro.core.selector import all_strategies, predict_times
        from repro.mpi.job import SimJob

        tr = self.tr
        machine = self.machine
        gpn = machine.gpus_per_node
        strategies = all_strategies()
        op_s: List[float] = []
        overhead_s: List[float] = []
        pieces: List[str] = []
        out: Dict[str, Any] = {"messages": 0, "bytes": 0, "off_node": 0,
                               "virtual_comm_s": 0.0, "events": 0,
                               "obs_spans": 0, "cells": []}
        for name, gpus, dist in self.cells:
            with tr.span("mpi.job_init", "mpi") as s_job:
                job = SimJob(machine, num_nodes=gpus // gpn,
                             ppn=machine.max_ppn, **job_kwargs)
            with tr.span("core.pattern", "core") as s_pat:
                pattern = dist.comm_pattern()
            with tr.span("models.summarize", "models") as s_sum:
                pattern.summarize(job.layout)
            with tr.span("core.data", "core") as s_data:
                data = default_data(pattern, job.layout, seed=self.seed)
            with tr.span("models.predict", "models") as s_pred:
                predicted = predict_times(pattern, job.layout)
            overhead_s.append(s_job.dt + s_pat.dt + s_sum.dt + s_data.dt
                              + s_pred.dt)
            measured: Dict[str, float] = {}
            for strategy in strategies:
                self.attempted += 1
                with tr.span("core.plan", "core") as s_plan:
                    plan = strategy.plan(pattern, job.layout)
                with tr.span("core.exchange", "core") as s_run:
                    result = run_exchange(job, strategy, pattern, data=data,
                                          plan=plan)
                op_s.append(s_plan.dt + s_run.dt)
                if verify:
                    with tr.span("core.verify", "core"):
                        try:
                            verify_exchange(result, pattern, data)
                        except AssertionError as exc:
                            self.fail(f"{name}/{gpus}/{strategy.label}: "
                                      f"{exc}")
                measured[strategy.label] = result.comm_time
                out["messages"] += result.stats.messages
                out["bytes"] += result.stats.bytes_sent
                out["off_node"] += result.stats.off_node_messages
                out["virtual_comm_s"] += result.comm_time
                out["events"] += job.sim.steps_traced
                if job.tracer is not None:
                    out["obs_spans"] += len(job.tracer.spans)
                pieces.append(f"{name}/{gpus}/{strategy.label}="
                              f"{result.comm_time.hex()}")
            pick = min(predicted, key=predicted.get)
            best = min(measured, key=measured.get)
            out["cells"].append((pick == best,
                                 measured[pick] / measured[best]))
            pieces.append(f"{name}/{gpus}: model {pick} des {best}")
        out.update(op_s=op_s, overhead_s=overhead_s, pieces=pieces,
                   strategies=len(strategies))
        return out

    def run_round(self, r: int) -> List[str]:
        cycle = self._cycle({})
        self.op_rows.append(cycle["op_s"])
        self.overhead_rows.append(cycle["overhead_s"])
        self.round_walls.append(sum(cycle["op_s"]) + sum(cycle["overhead_s"]))
        self.messages = cycle["messages"]
        agree = [a for a, _regret in cycle["cells"]]
        self.accuracy = {
            "models.winner_agreement": sum(agree) / len(agree),
            "models.regret_geomean": statistics.geometric_mean(
                [regret for _a, regret in cycle["cells"]]),
        }
        if not self._first:
            self._first = cycle["pieces"]
        elif cycle["pieces"] != self._first:
            # cycles replay the same inputs: virtual results must repeat
            self.fail(f"cycle {r} virtual results differ from cycle 0")
        return cycle["pieces"]

    def end_to_end(self) -> Dict[str, float]:
        ops = stats.column_best_quartiles(self.op_rows)
        cycle_s = sum(ops) + sum(
            stats.column_best_quartiles(self.overhead_rows))
        return {
            "work_per_s": self.messages / cycle_s,
            "ops_per_s": len(ops) / cycle_s,
            "op_p50_us": stats.median(ops) * 1e6,
            "op_p90_us": stats.percentile(ops, 90.0) * 1e6,
        }

    # -- traced run --------------------------------------------------------------
    def traced_extras(self, totals: Dict[str, float], rounds: int
                      ) -> Dict[str, float]:
        from repro.mpi.job import SimJob

        per_round = {k: v / rounds for k, v in totals.items()}
        plain_exchange_s = sum(stats.column_best_quartiles(self.op_rows))

        # counts pass: the same cycle with the program's tracer and message
        # trace on, so Simulator.steps_traced counts events
        counted = self._cycle({"trace": True, "tracer": True}, verify=False)
        if counted["pieces"] != self._first:
            self.fail("counts pass (tracer on) changed the virtual results")

        gpn = self.machine.gpus_per_node
        init_us: List[float] = []
        empty_us: List[float] = []
        for _name, gpus, _dist in self.cells:
            t0 = time.perf_counter()
            job = SimJob(self.machine, num_nodes=gpus // gpn,
                         ppn=self.machine.max_ppn)
            t1 = time.perf_counter()
            job.run(empty_program)
            t2 = time.perf_counter()
            init_us.append((t1 - t0) * 1e6)
            empty_us.append((t2 - t1) * 1e6)

        messages = counted["messages"]
        events = counted["events"]
        exchange_s = per_round.get("core.exchange", 0.0)
        return {
            "sim.events": events,
            "sim.host_us_per_event": exchange_s / events * 1e6,
            "sim.events_per_message": events / messages,
            "mpi.messages": messages,
            "mpi.bytes": counted["bytes"],
            "mpi.off_node_messages": counted["off_node"],
            "mpi.host_us_per_message": exchange_s / messages * 1e6,
            "mpi.empty_run_us": stats.median(empty_us),
            "mpi.job_init_us": stats.median(init_us),
            "core.plan_s": per_round.get("core.plan", 0.0),
            "core.pattern_s": per_round.get("core.pattern", 0.0),
            "core.data_s": per_round.get("core.data", 0.0),
            "core.exchange_s": exchange_s,
            "core.verify_s": per_round.get("core.verify", 0.0),
            "core.exchanges": len(counted["op_s"]),
            "core.virtual_comm_s": counted["virtual_comm_s"],
            "models.point_time_us": per_round.get("models.predict", 0.0)
            / len(self.cells) / counted["strategies"] * 1e6,
            "obs.tracer_overhead": sum(counted["op_s"]) / plain_exchange_s,
            "obs.spans": counted["obs_spans"],
            **self.accuracy,
        }
