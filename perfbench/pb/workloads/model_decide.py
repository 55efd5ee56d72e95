"""model_decide — the model side: bulk grids, then point decisions.

One round has two phases that use the same costing path at its two
extremes.  **Bulk**: ``build_atlas`` over the seed's grid for three
presets, an extended ``compute_regime_map`` per preset, and a
``save_atlas``/``load_atlas`` round trip.  **Point**: a closed loop of
one client asking for decisions on lassen, one at a time — off-grid
atlas lookups (interpolated, falling back to exact evaluation near a
frontier), on-grid lookups, out-of-hull lookups (always exact),
``best_strategy`` and ``select_strategy`` on Fig-5.1 patterns.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from pb import stats
from pb.harness import Workload

PRESETS = ("lassen", "summit", "frontier_like")
#: (node, message, duplicate, size) axis lengths; decisions per round;
#: regime-map (node counts, sizes); matrix rows of the select patterns
FULL = ((12, 16, 8, 41), 1250, (32, 101), 4000)
SMOKE = ((4, 4, 2, 9), 100, (4, 11), 2000)
#: decision mix: cumulative shares of the kinds below
KINDS = ("offgrid", "ongrid", "hull", "best", "select")
MIX = (0.60, 0.75, 0.85, 0.95, 1.00)
#: rounds of queries generated at set-up (later rounds wrap around)
QUERY_ROUNDS = 16
#: share of all decisions audited; only on-grid ones (MIX: 15 %) can be
AUDIT_SHARE = 0.02
ONGRID_SHARE = 0.15
SELECT_MATRICES = ("Serena", "thermal2")
SELECT_GPUS = (8, 16)
MAX_NODES, MIN_MSGS, MAX_MSGS, MAX_DUP = 64, 64, 4096, 0.5


def _geom_ints(lo: int, hi: int, count: int) -> Tuple[int, ...]:
    return tuple(sorted({int(round(x)) for x in np.geomspace(lo, hi, count)}))


class ModelDecide(Workload):
    name = "model_decide"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        (self.axes, self.per_round, self.regime_shape,
         self.select_rows) = SMOKE if smoke else FULL
        #: per round: bulk cells/s, decisions/s, p50 and p90 decision seconds
        self.rounds: List[Tuple[float, float, float, float]] = []
        #: every decision made: (kind, source, seconds)
        self.decisions: List[Tuple[str, str, float]] = []
        self.first_counters: Dict[str, int] = {}

    # -- inputs ----------------------------------------------------------------
    def setup(self) -> None:
        from repro.atlas import AtlasGridSpec
        from repro.machine.presets import resolve_machine
        from repro.machine.topology import JobLayout
        from repro.sparse.distributed import DistributedCSR
        from repro.sparse.suite import SUITE

        tr = self.tr
        n_nodes, n_msgs, n_dups, n_sizes = self.axes
        # the seed stretches the size axis, so on-grid points move with it
        scale = 1.0 + (self.seed % 16) / 64.0
        self.spec = AtlasGridSpec(
            node_counts=_geom_ints(2, MAX_NODES, n_nodes),
            msg_counts=_geom_ints(MIN_MSGS, MAX_MSGS, n_msgs),
            dup_fractions=tuple(np.linspace(0.0, MAX_DUP, n_dups)),
            sizes=tuple(scale * np.logspace(1, 6, n_sizes)))
        self.machines = [resolve_machine(name) for name in PRESETS]
        lassen = self.machines[0]
        self.patterns = []
        for name in SELECT_MATRICES:
            with tr.span("sparse.build", "sparse"):
                matrix = SUITE[name].build(self.select_rows
                                           + self.seed % 64)
            for gpus in SELECT_GPUS:
                with tr.span("sparse.partition", "sparse"):
                    dist = DistributedCSR(matrix, num_gpus=gpus)
                self.patterns.append(
                    (dist.comm_pattern(),
                     JobLayout(lassen, gpus // lassen.gpus_per_node,
                               lassen.max_ppn)))
        self.queries = self._queries(
            np.random.default_rng([self.seed, 0xDEC1DE]),
            self.per_round * QUERY_ROUNDS)

    def _queries(self, rng: np.random.Generator, count: int) -> List[Tuple]:
        """``(kind, scenario, size, pattern index)`` per decision."""
        from repro.models.scenarios import Scenario

        spec = self.spec
        lo_size, hi_size = np.log10(spec.sizes[0]), np.log10(spec.sizes[-1])
        out = []
        for u in rng.random(count):
            kind = KINDS[int(np.searchsorted(MIX, u, side="right"))]
            which = 0
            if kind == "ongrid":
                i, j, k, l = (int(rng.integers(n)) for n in spec.shape)
                scenario = spec.scenario_at(i, j, k)
                size = spec.sizes[l]
            else:
                nodes = int(rng.integers(2, MAX_NODES + 1))
                scenario = Scenario(
                    num_dest_nodes=nodes,
                    num_messages=int(rng.integers(max(nodes, MIN_MSGS),
                                                  MAX_MSGS + 1)),
                    dup_fraction=float(rng.uniform(0.0, MAX_DUP)))
                size = float(10 ** rng.uniform(lo_size, hi_size))
                if kind == "hull":
                    size = float(spec.sizes[-1] * 10 ** rng.uniform(0.05, 1))
                elif kind == "select":
                    which = int(rng.integers(len(self.patterns)))
            out.append((kind, scenario, size, which))
        return out

    # -- one round ---------------------------------------------------------------
    def _bulk(self, r: int, pieces: List[str]) -> Tuple[Any, int, float]:
        from repro.atlas import build_atlas, load_atlas, save_atlas
        from repro.models.regime_map import compute_regime_map

        tr = self.tr
        n_nodes, n_sizes = self.regime_shape
        rm_nodes = tuple(range(2, 2 + n_nodes))
        rm_sizes = [float(s) for s in np.logspace(1, 6, n_sizes)]
        cells = 0
        seconds = 0.0
        lassen_atlas = None
        for machine in self.machines:
            self.attempted += 2
            with tr.span("atlas.build", "atlas") as s_build:
                atlas = build_atlas(machine, self.spec)
            with tr.span("models.regime_map", "models") as s_map:
                rm = compute_regime_map(machine, sizes=rm_sizes,
                                        node_counts=rm_nodes,
                                        include_extended=True,
                                        keep_times=True)
            cells += (atlas.cells * len(atlas.labels)
                      + rm.times.size)
            seconds += s_build.dt + s_map.dt
            pieces.append(f"{machine.name} regime "
                          + ",".join(rm.labels[i]
                                     for i in rm.winners_idx.ravel()))
            if lassen_atlas is None:
                lassen_atlas = atlas
        path = os.path.join(self.tmpdir(), "lassen.atlas")
        self.attempted += 1
        with tr.span("atlas.save_load", "atlas") as s_io:
            header = save_atlas(lassen_atlas, path)
            loaded = load_atlas(path)
        seconds += s_io.dt
        pieces.append(f"lassen atlas {header['tensor']['sha256']}")
        if r == 0:
            # untimed audit: the artifact round-trips byte-identically
            with open(path, "rb") as fh:
                first = fh.read()
            save_atlas(loaded, path)
            with open(path, "rb") as fh:
                if fh.read() != first:
                    self.fail("atlas artifact did not round-trip "
                              "byte-identically")
        return loaded, cells, seconds

    def _point(self, r: int, atlas: Any, pieces: List[str]) -> float:
        from repro.atlas import AtlasIndex
        from repro.core.selector import select_strategy
        from repro.models.scenarios import best_strategy

        tr = self.tr
        lassen = self.machines[0]
        index = AtlasIndex(atlas)
        base = (r % QUERY_ROUNDS) * self.per_round
        queries = self.queries[base:base + self.per_round]
        answers: List[str] = []
        decisions = self.decisions
        t_start = time.perf_counter()
        for kind, scenario, size, which in queries:
            if kind == "best":
                with tr.span("models.best_strategy", "models") as span:
                    winner = best_strategy(lassen, scenario, size)
                source = "best"
            elif kind == "select":
                pattern, layout = self.patterns[which]
                with tr.span("core.select_strategy", "core") as span:
                    winner = select_strategy(pattern, layout)[0].label
                source = "select"
            else:
                with tr.span("atlas.lookup", "atlas") as span:
                    answer = index.lookup(scenario, size)
                winner, source = answer.winner, answer.source
            decisions.append((kind, source, span.dt))
            answers.append(winner)
        seconds = time.perf_counter() - t_start
        self.attempted += len(queries)
        pieces.append("decisions " + ",".join(answers))
        if r == 0:
            self.first_counters = index.counters()
        # untimed audit: an on-grid answer is exactly best_strategy's
        rng = np.random.default_rng([self.seed, r, 0xA0D17])
        for (kind, scenario, size, _w), winner in zip(queries, answers):
            if kind == "ongrid" and rng.random() < AUDIT_SHARE / ONGRID_SHARE:
                if best_strategy(lassen, scenario, size) != winner:
                    self.fail(f"on-grid lookup {scenario} @ {size}: atlas "
                              f"says {winner}, best_strategy disagrees")
        return seconds

    def run_round(self, r: int) -> List[str]:
        pieces: List[str] = []
        atlas, cells, bulk_s = self._bulk(r, pieces)
        point_s = self._point(r, atlas, pieces)
        latencies = [dt for _k, _s, dt in self.decisions[-self.per_round:]]
        self.rounds.append((cells / bulk_s, self.per_round / point_s,
                            stats.median(latencies),
                            stats.percentile(latencies, 90.0)))
        self.round_walls.append(bulk_s + point_s)
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
    def _paths_probe(self) -> Dict[str, float]:
        """compile -> stack -> evaluate on one wide batch, step by step."""
        from repro.models.scenarios import (Scenario, scenario_summary,
                                            scenario_summary_batch)
        from repro.models.strategies import all_strategy_models
        from repro.paths import stack_plans

        lassen = self.machines[0]
        width = 256 if self.smoke else 4096
        scenario = Scenario(num_dest_nodes=16, num_messages=256)
        models = all_strategy_models(lassen, include_extended=True)
        batch = scenario_summary_batch(lassen, scenario,
                                       np.logspace(1, 6, width))
        stack_s, evaluate_s = [], []
        for _ in range(3 if self.smoke else 15):
            plans = [m.compile_plan_batch(batch) for m in models]
            t0 = time.perf_counter()
            fused = stack_plans(lassen, plans, n=width)
            t1 = time.perf_counter()
            fused.evaluate()
            t2 = time.perf_counter()
            stack_s.append(t1 - t0)
            evaluate_s.append(t2 - t1)
        summary = scenario_summary(lassen, scenario, 4096.0)
        point_us = []
        for model in models:
            t0 = time.perf_counter()
            for _ in range(20):
                model.time(summary)
            point_us.append((time.perf_counter() - t0) / 20 * 1e6)
        return {
            "paths.stack_s": stats.median(stack_s),
            "paths.evaluate_s": stats.median(evaluate_s),
            "paths.plans": len(models),
            "paths.cells": len(models) * width,
            "models.point_time_us": stats.median(point_us),
        }

    def traced_extras(self, totals: Dict[str, float], rounds: int
                      ) -> Dict[str, float]:
        def med_us(pick) -> float:
            chosen = [dt for k, s, dt in self.decisions if pick(k, s)]
            return stats.median(chosen) * 1e6 if chosen else 0.0

        latencies = [dt for _k, _s, dt in self.decisions]
        counters = self.first_counters
        lookups = counters.get("atlas.lookups", 0)
        out = {
            "models.best_strategy_us": med_us(lambda k, s: k == "best"),
            "models.select_strategy_us": med_us(lambda k, s: k == "select"),
            "models.decision_p99_us": stats.tail(latencies, 99.0) * 1e6,
            "models.decision_p999_us": stats.tail(latencies, 99.9) * 1e6,
            "atlas.build_s": totals.get("atlas.build", 0.0) / rounds,
            "atlas.save_load_s": totals.get("atlas.save_load", 0.0) / rounds,
            "atlas.lookup_hit_us": med_us(lambda k, s: s == "atlas"),
            "atlas.lookup_fallback_us":
                med_us(lambda k, s: s.startswith("exact")),
            "atlas.lookups": lookups,
            "atlas.hit_ratio":
                counters.get("atlas.hits", 0) / lookups if lookups else 0.0,
            "atlas.fallbacks_margin": counters.get("atlas.fallbacks.margin",
                                                   0),
            "atlas.fallbacks_hull": counters.get("atlas.fallbacks.hull", 0),
        }
        out.update(self._paths_probe())
        return out
