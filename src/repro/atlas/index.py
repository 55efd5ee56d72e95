"""O(1) atlas queries: interpolated winner + confidence margin.

:class:`AtlasIndex` answers "which strategy wins for this scenario?"
from the precomputed tensor alone: one bisection per axis, multilinear
interpolation **in log-space** (log node count, log message count, log
size; the bounded duplicate fraction interpolates linearly), the
winner by :func:`~repro.models.decision.decide`, and a confidence
margin derived from the gap to the runner-up.  The kernel is never
touched unless the query demands it:

* **on-grid queries** (every axis hits a lattice value exactly) are
  served straight from the stored tensor — those values *are* the
  costing kernel's outputs, so the winner matches exact evaluation bit-for-bit
  and no fallback can trigger;
* **interpolated queries** whose margin falls below
  :data:`MARGIN_BAND` sit close to a crossover frontier, where
  interpolation may pick the wrong side — they fall back to exact
  evaluation (one cell, so the scalar stage walk);
* **out-of-hull queries** (outside the grid's bounding box on any axis)
  have no bracketing cell and always evaluate exactly.

Hit/fallback traffic is counted in an :class:`~repro.obs.metrics.
MetricsRegistry` (``atlas.lookups``, ``atlas.hits``,
``atlas.fallbacks.margin``, ``atlas.fallbacks.hull``), so a serving
layer can alert when its query mix drifts off the precomputed grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.artifact import Atlas
from repro.models.decision import decide
from repro.models.scenarios import Scenario
from repro.obs.metrics import MetricsRegistry

#: half-width of the frontier band (fractional winner/runner-up gap)
#: below which an *interpolated* lookup re-evaluates exactly
MARGIN_BAND = 0.05


@dataclass
class AtlasLookup:
    """One query's answer.

    ``margin`` is ``(runner_up - winner) / winner`` of the per-strategy
    times the answer was derived from — the fractional cost of picking
    the second-best strategy, i.e. the confidence in the winner
    (``inf`` with a single strategy).  ``source`` records how the
    answer was produced: ``"atlas"`` (stored or interpolated tensor),
    ``"exact-margin"`` (frontier-band fallback) or ``"exact-hull"``
    (outside the grid).
    """

    winner: str
    winner_idx: int
    margin: float
    times: np.ndarray  # per-strategy times, atlas label order
    source: str
    interpolated: bool

    @property
    def exact(self) -> bool:
        """True when the answer came from exact evaluation."""
        return self.source != "atlas"


def _locate(values: Sequence[float], logs: Sequence[float], x: float,
            log_axis: bool) -> Optional[Tuple[int, float]]:
    """Bracket ``x`` on one axis: ``(lower index, fractional weight)``.

    Weight 0.0 means an exact lattice hit (bitwise ``==`` against the
    stored axis value, so grid points never take the interpolation
    path).  ``None`` means ``x`` lies outside the axis hull.
    """
    if x < values[0] or x > values[-1]:
        return None
    pos = bisect_left(values, x)
    if pos < len(values) and values[pos] == x:
        return pos, 0.0
    i = pos - 1
    if log_axis:
        frac = ((math.log(x) - logs[i]) / (logs[i + 1] - logs[i]))
    else:
        frac = (x - values[i]) / (values[i + 1] - values[i])
    return i, frac


class AtlasIndex:
    """Query layer over one machine's :class:`~repro.atlas.artifact.Atlas`."""

    def __init__(self, atlas: Atlas,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.atlas = atlas
        self._labels = tuple(atlas.labels)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        spec = atlas.spec
        self._axes: List[Tuple[List[float], List[float], bool]] = [
            (list(map(float, spec.node_counts)),
             [math.log(v) for v in spec.node_counts], True),
            (list(map(float, spec.msg_counts)),
             [math.log(v) for v in spec.msg_counts], True),
            (list(spec.dup_fractions), list(spec.dup_fractions), False),
            (list(spec.sizes), [math.log(v) for v in spec.sizes], True),
        ]
        self._times = atlas.times
        self._lookups = self.metrics.counter("atlas.lookups")
        self._hits = self.metrics.counter("atlas.hits")
        self._fb_margin = self.metrics.counter("atlas.fallbacks.margin")
        self._fb_hull = self.metrics.counter("atlas.fallbacks.hull")
        self._machine = None      # resolved lazily, only for fallback
        self._models = None

    # -- exact fallback ------------------------------------------------------
    def _exact_times(self, scenario: Scenario,
                     msg_size: float) -> np.ndarray:
        from repro.machine import resolve_machine
        from repro.models.scenarios import fused_scenario_times
        from repro.models.strategies import all_strategy_models, model_label

        if self._machine is None:
            self._machine = resolve_machine(self.atlas.machine)
            wanted = set(self.atlas.labels)
            models = [m for m in all_strategy_models(self._machine)
                      if model_label(m) in wanted]
            got = [model_label(m) for m in models]
            if got != self.atlas.labels:
                raise ValueError(
                    f"model registry no longer matches the atlas labels: "
                    f"{got} != {self.atlas.labels}; rebuild the atlas")
            self._models = models
        _labels, times = fused_scenario_times(
            self._machine, [scenario], [float(msg_size)], self._models)
        return times[:, 0, 0]

    def _grid_times(self, scenario: Scenario, msg_size: float
                    ) -> Tuple[Optional[np.ndarray], bool]:
        """Stored or interpolated per-strategy times, and whether they
        were interpolated.  ``None`` when the grid cannot answer: outside
        the hull (not interpolated) or degenerate stored corners."""
        coords = (float(scenario.num_dest_nodes),
                  float(scenario.num_messages),
                  float(scenario.dup_fraction), float(msg_size))
        located = []
        for x, (values, logs, log_axis) in zip(coords, self._axes):
            if len(values) == 1:
                loc = (0, 0.0) if values[0] == x else None
            else:
                loc = _locate(values, logs, x, log_axis)
            if loc is None:
                return None, False
            located.append(loc)
        interp_axes = [a for a, (_i, frac) in enumerate(located)
                       if frac != 0.0]
        if not interp_axes:
            # On-grid: the stored values are the kernel's own outputs.
            i, j, k, l = (i for i, _f in located)  # noqa: E741
            return self._times[:, i, j, k, l], False
        # Multilinear interpolation over the bracketing corners, in
        # log(time) so the blend matches the axes' log-space geometry.
        log_times = np.zeros(self._times.shape[0])
        for corner in range(1 << len(interp_axes)):
            weight = 1.0
            idx = [i for i, _f in located]
            for bit, axis in enumerate(interp_axes):
                frac = located[axis][1]
                if corner >> bit & 1:
                    weight *= frac
                    idx[axis] += 1
                else:
                    weight *= 1.0 - frac
            cell = self._times[(slice(None),) + tuple(idx)]
            if not np.all(cell > 0.0):
                # degenerate stored times (empty cells): interpolation
                # is meaningless here
                return None, True
            log_times += weight * np.log(cell)
        return np.exp(log_times), True

    # -- the query -----------------------------------------------------------
    def lookup(self, scenario: Scenario, msg_size: float) -> AtlasLookup:
        """Answer one query (see the module docstring for semantics)."""
        self._lookups.inc()
        times, interpolated = self._grid_times(scenario, msg_size)
        decision = None if times is None else decide(self._labels, times)
        if decision is None or (interpolated
                                and decision.margin < MARGIN_BAND):
            # outside the hull, or in the frontier band where the
            # interpolated winner may sit on the wrong side of the
            # crossover: evaluate exactly
            if interpolated:
                self._fb_margin.inc()
                source = "exact-margin"
            else:
                self._fb_hull.inc()
                source = "exact-hull"
            times = self._exact_times(scenario, msg_size)
            decision = decide(self._labels, times)
        else:
            self._hits.inc()
            source = "atlas"
        return AtlasLookup(winner=decision.winner,
                           winner_idx=decision.winner_idx,
                           margin=decision.margin, times=times,
                           source=source, interpolated=interpolated)

    def query(self, num_dest_nodes: int, num_messages: int,
              msg_size: float, dup_fraction: float = 0.0) -> AtlasLookup:
        """:meth:`lookup` from plain numbers."""
        return self.lookup(Scenario(num_dest_nodes=int(num_dest_nodes),
                                    num_messages=int(num_messages),
                                    dup_fraction=float(dup_fraction)),
                           float(msg_size))

    def counters(self) -> Dict[str, int]:
        """Current hit/fallback counter values (plain ints)."""
        return {name: self.metrics.counter(name).value
                for name in ("atlas.lookups", "atlas.hits",
                             "atlas.fallbacks.margin",
                             "atlas.fallbacks.hull")}


#: process-wide default indexes for the convenience :func:`lookup`
_DEFAULT_INDEXES: Dict[str, AtlasIndex] = {}


def lookup(machine, scenario: Scenario, msg_size: float) -> AtlasLookup:
    """Library one-liner: ``atlas.lookup(machine, scenario, size)``.

    ``machine`` is a preset name or :class:`MachineSpec`.  The first
    query per machine builds (and memoizes) a default-grid index
    in-process; subsequent queries are pure O(1) lookups.  Serving
    layers wanting an on-disk artifact, custom grids or their own
    metrics registry should construct an :class:`AtlasIndex` directly.
    """
    from repro.atlas.build import build_atlas
    from repro.machine import resolve_machine

    spec = machine if hasattr(machine, "name") else resolve_machine(machine)
    index = _DEFAULT_INDEXES.get(spec.name)
    if index is None:
        index = AtlasIndex(build_atlas(spec))
        _DEFAULT_INDEXES[spec.name] = index
    return index.lookup(scenario, msg_size)
