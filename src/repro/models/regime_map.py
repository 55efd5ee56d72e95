"""Regime maps: which strategy wins where.

Produces the paper's Figure-4.3 content as a 2-D winner map over
(message size x destination-node count), with an ASCII renderer for
terminal inspection — the at-a-glance summary of when to switch
strategies on a given machine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.machine.topology import MachineSpec
from repro.models.decision import decide
from repro.models.scenarios import Scenario, fused_scenario_times
from repro.models.strategies import all_strategy_models

#: curated short codes for the paper's strategy families; labels outside
#: this table get a code *derived* from the label (see :func:`short_code`)
#: so new strategy families render without editing this dict
_CODES = {
    "Standard (staged)": "St/S",
    "Standard (device-aware)": "St/D",
    "3-Step (staged)": "3S/S",
    "3-Step (device-aware)": "3S/D",
    "2-Step (staged)": "2S/S",
    "2-Step (device-aware)": "2S/D",
    "2-Step 1 (staged)": "21/S",
    "2-Step 1 (device-aware)": "21/D",
    "Split + MD (staged)": "MD/S",
    "Split + DD (staged)": "DD/S",
    "3-Step H (staged)": "3H/S",
    "3-Step H (device-aware)": "3H/D",
    "Neighbor P (staged)": "NP/S",
    "Neighbor P (device-aware)": "NP/D",
    "ML 3-Step (staged)": "ML/S",
}


def short_code(label: str) -> str:
    """Deterministic compact code for a strategy label.

    Curated labels come straight from :data:`_CODES`; any other label —
    e.g. a new strategy family — derives its code from its own text
    (name initials + data-path initial), so regime maps and atlas
    renderings never show a placeholder for unknown strategies.
    """
    known = _CODES.get(label)
    if known is not None:
        return known
    if not label:
        return "--"
    name, _sep, variant = label.partition("(")
    variant = variant.rstrip(")").strip()
    tokens = [t for t in re.split(r"[\s+\-/_]+", name.strip()) if t]
    if not tokens:
        head = "--"
    elif len(tokens) == 1:
        head = tokens[0][:2].capitalize()
    else:
        head = (tokens[0][0] + tokens[-1][0]).upper()
    return f"{head}/{variant[0].upper()}" if variant else head


@dataclass
class RegimeMap:
    """Winner per (node count, message size) grid cell.

    ``winners`` holds the full labels for human consumption;
    ``labels`` + ``winners_idx`` are the array view of the same data
    (``winners[i][j] == labels[winners_idx[i, j]]``) that the atlas
    builder consumes directly, and ``times`` (kept on request) is the
    per-strategy modelled-time tensor behind the argmin.
    """

    machine: str
    num_messages: int
    dup_fraction: float
    node_counts: List[int]
    sizes: List[float]
    winners: List[List[str]]  # [node_idx][size_idx] full labels
    #: evaluated model labels in registry order (indexes ``winners_idx``)
    labels: List[str] = field(default_factory=list)
    #: ``(len(node_counts), len(sizes))`` argmin indices into ``labels``
    winners_idx: Optional[np.ndarray] = None
    #: ``(len(labels), len(node_counts), len(sizes))`` modelled times,
    #: populated by ``compute_regime_map(..., keep_times=True)``
    times: Optional[np.ndarray] = None

    def code(self, node_idx: int, size_idx: int) -> str:
        return short_code(self.winners[node_idx][size_idx])

    def distinct_winners(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.winners:
            for label in row:
                seen.setdefault(label)
        return list(seen)


def compute_regime_map(machine: MachineSpec,
                       sizes: Optional[Sequence[float]] = None,
                       node_counts: Sequence[int] = (2, 4, 8, 16, 32),
                       num_messages: int = 256,
                       dup_fraction: float = 0.0,
                       include_extended: bool = False,
                       keep_times: bool = False) -> RegimeMap:
    """Evaluate the Table-6 models over a (nodes x size) grid.

    The model registry (and its labels) is built once for the whole
    grid, and every model walks its stages once over all (node-count
    row, size) cells.  The 2-Step 1 bounds, which never win
    (:func:`~repro.models.decision.decide`), are not evaluated.  The
    winner grid is carried both as labels (``winners``) and as the
    ``winners_idx`` index array; ``keep_times=True`` additionally
    retains the full ``(model, node, size)`` time tensor (the atlas
    builder stores it).  ``include_extended=True`` lets the
    hierarchy-aware families (3-Step H, Neighbor P, ML 3-Step) compete;
    the default keeps the paper's Table-5 competitor set.
    """
    if sizes is None:
        sizes = list(np.logspace(1, 6, 11))
    models = all_strategy_models(machine, include_best_case=False,
                                 include_extended=include_extended)
    scenarios = [
        Scenario(num_dest_nodes=int(nodes),
                 num_messages=max(num_messages, int(nodes)),
                 dup_fraction=dup_fraction)
        for nodes in node_counts
    ]
    labels: List[str] = []
    times = np.empty((0, len(scenarios), len(sizes)))
    if scenarios:
        labels, times = fused_scenario_times(
            machine, scenarios, [float(s) for s in sizes], models)
    decision = decide(labels, times)
    return RegimeMap(
        machine=machine.name,
        num_messages=num_messages,
        dup_fraction=dup_fraction,
        node_counts=[int(n) for n in node_counts],
        sizes=[float(s) for s in sizes],
        winners=decision.winner.tolist(),
        labels=labels,
        winners_idx=decision.winner_idx,
        times=times if scenarios and keep_times else None,
    )


def render_regime_map(rm: RegimeMap) -> str:
    """ASCII winner map (rows: node counts, columns: message sizes)."""
    header = (f"Regime map — {rm.machine}, {rm.num_messages} messages"
              + (f", {rm.dup_fraction:.0%} duplicate data removed"
                 if rm.dup_fraction else ""))
    lines = [header]
    size_row = "nodes\\size " + " ".join(
        f"{s:>7.0f}" if s < 1e5 else f"{s:>7.0e}" for s in rm.sizes)
    lines.append(size_row)
    for i, nodes in enumerate(rm.node_counts):
        cells = " ".join(f"{rm.code(i, j):>7s}" for j in range(len(rm.sizes)))
        lines.append(f"{nodes:>10d} {cells}")
    winners = rm.distinct_winners()
    ordered = [label for label in _CODES if label in winners]
    ordered += [label for label in winners if label not in _CODES]
    legend = ", ".join(f"{short_code(label)}={label}" for label in ordered)
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
