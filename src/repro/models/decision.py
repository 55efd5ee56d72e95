"""The one decision rule: which strategy wins.

Every "which strategy wins" in the package is a call to :func:`decide`,
and the candidate rule lives only here:

* a registry row marked ``best_case`` (2-Step 1, an analytic bound with
  no implementation) is never a candidate — the paper circles its
  minima without it (Section 4.6);
* device-aware rows are dropped when ``device_ok`` is False;
* ties go to the earliest label.

Labels outside the registry are plain candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from repro.models.strategies import STRATEGY_SPECS

_ROWS = {spec.label: spec for spec in STRATEGY_SPECS}


@lru_cache(maxsize=64)
def _candidates(labels: Tuple[str, ...], device_ok: bool) -> np.ndarray:
    """Indices of the rows that may win."""
    return np.asarray([i for i, label in enumerate(labels)
                       if label not in _ROWS or not (
                           _ROWS[label].best_case
                           or (_ROWS[label].device_aware and not device_ok))],
                      dtype=np.intp)


@dataclass
class Decision:
    """The winner of one point (``times`` of shape ``(len(labels),)``,
    ``winner_idx`` an int) or of every cell of a grid (``(len(labels),
    *cells)``, ``winner_idx`` an index array); ``-1`` where no label is
    a candidate.  Winner label, runner-up and margin are derived when
    read."""

    labels: Tuple[str, ...]
    times: np.ndarray
    winner_idx: Union[int, np.ndarray]
    _rows: np.ndarray  # candidate row indices

    def _label(self, idx):
        names = self.labels + ("",)  # index -1 reads ""
        if self.times.ndim == 1:
            return names[idx]
        return np.asarray(names, dtype=object)[idx]

    @property
    def winner(self):
        return self._label(self.winner_idx)

    @property
    def runner_up(self):
        rows = self._rows
        if rows.size < 2:
            return self._label(np.full(self.times.shape[1:], -1))
        order = np.argsort(self.times[rows], axis=0, kind="stable")
        return self._label(rows[order[1]])  # ties: earlier label first

    @property
    def margin(self):
        """``(runner_up - winner) / winner`` time: ``inf`` with fewer
        than two candidates, ``0.0`` for a non-positive winner time."""
        rows = self.times[self._rows]
        if len(rows) < 2:
            inf = np.full(self.times.shape[1:], np.inf)
            return float(inf) if self.times.ndim == 1 else inf
        if self.times.ndim == 1:
            best, second = sorted(rows.tolist())[:2]
            return (second - best) / best if best > 0.0 else 0.0
        best, second = np.partition(rows, 1, axis=0)[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(best > 0.0, (second - best) / best, 0.0)


def decide(labels: Sequence[str], times, *,
           device_ok: bool = True) -> Decision:
    """Decide over ``labels`` from ``times`` of shape ``(len(labels),)``
    or ``(len(labels), *cells)``; a grid equals the point decision in
    every cell.  The candidate rows are worked out once per label
    tuple, so a point decision costs one argmin."""
    labels = tuple(labels)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim == 0 or times.shape[0] != len(labels):
        raise ValueError(f"times shape {times.shape} does not lead with "
                         f"{len(labels)} labels")
    rows = _candidates(labels, device_ok)
    if rows.size == len(labels) > 0:  # every row may win: no copy
        idx = times.argmin(axis=0)
    elif rows.size:
        idx = rows[times[rows].argmin(axis=0)]
    else:
        idx = np.full(times.shape[1:], -1, dtype=np.intp)
    return Decision(labels, times, int(idx) if times.ndim == 1 else idx,
                    rows)
