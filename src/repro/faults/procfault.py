"""Process-level fault plans: deterministic crash / hang / raise.

:mod:`repro.faults.plan` injects faults into the *simulated* transport;
this module injects faults into the **real execution fleet** — the
worker processes running a supervised
:func:`~repro.par.executor.sweep_map`.  A :class:`ProcFaultPlan` is a
pure-data schedule mapping ``(task index, run number)`` to an action:

``crash``
    the worker calls ``os._exit`` (no cleanup, no exception transport —
    the parent sees ``BrokenProcessPool``, exactly like an OOM kill),
``hang``
    the worker sleeps ``hang_seconds`` (long past any sane deadline, so
    the supervisor's watchdog must fire),
``raise``
    the task raises an injected :class:`ProcFaultError` (exercising the
    retry → bisect → quarantine path without killing anything).

Schedules are deterministic: a fault either always fires
(``max_runs=None`` — *poison*, e.g. a task that would crash any worker
it lands on) or fires on the first ``max_runs`` evaluations only
(*transient*, e.g. a one-off node failure).  Because run numbers are
tracked per task — not per chunk — the set of tasks a plan ultimately
quarantines is a pure function of the plan, independent of worker
count, chunk geometry, or gather order.  :func:`ProcFaultPlan.sample`
draws a schedule from the ``0xFC``-prefixed seed stream (disjoint from
the transport-fault ``0xFA`` and supervisor-backoff ``0xFB`` streams).

Like every fault plan in :mod:`repro.faults`, instances are frozen,
hashable, picklable (they travel to workers under ``spawn``), and cheap
to evaluate inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: exit status used by injected worker crashes — distinctive enough to
#: grep for in CI logs, and asserted by the crash-consistency tests
PROC_FAULT_EXIT = 87

#: actions a plan can inject (also the quarantine ``reason`` values the
#: supervisor records for them, with ``raise`` surfacing as ``error``)
PROC_FAULT_KINDS = ("crash", "hang", "raise")


class ProcFaultError(RuntimeError):
    """What an injected ``raise`` fault raises inside the worker."""


@dataclass(frozen=True)
class ProcFault:
    """One scheduled fault: ``kind`` fires for task ``index`` on every
    run up to ``max_runs`` (``None`` = every run, i.e. poison)."""

    kind: str
    index: int
    max_runs: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in PROC_FAULT_KINDS:
            raise ValueError(
                f"ProcFault.kind must be one of {PROC_FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.index < 0:
            raise ValueError(
                f"ProcFault.index must be >= 0, got {self.index}")
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError(
                f"ProcFault.max_runs must be >= 1 or None, got "
                f"{self.max_runs}")

    def fires(self, run: int) -> bool:
        """Does this fault fire on the task's ``run``-th evaluation
        (1-based)?"""
        return self.max_runs is None or run <= self.max_runs


@dataclass(frozen=True)
class ProcFaultPlan:
    """A deterministic schedule of process-level faults for one sweep.

    ``action(index, run)`` is what workers consult before evaluating a
    task; the first matching fault wins.  An empty plan is inert and
    free (:attr:`active` is ``False``), mirroring
    :data:`~repro.faults.plan.NO_FAULTS`.
    """

    faults: Tuple[ProcFault, ...] = ()
    hang_seconds: float = 30.0
    exit_code: int = PROC_FAULT_EXIT

    def __post_init__(self) -> None:
        if not self.hang_seconds > 0:
            raise ValueError(
                f"ProcFaultPlan.hang_seconds must be > 0, got "
                f"{self.hang_seconds}")
        if not 0 < self.exit_code < 256:
            raise ValueError(
                f"ProcFaultPlan.exit_code must be in (0, 256), got "
                f"{self.exit_code}")

    @property
    def active(self) -> bool:
        return bool(self.faults)

    def action(self, index: int, run: int) -> Optional[str]:
        """The action to inject for task ``index`` on its ``run``-th
        evaluation (1-based), or ``None`` to run the task normally."""
        for fault in self.faults:
            if fault.index == index and fault.fires(run):
                return fault.kind
        return None

    def poison_indices(self) -> Tuple[int, ...]:
        """Tasks no amount of retrying can save (sorted): the
        deterministic quarantine set any supervised sweep converges to
        when its retry budget exceeds every transient's ``max_runs``."""
        return tuple(sorted(f.index for f in self.faults
                            if f.max_runs is None))

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (chaos reports embed this)."""
        return {
            "faults": [
                {"kind": f.kind, "index": f.index, "max_runs": f.max_runs}
                for f in sorted(self.faults,
                                key=lambda f: (f.index, f.kind))],
            "hang_seconds": self.hang_seconds,
            "exit_code": self.exit_code,
        }

    @staticmethod
    def sample(seed: int, n_tasks: int, *, crashes: int = 1,
               hangs: int = 0, raises: int = 0, poison: int = 0,
               hang_seconds: float = 30.0) -> "ProcFaultPlan":
        """Draw a deterministic schedule over ``n_tasks`` tasks.

        Distinct task indices are assigned to ``crashes`` transient
        crashes, ``hangs`` transient hangs, ``raises`` transient raised
        errors (all ``max_runs=1`` — they clear on retry) and
        ``poison`` persistent raises (quarantine fodder).  The draw
        depends only on ``(seed, n_tasks, counts)``.
        """
        wanted = crashes + hangs + raises + poison
        if wanted > n_tasks:
            raise ValueError(
                f"cannot place {wanted} faults on {n_tasks} task(s)")
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=int(seed), spawn_key=(0xFC,)))
        indices = rng.choice(n_tasks, size=wanted, replace=False)
        faults = []
        cursor = 0
        for kind, count, max_runs in (("crash", crashes, 1),
                                      ("hang", hangs, 1),
                                      ("raise", raises, 1),
                                      ("raise", poison, None)):
            for _ in range(count):
                faults.append(ProcFault(kind=kind,
                                        index=int(indices[cursor]),
                                        max_runs=max_runs))
                cursor += 1
        return ProcFaultPlan(faults=tuple(faults),
                             hang_seconds=hang_seconds)


def parse_proc_fault_spec(spec: str) -> Dict[str, int]:
    """Parse a ``--proc-faults`` spec into :meth:`ProcFaultPlan.sample`
    counts.

    The spec is comma-separated ``kind[=count]`` terms over ``crash``,
    ``hang``, ``raise`` (transient) and ``poison`` (persistent raise):
    ``"crash=2,raise"`` means two transient crashes and one transient
    raise.  A bare kind means count 1.
    """
    counts = {"crashes": 0, "hangs": 0, "raises": 0, "poison": 0}
    by_name = {"crash": "crashes", "hang": "hangs", "raise": "raises",
               "poison": "poison"}
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        name, _, value = term.partition("=")
        name = name.strip()
        if name not in by_name:
            raise ValueError(
                f"unknown proc-fault kind {name!r} (expected one of "
                f"{sorted(by_name)})")
        try:
            count = int(value) if value.strip() else 1
        except ValueError:
            raise ValueError(
                f"proc-fault count for {name!r} must be an integer, "
                f"got {value.strip()!r}") from None
        if count < 0:
            raise ValueError(
                f"proc-fault count for {name!r} must be >= 0, got "
                f"{count}")
        counts[by_name[name]] += count
    return counts


#: the inert schedule (kept for symmetry with ``NO_FAULTS``)
NO_PROC_FAULTS = ProcFaultPlan()
