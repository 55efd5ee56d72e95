"""Model-guided strategy selection.

:func:`select_strategy` evaluates the Table-6 analytic models on a
pattern's summary and returns the strategy implementation predicted
fastest — the paper's intended workflow for choosing a communication
scheme per workload and machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import CommunicationStrategy
from repro.core.pattern import CommPattern
from repro.machine.topology import JobLayout
from repro.models.decision import decide
from repro.models.strategies import (
    STRATEGY_SPECS,
    StrategyModel,
    spec_by_label,
)

#: label -> registry row, for every strategy with a DES implementation.
#: Derived from the single source of truth in
#: :data:`repro.models.strategies.STRATEGY_SPECS` — the analytic bounds
#: without implementations (2-Step 1) are model-sweep-only and excluded
#: here.
_REGISTRY = {spec.label: spec for spec in STRATEGY_SPECS if spec.has_impl}


def _spec(label: str):
    try:
        return _REGISTRY[label]
    except KeyError:
        raise KeyError(
            f"unknown strategy {label!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_strategies(include_extended: bool = True
                   ) -> List[CommunicationStrategy]:
    """One instance of every registered strategy implementation.

    ``include_extended=False`` restricts to the paper's Table-5 set,
    dropping the hierarchy-aware families (3-Step H, Neighbor P,
    ML 3-Step) — paper-figure reproductions use that subset so their
    goldens match the publication exactly.
    """
    return [spec.impl_factory()() for spec in _REGISTRY.values()
            if include_extended or not spec.extended]


def strategy_by_name(label: str) -> CommunicationStrategy:
    """Instantiate a strategy by its display label.

    Accepts either the full label (``"3-Step (staged)"``) or the bare
    name when unambiguous is not required (must include the data path).
    """
    return _spec(label).impl_factory()()


def model_for(label: str, machine, ppn: Optional[int] = None,
              message_cap: Optional[int] = None) -> StrategyModel:
    """The Table-6 analytic model paired with a strategy label."""
    spec = spec_by_label(label)
    return spec.model_cls(machine, ppn=ppn, message_cap=message_cap)


def compile_plan_for(label: str, pattern: CommPattern, layout: JobLayout,
                     ppn: Optional[int] = None,
                     message_cap: Optional[int] = None):
    """Compile a strategy's :class:`repro.paths.HopPlan` for a pattern.

    This is the registry-level bridge between a DES implementation and
    its analytic model: the plan is compiled from the *same* pattern
    summary the model costs, and the implementation's declared
    ``trace_phases`` must all be realized by a plan stage or excused by
    the model's ``uncosted_phases`` — so a plan returned here is, by
    construction, checkable against a message trace of the matching
    implementation (:func:`repro.paths.check_plan_against_trace`).
    """
    model = model_for(label, layout.machine,
                      ppn=ppn if ppn is not None else layout.ppn,
                      message_cap=message_cap)
    plan = model.compile_plan(pattern.summarize(layout))
    impl = strategy_by_name(label)
    covered = set(plan.phases) | set(plan.uncosted_phases)
    missing = [p for p in impl.trace_phases if p not in covered]
    if missing:
        raise ValueError(
            f"{label}: implementation lanes {missing} are neither costed "
            f"by a plan stage nor listed in uncosted_phases")
    return plan


def predict_times(pattern: CommPattern, layout: JobLayout,
                  ppn: Optional[int] = None,
                  message_cap: Optional[int] = None) -> Dict[str, float]:
    """Modelled time per strategy label for this pattern on this layout."""
    summary = pattern.summarize(layout)
    out: Dict[str, float] = {}
    for label, spec in _REGISTRY.items():
        model: StrategyModel = spec.model_cls(
            layout.machine, ppn=ppn if ppn is not None else layout.ppn,
            message_cap=message_cap)
        out[label] = model.time(summary)
    return out


def select_strategy(pattern: CommPattern, layout: JobLayout,
                    ppn: Optional[int] = None,
                    message_cap: Optional[int] = None,
                    staged_only: bool = False,
                    transport=None
                    ) -> Tuple[CommunicationStrategy, Dict[str, float]]:
    """Pick the model-predicted fastest strategy for ``pattern``.

    Returns ``(strategy instance, {label: predicted time})``.  Set
    ``staged_only=True`` on systems without device-aware MPI support.
    Passing the job's ``transport`` lets the selector re-rank under an
    active fault plan: while a copy-engine outage makes the device path
    unhealthy (``transport.device_path_ok()`` is False), device-aware
    candidates are excluded exactly as with ``staged_only`` — they would
    only degrade to their staged twins at run time anyway.  The pick is
    :func:`~repro.models.decision.decide`'s.
    """
    times = predict_times(pattern, layout, ppn=ppn, message_cap=message_cap)
    degraded = transport is not None and not transport.device_path_ok()
    best = decide(times.keys(), list(times.values()),
                  device_ok=not (staged_only or degraded)).winner
    return strategy_by_name(best), times
