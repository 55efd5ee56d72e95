"""Deterministic fault injection and resilience semantics.

Public surface:

* :class:`FaultPlan` and its fault specs (:class:`LinkDegradation`,
  :class:`Straggler`, :class:`MessageLoss`, :class:`DeviceOutage`,
  :class:`RetryPolicy`, :class:`Pacing`) — pure data, fork-able.
* :data:`NO_FAULTS` — the inert default plan.
* :class:`DeliveryError` — raised when a message exhausts its
  retransmit budget.

The chaos harness lives in :mod:`repro.faults.chaos` and is imported
lazily by the CLI (it pulls in :mod:`repro.core`, which depends on the
transport, which depends on this package).
"""

from repro.faults.errors import DeliveryError
from repro.faults.plan import (
    NO_FAULTS,
    DeviceOutage,
    FaultPlan,
    LinkDegradation,
    MessageLoss,
    NoFaults,
    Pacing,
    RetryPolicy,
    Straggler,
)

__all__ = [
    "DeliveryError",
    "DeviceOutage",
    "FaultPlan",
    "LinkDegradation",
    "MessageLoss",
    "NoFaults",
    "NO_FAULTS",
    "Pacing",
    "RetryPolicy",
    "Straggler",
]
