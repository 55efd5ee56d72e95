"""Performance-regression harness for the simulator itself.

Everything else in this package measures *virtual* time; this subsystem
measures the *wall clock* the simulator spends producing it, so speedups
(or regressions) of the DES kernel and the message-costing hot loop are
visible as numbers instead of anecdotes.

``python -m repro perf`` runs a fixed micro-suite whose workloads assert
their own absolute floors; ``--ledger`` records the timings as a run
ledger.  See :mod:`repro.perf.suite`.
"""

from repro.perf.suite import (
    WorkloadResult,
    default_workloads,
    run_suite,
)

__all__ = [
    "WorkloadResult",
    "default_workloads",
    "run_suite",
]
