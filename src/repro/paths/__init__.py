"""Declarative hop-plan IR and the shared costing kernel.

Each strategy model compiles ``(pattern summary, machine, layout)``
into a :class:`HopPlan` — an ordered sequence of typed hop stages —
which one stage walk (:func:`evaluate_stages`) costs as a point under
the scalar algebra or as a batch under the array algebra, and which
:mod:`repro.paths.check` cross-checks structurally against the messages
a DES program actually put on the wire.  See ``docs/api.md`` ("Path IR
& costing kernel").
"""

from repro.paths.ir import (
    CheckMode,
    Hop,
    HopKind,
    HopPlan,
    HopStage,
    Serialization,
    StageKind,
)
from repro.paths.kernel import (
    ARRAY_OPS,
    SCALAR_OPS,
    Ops,
    cost_plan,
    evaluate_stages,
    hop_cost,
    stack_plans,
    stage_cost,
)
from repro.paths.compile import (
    as_setup,
    copy_stage,
    device_off_node_stage,
    hierarchical_on_node_stage,
    off_node_stage,
    on_node_stage,
    split_on_node_stage,
)
from repro.paths.check import (
    PhaseProfile,
    assert_plan_matches_trace,
    check_plan_against_trace,
    profile_trace,
)

__all__ = [
    "CheckMode",
    "Hop",
    "HopKind",
    "HopPlan",
    "HopStage",
    "Serialization",
    "StageKind",
    "Ops",
    "SCALAR_OPS",
    "ARRAY_OPS",
    "hop_cost",
    "stage_cost",
    "evaluate_stages",
    "cost_plan",
    "stack_plans",
    "on_node_stage",
    "hierarchical_on_node_stage",
    "split_on_node_stage",
    "off_node_stage",
    "device_off_node_stage",
    "copy_stage",
    "as_setup",
    "PhaseProfile",
    "profile_trace",
    "check_plan_against_trace",
    "assert_plan_matches_trace",
]
