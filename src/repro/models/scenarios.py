"""Section 4.6 scenario generation (Figure 4.3).

A *scenario* is the paper's synthetic workload: a single node sends
``num_messages`` inter-node messages (32 or 256), distributed evenly
across its on-node GPUs, to ``num_dest_nodes`` destination nodes (4 or
16); the per-message size sweeps the x-axis.  The bottom rows of
Figure 4.3 repeat the sweep with 25 % of the data flagged duplicate
(removed by the node-aware strategies, retained by standard).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.topology import MachineSpec
from repro.models.decision import decide
from repro.models.pattern_summary import PatternSummary, SummaryBatch
from repro.models.strategies import (
    StrategyModel,
    all_strategy_models,
    model_label,
)
from repro.par.cache import ResultCache, cache_key
from repro.par.executor import resolve_jobs, sweep_map


@dataclass(frozen=True)
class Scenario:
    """One Figure-4.3 panel configuration."""

    num_dest_nodes: int    # 4 or 16 in the paper
    num_messages: int      # 32 or 256 in the paper
    dup_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_dest_nodes < 1:
            raise ValueError("num_dest_nodes must be >= 1")
        if self.num_messages < self.num_dest_nodes:
            raise ValueError(
                "need at least one message per destination node "
                f"({self.num_messages} msgs < {self.num_dest_nodes} nodes)"
            )
        if not 0.0 <= self.dup_fraction < 1.0:
            raise ValueError("dup_fraction must be in [0, 1)")

    @property
    def label(self) -> str:
        dup = f", {self.dup_fraction:.0%} dup" if self.dup_fraction else ""
        return (f"{self.num_messages} msgs -> {self.num_dest_nodes} nodes"
                f"{dup}")


#: The four panels of Figure 4.3 (dup variants are derived per sweep).
PAPER_SCENARIOS = (
    Scenario(num_dest_nodes=4, num_messages=32),
    Scenario(num_dest_nodes=4, num_messages=256),
    Scenario(num_dest_nodes=16, num_messages=32),
    Scenario(num_dest_nodes=16, num_messages=256),
)


def _check_sizes(sizes: np.ndarray) -> None:
    """Raise ``ValueError`` unless every size lies in ``[0, inf)``.

    Written as "not inside" because NaN fails every comparison:
    ``nan < 0`` is false and used to pass.
    """
    ok = (sizes >= 0) & (sizes < np.inf)
    if not ok.all():
        raise ValueError(
            f"msg sizes must be >= 0 and finite, got {sizes[~ok].flat[0]!r}")


def scenario_summary(machine: MachineSpec, scenario: Scenario,
                     msg_size: float) -> PatternSummary:
    """Table-7 quantities for one scenario at one message size.

    Messages are distributed evenly over destination nodes and over the
    sending node's GPUs, as in the paper's construction.
    """
    if not 0 <= msg_size < np.inf:  # NaN fails both comparisons
        raise ValueError(
            f"msg_size must be >= 0 and finite, got {msg_size!r}")
    gpn = max(machine.gpus_per_node, 1)
    n = scenario.num_dest_nodes
    m = scenario.num_messages
    per_pair = m / n
    per_proc = m / gpn
    return PatternSummary(
        num_dest_nodes=n,
        messages_per_node_pair=int(np.ceil(per_pair)),
        bytes_per_node_pair=per_pair * msg_size,
        node_bytes=m * msg_size,
        proc_bytes=per_proc * msg_size,
        proc_messages=int(np.ceil(per_proc)),
        proc_dest_nodes=min(n, int(np.ceil(per_proc)) if per_proc else 0),
        active_gpus=gpn,  # messages spread evenly across on-node GPUs
    )


def scenario_summary_batch(machine: MachineSpec, scenario: Scenario,
                           sizes: Sequence[float]) -> SummaryBatch:
    """Batched :func:`scenario_summary` over a size sweep.

    Field-wise identical to building one summary per size: counts are
    size-independent, byte quantities scale linearly with the same
    multiplications as the scalar constructor.
    """
    msg_size = np.asarray(sizes, dtype=float)
    _check_sizes(msg_size)
    gpn = max(machine.gpus_per_node, 1)
    n = scenario.num_dest_nodes
    m = scenario.num_messages
    per_pair = m / n
    per_proc = m / gpn
    shape = msg_size.shape
    return SummaryBatch(
        num_dest_nodes=np.full(shape, n, dtype=int),
        messages_per_node_pair=np.full(shape, int(np.ceil(per_pair)),
                                       dtype=int),
        bytes_per_node_pair=per_pair * msg_size,
        node_bytes=m * msg_size,
        proc_bytes=per_proc * msg_size,
        proc_messages=np.full(shape, int(np.ceil(per_proc)), dtype=int),
        proc_dest_nodes=np.full(
            shape, min(n, int(np.ceil(per_proc)) if per_proc else 0),
            dtype=int),
        active_gpus=np.full(shape, gpn, dtype=int),
    )


def _joint_scenario_batch(machine: MachineSpec,
                          scenarios: Sequence[Scenario],
                          sizes: np.ndarray,
                          ) -> Tuple[SummaryBatch, np.ndarray]:
    """One flat ``(scenarios x sizes)`` batch plus its keep-fraction row.

    Field ``c * len(sizes) + z`` holds scenario ``c`` at size ``z`` —
    field-wise the concatenation of :func:`scenario_summary_batch` over
    the scenarios (same factor times the same size per element, counts
    repeated), so every cost is bit-identical to evaluating the
    scenarios one at a time.  ``keep`` carries ``1.0 - dup_fraction``
    per element for the node-aware byte scaling.
    """
    _check_sizes(sizes)
    gpn = max(machine.gpus_per_node, 1)
    n = np.array([sc.num_dest_nodes for sc in scenarios], dtype=int)
    m = np.array([sc.num_messages for sc in scenarios], dtype=int)
    per_proc = np.ceil(m / gpn).astype(int)

    def counts(per_scenario) -> np.ndarray:
        return np.repeat(per_scenario, sizes.size)

    def volumes(per_scenario) -> np.ndarray:
        return np.multiply.outer(per_scenario, sizes).ravel()

    joint = SummaryBatch(
        num_dest_nodes=counts(n),
        messages_per_node_pair=counts(np.ceil(m / n).astype(int)),
        bytes_per_node_pair=volumes(m / n),
        node_bytes=volumes(m.astype(float)),
        proc_bytes=volumes(m / gpn),
        proc_messages=counts(per_proc),
        proc_dest_nodes=counts(np.minimum(n, per_proc)),
        active_gpus=np.full(n.size * sizes.size, gpn, dtype=int),
    )
    keep = counts(np.array([1.0 - sc.dup_fraction for sc in scenarios]))
    return joint, keep


def fused_scenario_times(machine: MachineSpec,
                         scenarios: Sequence[Scenario],
                         sizes: Sequence[float],
                         models: Optional[List[StrategyModel]] = None,
                         include_extended: bool = False,
                         ) -> Tuple[List[str], np.ndarray]:
    """All (strategy, scenario, size) cells through the one stage walk.

    Returns ``(labels, times)`` with ``times`` of shape
    ``(len(models), len(scenarios), len(sizes))``.  This is the one
    place the operand algebra is chosen, and only from the shape of the
    request: exactly one cell is a point and takes the scalar walk
    (:meth:`StrategyModel.time`); anything else is a batch and each
    model walks its stages once over the joint batch
    (:meth:`StrategyModel.time_sweep`).  A cell costs the same bits
    either way:

    * node-aware duplicate removal multiplies the joint byte fields by
      the per-element keep row (``x * 1.0`` is a bitwise no-op for the
      dup-free scenarios, the scalar keep factor elsewhere);
    * empty cells are 0.0 on both sides.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if models is None:
        models = all_strategy_models(machine,
                                     include_extended=include_extended)
    labels = [model_label(m) for m in models]
    if len(scenarios) == 1 and sizes.size == 1:
        _check_sizes(sizes)  # the batch side's check, so its error text
        scenario, = scenarios
        summary = scenario_summary(machine, scenario, float(sizes.flat[0]))
        rows = [m.time(summary, scenario.dup_fraction) for m in models]
    else:
        joint, keep = _joint_scenario_batch(machine, scenarios, sizes)
        dedup = joint
        if np.any(keep != 1.0):
            dedup = replace(
                joint,
                bytes_per_node_pair=joint.bytes_per_node_pair * keep,
                node_bytes=joint.node_bytes * keep,
                proc_bytes=joint.proc_bytes * keep,
            )
        rows = [m.time_sweep(dedup if m.node_aware else joint)
                for m in models]
    times = np.array(rows, dtype=np.float64)
    return labels, times.reshape(len(models), len(scenarios), sizes.size)


def sweep_scenario(machine: MachineSpec, scenario: Scenario,
                   sizes: Sequence[float],
                   models: Optional[List[StrategyModel]] = None,
                   include_extended: bool = False,
                   ) -> Dict[str, np.ndarray]:
    """Modelled time per strategy over a message-size sweep.

    Returns ``{strategy label: times}`` with one entry per model, each a
    float array aligned with ``sizes``, from
    :func:`fused_scenario_times` (bit-identical to point-wise
    :meth:`StrategyModel.time` calls).
    """
    labels, times = fused_scenario_times(machine, [scenario], sizes, models,
                                         include_extended=include_extended)
    return {label: times[i, 0] for i, label in enumerate(labels)}


def _sweep_scenario_shard(spec) -> Dict[str, np.ndarray]:
    """Module-level worker for :func:`sweep_scenarios` (picklable)."""
    machine, scenario, sizes, include_extended = spec
    return sweep_scenario(machine, scenario,
                          np.asarray(sizes, dtype=np.float64),
                          include_extended=include_extended)


def scenario_sweep_key(machine: MachineSpec, scenario: Scenario,
                       sizes: Sequence[float],
                       include_extended: bool = False) -> str:
    """Content hash of one scenario sweep (default model registry).

    The extended model set hashes into a distinct namespace so paper
    sweeps and extended sweeps never share cache entries (and existing
    paper-set cache keys are unchanged).
    """
    tag = "scenario-sweep-ext" if include_extended else "scenario-sweep"
    return cache_key(tag, machine=machine, scenario=scenario,
                     sizes=np.asarray(sizes, dtype=np.float64))


def sweep_scenarios(machine: MachineSpec, scenarios: Sequence[Scenario],
                    sizes: Sequence[float],
                    jobs: Optional[int] = None,
                    cache: Optional[ResultCache] = None,
                    stats=None,
                    policy=None,
                    journal_dir=None,
                    resume: bool = False,
                    include_extended: bool = False,
                    ) -> List[Dict[str, np.ndarray]]:
    """:func:`sweep_scenario` over many scenarios, optionally fanned out.

    Returns one ``{strategy label: times}`` dict per scenario, aligned
    with ``scenarios`` and bit-identical to the serial loop at any
    ``jobs`` value (ordered gather).  ``cache`` skips scenarios whose
    (machine, scenario, sizes) content hash already has a result.
    Always evaluates the default model registry (plus the
    hierarchy-aware families when ``include_extended=True``) — callers
    needing a custom model list use :func:`sweep_scenario` directly.

    The serial, uncached path evaluates *all* scenarios as one joint
    batch (the stage walk is elementwise, so the joint evaluation is
    bit-identical to per-scenario shards);
    with workers or a cache the per-scenario sharding is kept so cache
    keys and fan-out granularity are unchanged.

    ``stats`` (a :class:`repro.par.SweepStats`) collects sweep
    telemetry; the joint serial path fills in the same deterministic
    shard totals :func:`repro.par.sweep_map` would, so run ledgers stay
    byte-identical across worker counts.

    ``policy`` / ``journal_dir`` / ``resume`` set the sweep's watchdog
    deadline and checkpoint journal (see :func:`repro.par.sweep_map`);
    any of them disables the joint fast path so they actually apply
    per shard.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    supervised = policy is not None or journal_dir is not None or resume
    if (resolve_jobs(jobs) == 1 and cache is None and not supervised
            and len(scenarios) > 0):
        models = all_strategy_models(machine,
                                     include_extended=include_extended)
        if stats is not None:
            stats.tasks = stats.executed = len(scenarios)
            stats.cache_hits = 0
            stats.jobs = 1
        labels, times = fused_scenario_times(machine, scenarios, sizes,
                                             models)
        return [{label: times[i, c] for i, label in enumerate(labels)}
                for c in range(len(scenarios))]
    tasks = [(machine, sc, sizes, include_extended) for sc in scenarios]
    return sweep_map(
        _sweep_scenario_shard, tasks, jobs=jobs, cache=cache,
        key_fn=(lambda t: scenario_sweep_key(t[0], t[1], t[2], t[3]))
        if cache is not None else None, stats=stats,
        policy=policy, journal_dir=journal_dir, resume=resume)


def best_strategy_sweep(machine: MachineSpec, scenario: Scenario,
                        sizes: Sequence[float],
                        models: Optional[List[StrategyModel]] = None,
                        include_extended: bool = False) -> List[str]:
    """Winning strategy label at every size of a sweep.

    The winner is :func:`~repro.models.decision.decide`'s: the 2-Step 1
    bounds never win (so the default model set leaves them out), and
    ties resolve to the earliest model in registry order.
    """
    if models is None:
        models = all_strategy_models(machine, include_best_case=False,
                                     include_extended=include_extended)
    if not models:
        return ["" for _ in sizes]
    labels, times = fused_scenario_times(machine, [scenario], sizes, models)
    return decide(labels, times[:, 0, :]).winner.tolist()


def best_strategy(machine: MachineSpec, scenario: Scenario, msg_size: float,
                  models: Optional[List[StrategyModel]] = None,
                  include_extended: bool = False) -> str:
    """Label of the winning strategy at one point (see
    :func:`best_strategy_sweep`)."""
    return best_strategy_sweep(machine, scenario, [msg_size], models,
                               include_extended=include_extended)[0]
