"""``stack_plans`` selects protocols once, over the whole tensor.

The oracle is the per-slot selection ``stack_plans`` used to do — an
``np.select`` over the scalar threshold chain for every real send hop,
tier scales multiplied in afterwards — kept here as the reference the
whole-tensor ``select_links`` pass must reproduce bit for bit, NaN
sizes and protocol limits included.  The budget test pins what a
width-1 (point-decision) stack may cost.
"""

import dataclasses

import numpy as np
import pytest

from repro.machine import resolve_machine
from repro.machine.locality import Protocol, TransportKind
from repro.machine.params import CommParams
from repro.models.scenarios import PAPER_SCENARIOS, scenario_summary
from repro.models.strategies import all_strategy_models
from repro.models.vectorized import SummaryBatch
from repro.paths import stack_plans
from repro.paths.ir import HopKind

MACHINES = ["lassen", "summit", "frontier_like"]


def _reference_links(machine, hop, sizes):
    """Per-slot ``(alpha, beta)`` the way the hop loop used to pick them."""
    params, th = machine.comm_params, machine.comm_params.thresholds
    kind = hop.kind.transport_kind
    if kind is TransportKind.GPU:
        protocols = (Protocol.EAGER, Protocol.RENDEZVOUS)
        conds = [sizes <= th.gpu_eager_limit]
    else:
        protocols = (Protocol.SHORT, Protocol.EAGER, Protocol.RENDEZVOUS)
        conds = [sizes <= th.short_limit, sizes <= th.eager_limit]
    links = [params.link(kind, p, hop.locality) for p in protocols]
    last_alpha = (params.link(kind, Protocol.EAGER, hop.locality).alpha
                  if hop.pre_posted else links[-1].alpha)
    alpha = np.select(conds, [l.alpha for l in links[:-1]],
                      default=last_alpha)
    beta = np.select(conds, [l.beta for l in links[:-1]],
                     default=links[-1].beta)
    if hop.tier is not None:
        tier = machine.locality_hierarchy[hop.tier]
        if tier.alpha_scale != 1.0:
            alpha = tier.alpha_scale * alpha
        if tier.beta_scale != 1.0:
            beta = tier.beta_scale * beta
    return alpha, beta


def _assert_links_match_reference(machine, plans, fused):
    seen = np.zeros(fused.shape[:3], dtype=bool)
    for s, plan in enumerate(plans):
        for t, stage in enumerate(plan.stages):
            for h, hop in enumerate(stage.hops):
                seen[s, t, h] = True
                if hop.kind is HopKind.MEMCPY:
                    link = machine.copy_params.link(hop.direction, hop.nproc)
                    alpha, beta = link.alpha, link.beta
                else:
                    alpha, beta = _reference_links(machine, hop,
                                                   fused.nbytes[s, t, h])
                where = (plan.strategy, stage.label, h)
                assert np.array_equal(fused.alpha[s, t, h], np.broadcast_to(
                    alpha, fused.shape[3:])), where
                assert np.array_equal(fused.beta[s, t, h], np.broadcast_to(
                    beta, fused.shape[3:])), where
    # padded slots cost exactly +0.0
    assert not fused.alpha[~seen].any() and not fused.beta[~seen].any()
    assert fused.alpha.dtype == fused.beta.dtype == np.float64


def _limit_sizes(machine):
    """Sizes that put individual messages on and around every limit."""
    th = machine.comm_params.thresholds
    limits = {float(th.short_limit), float(th.eager_limit),
              float(th.gpu_eager_limit)}
    sizes = [8.0, 1e7]
    for limit in limits:
        sizes += [np.nextafter(limit, -np.inf), limit,
                  np.nextafter(limit, np.inf)]
    return sizes


def _plans(machine, sizes):
    batch = SummaryBatch.from_summaries(
        [scenario_summary(machine, sc, float(size))
         for sc in PAPER_SCENARIOS for size in sizes])
    models = all_strategy_models(machine, include_extended=True)
    return [m.compile_plan_batch(batch) for m in models]


def _with_first_send_size(plan, poke):
    """``plan`` with ``poke`` applied to its first send hop's sizes."""
    for t, stage in enumerate(plan.stages):
        for h, hop in enumerate(stage.hops):
            if hop.kind is not HopKind.MEMCPY:
                nbytes = np.array(hop.nbytes, dtype=float)
                poke(nbytes)
                hops = list(stage.hops)
                hops[h] = dataclasses.replace(hop, nbytes=nbytes)
                stages = list(plan.stages)
                stages[t] = dataclasses.replace(stage, hops=tuple(hops))
                return dataclasses.replace(plan, stages=tuple(stages))
    raise AssertionError(f"{plan.strategy} has no send hop")


@pytest.mark.parametrize("machine_name", MACHINES)
def test_whole_tensor_selection_matches_per_slot_select(machine_name):
    machine = resolve_machine(machine_name)
    plans = _plans(machine, _limit_sizes(machine))
    _assert_links_match_reference(machine, plans, stack_plans(machine, plans))


@pytest.mark.parametrize("machine_name", MACHINES)
def test_nan_size_resolves_to_the_rendezvous_pair(machine_name):
    machine = resolve_machine(machine_name)
    plans = _plans(machine, [8.0, 4096.0, 1e6])

    def poke(nbytes):
        nbytes[..., 0] = np.nan

    plans = [_with_first_send_size(p, poke) for p in plans]
    fused = stack_plans(machine, plans)
    assert np.isnan(fused.nbytes).any()
    _assert_links_match_reference(machine, plans, fused)


def test_negative_send_size_still_raises():
    machine = resolve_machine("lassen")
    plans = _plans(machine, [8.0, 4096.0])

    def poke(nbytes):
        nbytes[..., -1] = -1.0

    plans[-1] = _with_first_send_size(plans[-1], poke)
    with pytest.raises(ValueError, match="message sizes must be >= 0"):
        stack_plans(machine, plans)


def test_point_stack_budget(monkeypatch):
    """The paper models on lassen at N = 1: no ``np.select``, one
    table resolution per distinct (kind, locality, pre_posted, tier)."""
    machine = resolve_machine("lassen")
    summary = scenario_summary(machine, PAPER_SCENARIOS[1], 4096.0)
    plans = [m.compile_plan(summary) for m in all_strategy_models(machine)]
    distinct = {(hop.kind, hop.locality, hop.pre_posted, hop.tier)
                for plan in plans for stage in plan.stages
                for hop in stage.hops if hop.kind is not HopKind.MEMCPY}

    selects, resolutions = [], []
    real_select, real_table = np.select, CommParams.link_table

    def counting_select(*args, **kwargs):
        selects.append(args)
        return real_select(*args, **kwargs)

    def counting_table(self, *args, **kwargs):
        resolutions.append(args)
        return real_table(self, *args, **kwargs)

    monkeypatch.setattr(np, "select", counting_select)
    monkeypatch.setattr(CommParams, "link_table", counting_table)
    fused = stack_plans(machine, plans)
    assert fused.shape[3] == 1
    assert not selects
    assert len(resolutions) <= len(distinct)
