"""Property-based invariants of the strategy models (hypothesis).

Derandomized: the examples are a fixed function of each test, so a
tier-1 run cannot pass or fail by the draw.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.machine import lassen
from repro.machine.params import select_links
from repro.models import PatternSummary, all_strategy_models
from repro.models.strategies import model_label
from repro.paths.ir import HopKind, Serialization

M = lassen()
MODELS = all_strategy_models(M)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def summaries(draw):
    n_dest = draw(st.integers(min_value=1, max_value=64))
    mpp = draw(st.integers(min_value=1, max_value=64))
    bpp = draw(st.floats(min_value=8.0, max_value=1e7))
    node_factor = draw(st.floats(min_value=1.0, max_value=float(n_dest)))
    node_bytes = bpp * node_factor
    proc_bytes = draw(st.floats(min_value=8.0, max_value=node_bytes))
    proc_msgs = draw(st.integers(min_value=1, max_value=mpp * n_dest))
    active = draw(st.integers(min_value=1, max_value=4))
    return PatternSummary(
        num_dest_nodes=n_dest,
        messages_per_node_pair=mpp,
        bytes_per_node_pair=bpp,
        node_bytes=node_bytes,
        proc_bytes=proc_bytes,
        proc_messages=proc_msgs,
        proc_dest_nodes=min(n_dest, proc_msgs),
        active_gpus=active,
    )


@SETTINGS
@given(summary=summaries())
def test_models_finite_positive(summary):
    for model in MODELS:
        t = model.time(summary)
        assert np.isfinite(t) and t > 0, model_label(model)


def _send_terms(plan):
    """Per enabled send hop: what multiplies its Table-2 alpha and beta,
    and the ``(alpha, beta)`` the link table gives its message size."""
    terms = []
    for stage in plan.stages:
        scale = stage.repeat / stage.amortize_over
        for hop in stage.hops:
            if hop.kind is HopKind.MEMCPY or not hop.enabled:
                continue
            assert hop.tier is None  # the paper models on lassen are flat
            row = M.comm_params.link_table(hop.kind.transport_kind,
                                           hop.locality, hop.pre_posted)
            volume = (hop.total_bytes
                      if hop.serialization is Serialization.MAX_RATE
                      else hop.count * hop.nbytes)
            terms.append((scale * hop.count, scale * volume,
                          *select_links(row, hop.nbytes)))
    return terms


def _protocol_switch_allowance(model, summary, bigger):
    """How much growing ``summary`` to ``bigger`` may *lower* the time.

    Nothing while every hop keeps its link-table pair.  A hop whose
    messages cross a protocol limit trades one ``(alpha, beta)`` for the
    next, and the table is not monotone across its limits (lassen:
    eager undercuts short at 512 B on-node, rendezvous undercuts eager
    at 8 KiB GPU on-node), so such a hop can drop by at most what the
    table takes off its alpha and beta, weighted by the smaller plan's
    message count and volume.
    """
    small, big = (_send_terms(model.compile_plan(s))
                  for s in (summary, bigger))
    assert len(small) == len(big), model_label(model)
    return sum(w_alpha * max(0.0, a0 - a1) + w_beta * max(0.0, b0 - b1)
               for (w_alpha, w_beta, a0, b0), (_wa, _wb, a1, b1)
               in zip(small, big))


@SETTINGS
@given(summary=summaries(),
       scale=st.floats(min_value=1.5, max_value=20.0))
# a short -> eager switch on the on-node hop lowers 2-Step (staged)
@example(summary=PatternSummary(8, 1, 45.0, 360.0, 354.0, 1, 1, 1), scale=1.5)
def test_models_monotone_in_volume(summary, scale):
    """Scaling every byte quantity up never reduces modelled time —
    except across a protocol limit, by no more than the link table's
    own step there."""
    bigger = dataclasses.replace(
        summary,
        bytes_per_node_pair=summary.bytes_per_node_pair * scale,
        node_bytes=summary.node_bytes * scale,
        proc_bytes=summary.proc_bytes * scale,
    )
    for model in MODELS:
        t_small = model.time(summary)
        t_big = model.time(bigger)
        allowance = _protocol_switch_allowance(model, summary, bigger)
        assert t_big >= t_small - allowance - 1e-18, model_label(model)


def test_pinned_example_is_a_protocol_switch():
    """The pinned example really is non-monotone, and only by a switch."""
    summary = PatternSummary(8, 1, 45.0, 360.0, 354.0, 1, 1, 1)
    bigger = dataclasses.replace(summary, bytes_per_node_pair=67.5,
                                 node_bytes=540.0, proc_bytes=531.0)
    model = next(m for m in MODELS if model_label(m) == "2-Step (staged)")
    drop = model.time(summary) - model.time(bigger)
    assert 0 < drop <= _protocol_switch_allowance(model, summary, bigger)


@SETTINGS
@given(summary=summaries(),
       dup=st.floats(min_value=0.01, max_value=0.9))
def test_dup_removal_never_hurts_node_aware(summary, dup):
    for model in MODELS:
        if not model.node_aware:
            continue
        assert (model.time(summary, dup_fraction=dup)
                <= model.time(summary) + 1e-18), model_label(model)


@settings(SETTINGS, max_examples=40)
@given(summary=summaries())
def test_split_counts_cover_volume(summary):
    """Algorithm-1 chunking: messages x cap covers the pair volume."""
    from repro.models.strategies import SplitMDModel

    model = SplitMDModel(M)
    total_msgs, msg_size = model.split_counts(summary)
    per_pair = total_msgs / summary.num_dest_nodes
    assert per_pair * msg_size >= summary.bytes_per_node_pair - 1e-9
    assert total_msgs >= summary.num_dest_nodes
