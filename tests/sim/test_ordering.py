"""Firing-order parity: the two-queue engine vs a pure-heap kernel.

The production engine splits pending events across an immediate deque
and a binary heap.  These property-style tests replay randomized
programs — same-time schedules, zero-delay cascades, fail propagation,
condition events — on both that engine and a single-heap
reference that funnels *everything* through one ``heapq``, and assert
the two fire the identical ``(time, tag)`` sequence.
"""

import heapq

import numpy as np
import pytest

from repro.sim import Simulator


class HeapReferenceSimulator(Simulator):
    """Single-heap kernel: the ordering oracle.

    Every schedule — zero-delay, positive-delay, engine token — becomes
    one ``heapq`` push, so the fired order is *defined* by the heap's
    ``(time, seq)`` tuple order.  Sequence numbers are claimed in the
    same order as the production engine (one per event), so any
    divergence in fired order is an engine bug, not a numbering artifact.
    """

    def _schedule(self, event, delay=0.0):
        if delay < 0.0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), event))

    def _schedule_token(self, token):
        heapq.heappush(self._heap, (self._now, next(self._seq), token))


def both_engines():
    return Simulator(), HeapReferenceSimulator()


def _record(log):
    return lambda ev: log.append((ev.sim.now, ev.value))


# -- randomized mixed programs -------------------------------------------------

def _build_plan(seed, n_ops=40):
    """A deterministic random program: op list drawn from a seeded rng.

    Integer delays on a tiny range force heavy (time, seq) ties, the
    regime where deque/heap tie-breaking must agree exactly.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            ops.append(("timeout", float(rng.integers(1, 6))))
        elif kind == 1:
            size = int(rng.integers(1, 5))
            ops.append(("burst", [float(x)
                                  for x in rng.integers(1, 6, size)]))
        elif kind == 2:
            size = int(rng.integers(1, 5))
            ops.append(("all_of", [float(x)
                                   for x in rng.integers(1, 6, size)]))
        else:
            ops.append(("proc", float(rng.integers(1, 6)),
                        float(rng.integers(1, 6))))
    return ops


def _step_until_empty(sim):
    while sim.peek() != float("inf"):
        sim.step()


def _execute(sim, plan, drive=Simulator.run):
    log = []
    for i, op in enumerate(plan):
        if op[0] == "timeout":
            t = sim.timeout(op[1], value=f"T{i}")
            t.callbacks.append(_record(log))
        elif op[0] == "burst":
            for j, d in enumerate(op[1]):
                t = sim.timeout(d, value=f"B{i}.{j}")
                t.callbacks.append(_record(log))
        elif op[0] == "all_of":
            # fires (zero-delay) when the last of its timeouts does
            done = sim.all_of([sim.timeout(d) for d in op[1]])
            done.callbacks.append(
                lambda ev, i=i: log.append((ev.sim.now, f"K{i}")))
        else:
            _, d1, d2 = op

            def proc(sim, i=i, d1=d1, d2=d2):
                log.append((sim.now, f"P{i}-start"))
                yield sim.timeout(d1)
                log.append((sim.now, f"P{i}-mid"))
                ev = sim.event()
                ev.succeed(f"P{i}-imm")  # zero-delay cascade
                v = yield ev
                log.append((sim.now, v))
                yield sim.timeout(d2)
                log.append((sim.now, f"P{i}-end"))

            sim.process(proc(sim))
    drive(sim)
    return log


SEEDS = [0, 1, 2, 3, 17, 42, 1234]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_mixed_programs_match_reference(seed):
    opt, ref = both_engines()
    plan = _build_plan(seed)
    log_opt = _execute(opt, plan)
    log_ref = _execute(ref, plan)
    assert log_opt == log_ref
    assert opt.now == ref.now


@pytest.mark.parametrize("seed", SEEDS)
def test_step_until_empty_fires_what_run_fires(seed):
    """``step()`` and the ``run()`` loop make the same head choice."""
    plan = _build_plan(seed)
    ran, stepped = Simulator(), Simulator()
    assert _execute(stepped, plan, _step_until_empty) == _execute(ran, plan)
    assert stepped.now == ran.now


# -- targeted scenarios --------------------------------------------------------

def _same_time_scenario(sim):
    """Many sources all landing on t=1.0: order must be schedule order."""
    log = []
    sim.timeout(1.0, value="h0").callbacks.append(_record(log))
    for tag in ["b0", "b1"]:
        sim.timeout(1.0, value=tag).callbacks.append(_record(log))
    sim.timeout(1.0, value="h1").callbacks.append(_record(log))
    both = sim.all_of([sim.timeout(1.0), sim.timeout(1.0)])
    both.callbacks.append(
        lambda ev: log.append((ev.sim.now, "both-done")))
    sim.timeout(1.0, value="h2").callbacks.append(_record(log))
    sim.run()
    return log


def test_same_time_schedules_match_reference():
    opt, ref = both_engines()
    log_opt = _same_time_scenario(opt)
    assert log_opt == _same_time_scenario(ref)
    # schedule order is the tie-break; the condition is succeed()-ed
    # when its last timeout fires, so it lands one seq later in the
    # immediate queue — after h2, still at t=1.0
    assert [tag for _, tag in log_opt] == \
        ["h0", "b0", "b1", "h1", "h2", "both-done"]


def _fail_scenario(sim):
    log = []
    ev = sim.event()
    ev.fail(KeyError("boom"), delay=2.0)

    def waiter(sim, tag):
        try:
            yield ev
        except KeyError:
            log.append((sim.now, f"{tag}-caught"))
        yield sim.timeout(1.0)
        log.append((sim.now, f"{tag}-done"))

    sim.process(waiter(sim, "w1"))
    sim.process(waiter(sim, "w2"))
    # timeouts straddle the failure time
    for d, tag in [(1.0, "a"), (2.0, "b"), (3.0, "c")]:
        sim.timeout(d, value=tag).callbacks.append(_record(log))
    sim.run()
    return log


def test_fail_propagation_matches_reference():
    opt, ref = both_engines()
    assert _fail_scenario(opt) == _fail_scenario(ref)


def _cascade_scenario(sim):
    """Zero-delay chains spawned from heap timeouts."""
    log = []

    def chain(sim, depth, tag):
        if depth == 0:
            return
        ev = sim.event()
        ev.callbacks.append(
            lambda e, d=depth: (log.append((e.sim.now, f"{tag}@{d}")),
                                chain(e.sim, d - 1, tag)))
        ev.succeed(None)

    for d, tag in [(1.0, "c1"), (2.0, "c2")]:
        sim.timeout(d, value=tag).callbacks.append(
            lambda ev: (log.append((ev.sim.now, ev.value)),
                        chain(ev.sim, 3, ev.value)))
    mid = sim.timeout(1.0, value="m")
    mid.callbacks.append(_record(log))
    sim.run()
    return log


def test_zero_delay_cascades_match_reference():
    opt, ref = both_engines()
    log_opt = _cascade_scenario(opt)
    assert log_opt == _cascade_scenario(ref)
    # the cascade at t=1 drains before the later timeout at t=2
    tags = [tag for _, tag in log_opt]
    assert tags.index("c1@1") < tags.index("c2")
