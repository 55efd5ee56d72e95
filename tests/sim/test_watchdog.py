"""run() watchdog budgets and the blocked-process registry."""

import pytest

from repro.obs import MemoryTracer
from repro.sim import DeadlockError, Simulator, WatchdogError


def ticker(sim):
    while True:
        yield sim.timeout(1.0)


def sleeper(sim, delay=1.0):
    yield sim.timeout(delay)


def forever(sim):
    yield sim.event(name="never")


class TestMaxEvents:
    def test_budget_stops_runaway_simulation(self):
        sim = Simulator()
        sim.process(ticker(sim), label="ticker")
        with pytest.raises(WatchdogError, match="max_events=100"):
            sim.run(max_events=100)

    def test_error_is_diagnostic(self):
        sim = Simulator()
        sim.process(ticker(sim), label="spinner")
        with pytest.raises(WatchdogError, match="spinner"):
            sim.run(max_events=10)

    def test_budget_not_hit_is_transparent(self):
        sim = Simulator()
        sim.process(sleeper(sim), label="s")
        sim.run(max_events=1000)
        assert sim.now == 1.0

    def test_guarded_run_matches_unguarded(self):
        plain = Simulator()
        plain.process(sleeper(plain, 2.5), label="s")
        plain.run()
        guarded = Simulator()
        guarded.process(sleeper(guarded, 2.5), label="s")
        guarded.run(max_events=10_000, max_wall_seconds=60.0)
        assert plain.now == guarded.now


def counted(sim, n=None):
    """Timeouts arming their successor: ``n`` events in all (endless if
    None), nothing else on the queues.  Returns the live fired count."""
    fired = [0]

    def arm():
        sim.timeout(1.0).callbacks.append(on_fire)

    def on_fire(_ev):
        fired[0] += 1
        if n is None or fired[0] < n:
            arm()

    arm()
    return fired


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("wall", [None, 300.0], ids=["nowall", "wall"])
@pytest.mark.parametrize("max_events", [1, 255, 256, 257, 4096, 4097])
class TestOneLoopBudget:
    """The budget trips at the same event whatever else run() has due.

    256 and 4096 are the trace-sample and wall-check periods: the
    next-due step count is a minimum over all three, and an off-by-one
    in it moves the trip on exactly these values.
    """

    def test_runaway_trips_after_exactly_budget_plus_one(
            self, max_events, wall, traced):
        sim = Simulator(tracer=MemoryTracer() if traced else None)
        fired = counted(sim)
        with pytest.raises(WatchdogError, match=f"max_events={max_events}"):
            sim.run(max_events=max_events, max_wall_seconds=wall)
        assert fired[0] == max_events + 1
        assert sim.steps_traced == (max_events + 1 if traced else 0)

    def test_run_needing_exactly_the_budget_passes(
            self, max_events, wall, traced):
        sim = Simulator(tracer=MemoryTracer() if traced else None)
        fired = counted(sim, n=max_events)
        sim.run(max_events=max_events, max_wall_seconds=wall)
        assert fired[0] == max_events
        assert sim.steps_traced == (max_events if traced else 0)


@pytest.mark.parametrize("wall", [None, 300.0], ids=["nowall", "wall"])
@pytest.mark.parametrize("budgeted", [False, True], ids=["nobudget", "budget"])
@pytest.mark.parametrize("n", [255, 256, 1000])
def test_traced_run_samples_every_256th_step_plus_a_closing_one(
        n, budgeted, wall):
    # event k of the chain fires at t=k with its successor (if any)
    # pending, so a sample's time says which step took it
    tracer = MemoryTracer()
    sim = Simulator(tracer=tracer)
    counted(sim, n=n)
    sim.run(max_events=n if budgeted else None, max_wall_seconds=wall)
    samples = [(c.t, c.value) for c in tracer.counters
               if c.name == "queue_depth"]
    periodic = [(float(k), 1.0 if k < n else 0.0)
                for k in range(256, n + 1, 256)]
    assert samples == periodic + [(float(n), 0.0)]
    assert sim.steps_traced == n


def test_budget_is_checked_before_the_crash():
    # the event that exceeds the budget also crashes its process: the
    # watchdog reports first, as it did when it had a loop of its own
    def crasher(sim):
        yield sim.timeout(1.0)
        raise KeyError("boom")

    sim = Simulator()
    sim.process(crasher(sim), label="crasher")
    with pytest.raises(WatchdogError, match="max_events=1"):
        sim.run(max_events=1)

    sim = Simulator()
    sim.process(crasher(sim), label="crasher")
    with pytest.raises(Exception, match="crasher.*boom") as exc:
        sim.run(max_events=2)
    assert not isinstance(exc.value, WatchdogError)


class TestMaxWallSeconds:
    def test_wall_budget_trips(self):
        sim = Simulator()
        sim.process(ticker(sim), label="ticker")
        with pytest.raises(WatchdogError, match="wall"):
            sim.run(max_wall_seconds=0.0)

    def test_generous_wall_budget_is_transparent(self):
        sim = Simulator()
        sim.process(sleeper(sim), label="s")
        sim.run(max_wall_seconds=300.0)
        assert sim.now == 1.0


class TestBlockedRegistry:
    def test_deadlock_error_names_blocked_processes(self):
        sim = Simulator()
        sim.process(forever(sim), label="rank0")
        sim.process(forever(sim), label="rank1")
        with pytest.raises(DeadlockError, match="rank0.*rank1"):
            sim.run()

    def test_blocked_labels_lists_live_processes(self):
        sim = Simulator()
        sim.process(forever(sim), label="stuck")
        sim.process(sleeper(sim), label="done")
        with pytest.raises(DeadlockError):
            sim.run()
        assert sim.blocked_labels() == ["stuck"]

    def test_blocked_detail_caps_the_listing(self):
        sim = Simulator()
        for i in range(12):
            sim.process(forever(sim), label=f"p{i:02d}")
        with pytest.raises(DeadlockError, match=r"4 more"):
            sim.run()

    def test_no_processes_no_registry_noise(self):
        sim = Simulator()
        sim.run()
        assert sim.blocked_labels() == []

    def test_reset_clears_registry(self):
        sim = Simulator()
        sim.process(forever(sim), label="stuck")
        with pytest.raises(DeadlockError):
            sim.run()
        sim.reset()
        assert sim.blocked_labels() == []
