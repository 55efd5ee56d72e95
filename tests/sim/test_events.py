"""Event lifecycle and composite-condition tests."""

import pytest

from repro.sim import Simulator
from repro.sim.events import AllOf, Event, EventState, Timeout, ensure_event


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_initial_state_pending(self, sim):
        ev = Event(sim)
        assert ev.pending and not ev.triggered and not ev.processed
        assert ev.state is EventState.PENDING

    def test_succeed_triggers(self, sim):
        ev = Event(sim)
        ev.succeed(42)
        assert ev.triggered
        sim.run()
        assert ev.processed and ev.ok and ev.value == 42

    def test_succeed_with_delay_fires_at_time(self, sim):
        ev = Event(sim)
        ev.succeed("x", delay=2.5)
        sim.run()
        assert sim.now == 2.5

    def test_double_succeed_raises(self, sim):
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = Event(sim)
        ev.fail(ValueError("boom"))
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = Event(sim)
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_marks_not_ok(self, sim):
        ev = Event(sim)
        exc = ValueError("boom")
        ev.fail(exc)
        sim.run()
        assert ev.processed and not ev.ok and ev.value is exc

    def test_callbacks_invoked_once(self, sim):
        ev = Event(sim)
        hits = []
        ev.callbacks.append(lambda e: hits.append(e.value))
        ev.succeed(7)
        sim.run()
        assert hits == [7]


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)

    def test_zero_delay_fires_now(self, sim):
        t = Timeout(sim, 0.0, value="v")
        sim.run()
        assert sim.now == 0.0 and t.value == "v"

    def test_delay_accumulates_from_now(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 3.0


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        ts = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        cond = AllOf(sim, ts)
        sim.run()
        assert cond.processed and sim.now == 3.0
        assert cond.value == [1.0, 3.0, 2.0]

    def test_empty_all_of_fires_immediately(self, sim):
        cond = AllOf(sim, [])
        sim.run()
        assert cond.processed and cond.value == []

    def test_all_of_with_already_processed_children(self, sim):
        t = sim.timeout(1.0, value="a")
        sim.run()
        assert t.processed
        cond = AllOf(sim, [t, sim.timeout(0.5, value="b")])
        sim.run()
        assert cond.processed and cond.value == ["a", "b"]

    def test_all_of_propagates_failure(self, sim):
        ok = sim.timeout(1.0)
        bad = Event(sim)
        bad.fail(RuntimeError("child failed"), delay=0.5)
        cond = AllOf(sim, [ok, bad])
        sim.run()
        assert cond.processed and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_all_of_first_failure_wins(self, sim):
        first, second = Event(sim), Event(sim)
        late = RuntimeError("late")
        early = ValueError("early")
        first.fail(late, delay=2.0)
        second.fail(early, delay=1.0)
        cond = AllOf(sim, [first, sim.timeout(3.0), second])
        fired = []
        cond.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run()
        # fails once, at the first failing child; later children are ignored
        assert fired == [1.0] and cond.value is early

    def test_all_of_with_already_failed_child(self, sim):
        bad = Event(sim)
        exc = RuntimeError("done before")
        bad.fail(exc)
        sim.run()
        cond = AllOf(sim, [sim.timeout(1.0), bad])
        sim.run()
        assert not cond.ok and cond.value is exc

    def test_all_of_failure_raises_inside_waiting_process(self, sim):
        bad = Event(sim)
        bad.fail(KeyError("lost"), delay=2.0)

        def waiter(sim):
            try:
                yield AllOf(sim, [sim.timeout(1.0), bad])
            except KeyError:
                return ("caught", sim.now)
            return "not raised"

        p = sim.process(waiter(sim))
        sim.run()
        assert p.value == ("caught", 2.0)

    def test_nested_all_of(self, sim):
        inner = AllOf(sim, [sim.timeout(2.0, value="a"),
                            sim.timeout(1.0, value="b")])
        outer = AllOf(sim, [inner, sim.timeout(0.5, value="c")])
        sim.run()
        assert sim.now == 2.0
        assert outer.value == [["a", "b"], "c"]


def test_ensure_event_rejects_non_events(sim):
    with pytest.raises(TypeError):
        ensure_event(sim, 42)
    ev = Event(sim)
    assert ensure_event(sim, ev) is ev
