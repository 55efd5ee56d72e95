"""Simulator loop, process semantics, determinism, error handling."""

import pytest

from repro.sim import DeadlockError, Simulator
from repro.sim.engine import Process, SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.processed and p.value == "done"

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return 21

        def parent(sim):
            c = sim.process(child(sim))
            v = yield c
            return v * 2

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 42 and sim.now == 2.0

    def test_yield_already_processed_event_resumes_at_current_time(self, sim):
        done = sim.timeout(1.0, value="early")

        def proc(sim):
            yield sim.timeout(5.0)
            v = yield done  # fired long ago
            return (sim.now, v)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (5.0, "early")

    def test_crash_propagates_from_run(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise ValueError("inner")

        sim.process(proc(sim))
        with pytest.raises(SimulationError, match="inner"):
            sim.run()

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()
        ev.fail(KeyError("missing"), delay=1.0)

        def proc(sim, ev, log):
            try:
                yield ev
            except KeyError:
                log.append(sim.now)
            return "recovered"

        log = []
        p = sim.process(proc(sim, ev, log))
        sim.run()
        assert log == [1.0] and p.value == "recovered"


class TestEngine:
    def test_deadlock_detected(self, sim):
        def stuck(sim):
            yield sim.event()  # never fires

        sim.process(stuck(sim))
        with pytest.raises(DeadlockError):
            sim.run()

    def test_run_until_stops_clock(self, sim):
        sim.timeout(10.0)
        final = sim.run(until=3.0)
        assert final == 3.0 and sim.now == 3.0

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for i in range(5):
            t = sim.timeout(1.0, value=i)
            t.callbacks.append(lambda ev: order.append(ev.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            trace = []

            def worker(sim, wid):
                for k in range(3):
                    yield sim.timeout(0.5 * ((wid + k) % 3))
                    trace.append((sim.now, wid, k))

            for w in range(4):
                sim.process(worker(sim, w))
            sim.run()
            return trace

        assert build() == build()

    def test_run_until_in_the_past_raises(self, sim):
        # the clock never runs backwards: the immediate deque is sorted
        # only because of that
        sim.timeout(10.0)
        sim.timeout(20.0)
        assert sim.run(until=15.0) == 15.0
        with pytest.raises(ValueError, match=r"until=5\.0.*now=15\.0"):
            sim.run(until=5.0)
        assert sim.now == 15.0
        assert sim.run(until=15.0) == 15.0  # the present is allowed
        assert sim.run() == 20.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_negative_delay_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            ev.succeed(delay=-1.0)

    def test_step_with_empty_schedule_raises(self, sim):
        with pytest.raises(SimulationError, match="no scheduled events"):
            sim.step()

    def test_step_empty_after_drain_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError, match="no scheduled events"):
            sim.step()

    def test_zero_delay_and_heap_events_interleave_in_seq_order(self, sim):
        # A zero-delay event created at t=1 must NOT preempt a heap
        # event at t=1 that was scheduled earlier: same time, smaller
        # sequence number fires first regardless of which queue holds it.
        order = []

        def first(sim):
            yield sim.timeout(1.0)             # heap, earlier seq
            imm = sim.timeout(0.0, value="imm")  # zero-delay at t=1
            imm.callbacks.append(lambda ev: order.append(ev.value))
            order.append("first")
            yield imm

        def second(sim):
            yield sim.timeout(1.0)             # heap, seq between the two
            order.append("second")

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run()
        assert order == ["first", "second", "imm"]

    def test_reset_restores_pristine_state(self, sim):
        def proc(sim):
            yield sim.timeout(3.0)

        sim.process(proc(sim))
        sim.run()
        assert sim.now == 3.0
        sim.reset()
        assert sim.now == 0.0 and sim.peek() == float("inf")
        p = sim.process(proc(sim))
        sim.run()
        assert sim.now == 3.0 and p.processed

    def test_all_of_helper(self, sim):
        def proc(sim):
            vals = yield sim.all_of([sim.timeout(1.0, value=1),
                                     sim.timeout(2.0, value=2)])
            return vals, sim.now

        p = sim.process(proc(sim))
        sim.run(until=5.0)
        assert p.value == ([1, 2], 2.0)
