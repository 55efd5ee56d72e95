"""The simulation engine: virtual clock, event heap, process scheduling.

Determinism
-----------
Events scheduled for the same virtual time fire in scheduling order
(monotone sequence numbers break ties), so a simulation with a fixed seed
is bit-reproducible across runs and platforms.

Two queues, one loop
--------------------
Pending events live in two structures that together behave as a single
priority queue ordered by ``(time, seq)``:

* a binary heap for events scheduled with a positive delay, and
* a plain FIFO deque for *immediate* (zero-delay) events.

Zero-delay events — process starts, resumptions of already-fired events
and every ``succeed()``/``fail()`` without a delay — are the
majority of the event traffic in message-heavy simulations.  Because the
clock never moves backwards, the deque is naturally sorted by
``(time, seq)``, so the engine only has to compare the two queue heads
to pop in exactly the order a single heap would (the pure-heap kernel in
``tests/sim/test_ordering.py`` is the oracle for that).

:meth:`Simulator.run` is the only dispatch loop.  The event budget, the
wall-clock watchdog, the tracer's ``queue_depth`` samples and its step
count all hang off one per-event integer compare against the next step
count at which any of them is due — never, for a plain run — so plain,
guarded and traced runs are the same code.

Process resumption on an already-fired event skips the relay
:class:`Event` allocation: a lightweight :class:`_Resume` token carrying
the original event is queued instead, preserving engine-driven (non-
recursive) resumption order.
"""

from __future__ import annotations

import heapq
import sys
import time as _time
from collections import deque
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for structural errors in a simulation."""


# The exception hierarchy is defined *before* any intra-package imports:
# repro.faults.errors subclasses SimulationError and is reachable from
# repro.obs via the supervised sweep executor, so it may re-enter this
# module while the imports below are still resolving.
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import AllOf, Event, EventState, Timeout, ensure_event

_PROCESSED = EventState.PROCESSED
_TRIGGERED = EventState.TRIGGERED

#: traced-run queue-depth sampling period (steps per counter sample)
_TRACE_SAMPLE_EVERY = 256


class DeadlockError(SimulationError):
    """Raised when processes remain but no events are scheduled."""


class WatchdogError(SimulationError):
    """Raised when a run exceeds its max-events / max-wall-seconds budget."""


#: wall-clock watchdog check period (steps between ``monotonic()`` reads)
_WATCHDOG_CHECK_EVERY = 4096


def _next_due(steps: int, budget: Optional[int],
              deadline: Optional[float], trace: bool) -> int:
    """First step count after ``steps`` at which ``run()`` has more to do
    than dispatch: the budget trip, a wall-clock read or a trace sample."""
    due = sys.maxsize if budget is None else budget + 1  # plain run: never
    if deadline is not None:
        due = min(due, steps - steps % _WATCHDOG_CHECK_EVERY
                  + _WATCHDOG_CHECK_EVERY)
    if trace:
        due = min(due, steps - steps % _TRACE_SAMPLE_EVERY
                  + _TRACE_SAMPLE_EVERY)
    return due


class _Start:
    """Zero-delay token kick-starting a process (no Event allocation).

    Duck-types the slice of the :class:`Event` interface that
    :meth:`Process._resume` reads (``ok`` / ``value``).
    """

    __slots__ = ("process",)
    ok = _ok = True
    value = _value = None

    def __init__(self, process: "Process") -> None:
        self.process = process

    def _process_callbacks(self) -> None:
        self.process._resume(self)


class _Resume:
    """Zero-delay token resuming a process from an already-fired event.

    Replaces the relay :class:`Event` the slow path allocated: the
    process is resumed with the *original* event (same ``ok``/``value``),
    still driven by the engine loop rather than recursion.
    """

    __slots__ = ("process", "source")

    def __init__(self, process: "Process", source: Event) -> None:
        self.process = process
        self.source = source

    def _process_callbacks(self) -> None:
        self.process._resume(self.source)


class Process(Event):
    """A running generator coroutine.

    A :class:`Process` is itself an :class:`Event` that fires when the
    generator returns; its value is the generator's return value.  This
    lets processes wait on each other by yielding the process object.
    A failed event is the one way an exception enters a process: it is
    raised at the ``yield`` that waits on it.
    """

    __slots__ = ("generator", "label", "_bound_resume", "_trace_t0")

    def __init__(self, sim: "Simulator", generator: Generator,
                 label: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=label or getattr(generator, "__name__", "process"))
        self.generator = generator
        self.label = self.name
        # One bound method reused for every callback subscription (a
        # fresh `self._resume` lookup allocates a new method object).
        self._bound_resume = self._resume
        # Kick-start at the current time via an immediate token.
        sim._schedule_token(_Start(self))
        sim._live_processes += 1
        sim._processes.append(self)
        if sim._trace_on:
            self._trace_t0 = sim._now
            sim.tracer.instant(self.label, "start", sim._now, cat="engine")

    @property
    def is_alive(self) -> bool:
        return not self.processed

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state is _PROCESSED:
            return
        if self.sim._trace_fine:
            self.sim.tracer.instant(self.label, "resume", self.sim._now,
                                    cat="engine")
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self.sim._live_processes -= 1
            self._state = EventState.PENDING  # allow fail()
            self.fail(exc)
            self.sim._crashed.append((self, exc))
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        event = target if isinstance(target, Event) else ensure_event(self.sim, target)
        if event._state is _PROCESSED:
            # Already fired: resume at the current time via an immediate
            # token so the engine (not recursion) drives the resumption.
            self.sim._schedule_token(_Resume(self, event))
        else:
            event.callbacks.append(self._bound_resume)

    def _finish(self, value: Any) -> None:
        sim = self.sim
        sim._live_processes -= 1
        if sim._trace_on:
            sim.tracer.span(self.label, "process", self._trace_t0, sim._now,
                            cat="engine")
        self.succeed(value)


class Simulator:
    """Owner of the virtual clock and the pending-event queues.

    ``tracer`` (default: the shared :data:`~repro.obs.tracer.NULL_TRACER`)
    receives engine spans when enabled: process start instants and
    lifetime spans, plus queue-depth counter samples from ``run()``.
    The disabled path costs one cached-boolean branch per site.
    """

    def __init__(self, tracer: Any = None) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        #: zero-delay events/tokens, naturally sorted by (time, seq)
        self._imm: deque = deque()
        self._seq = count()
        self._live_processes = 0
        #: every process ever registered (labels for deadlock/watchdog
        #: diagnostics); cleared by :meth:`reset`
        self._processes: List[Process] = []
        self._crashed: List[Tuple[Process, BaseException]] = []
        self._steps_traced = 0
        self.set_tracer(tracer if tracer is not None else NULL_TRACER)

    def set_tracer(self, tracer: Any) -> None:
        """Install ``tracer`` and refresh the cached hot-path flags."""
        self.tracer = tracer
        self._trace_on = bool(tracer.enabled)
        self._trace_fine = self._trace_on and bool(getattr(tracer, "fine",
                                                           False))

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def steps_traced(self) -> int:
        """Events fired by traced ``run()`` calls (0 when untraced)."""
        return self._steps_traced

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            # Immediate: fires at the current time, after everything at
            # (now, smaller seq) — exactly heap order, without the heap.
            self._imm.append((self._now, next(self._seq), event))
        elif delay > 0.0:
            heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")

    def _schedule_token(self, token: Any) -> None:
        """Queue an engine-internal immediate token (start/resume)."""
        self._imm.append((self._now, next(self._seq), token))

    # -- factories ---------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, label: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, label=label)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    # -- diagnostics -----------------------------------------------------------
    def blocked_labels(self, limit: Optional[int] = None) -> List[str]:
        """Labels of processes that are still alive (blocked or runnable)."""
        labels = [p.label for p in self._processes if p.is_alive]
        return labels if limit is None else labels[:limit]

    def _blocked_detail(self) -> str:
        labels = self.blocked_labels()
        if not labels:
            return ""
        shown = ", ".join(labels[:8])
        if len(labels) > 8:
            shown += f", ... ({len(labels) - 8} more)"
        return f" (blocked: {shown})"

    def _raise_crashed(self, proc: Process, exc: BaseException) -> None:
        # Structural simulation errors (DeliveryError, watchdog trips seen
        # inside a program, ...) surface unwrapped so callers can catch
        # the specific type; anything else keeps the crash wrapper.
        if isinstance(exc, SimulationError):
            raise exc
        raise SimulationError(
            f"process {proc.label!r} crashed at t={self._now:g}: {exc!r}"
        ) from exc

    def _raise_deadlock(self) -> None:
        raise DeadlockError(
            f"{self._live_processes} process(es) blocked forever at "
            f"t={self._now:g} with no scheduled events{self._blocked_detail()}"
        )

    # -- main loop -----------------------------------------------------------------
    def step(self) -> None:
        """Fire the next scheduled event.

        Raises :class:`SimulationError` when nothing is scheduled (an
        empty schedule is a caller bug, not an engine state).
        """
        imm = self._imm
        heap = self._heap
        # The deque is sorted by (time, seq); pop whichever head is
        # earlier so the fired order matches a single heap.  Sequence
        # numbers are unique, so the tuple comparison never reaches the
        # (incomparable) event payloads.
        if imm and not (heap and heap[0] < imm[0]):
            when, _seq, event = imm.popleft()
        elif heap:
            when, _seq, event = heapq.heappop(heap)
        else:
            raise SimulationError("step() called with no scheduled events")
        self._now = when
        event._process_callbacks()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            max_wall_seconds: Optional[float] = None) -> float:
        """Run until the queues drain or virtual time passes ``until``.

        Returns the final virtual time.  Raises :class:`DeadlockError` if
        live processes remain with nothing scheduled, and re-raises the
        first exception of any crashed process (:class:`SimulationError`
        subclasses propagate unwrapped; other exceptions are wrapped with
        the crashing process's label).  ``until`` must not lie before
        :attr:`now`: the clock never moves backwards.

        ``max_events`` / ``max_wall_seconds`` arm a watchdog: exceeding
        either budget raises a diagnostic :class:`WatchdogError` naming
        the still-live processes — turning runaway or silently-wrong
        simulations into actionable failures.  Wall time is read every
        ``_WATCHDOG_CHECK_EVERY`` events.  With a tracer attached the
        run also counts its events (:attr:`steps_traced`) and samples
        the pending-queue depth every ``_TRACE_SAMPLE_EVERY`` events,
        plus once when it returns, as an ``engine`` counter track.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"run(until={until!r}) is in the past (now={self._now!r})")
        imm = self._imm
        heap = self._heap
        crashed = self._crashed
        heappop = heapq.heappop
        trace_on = self._trace_on
        budget = None if max_events is None else int(max_events)
        deadline = (None if max_wall_seconds is None
                    else _time.monotonic() + max_wall_seconds)
        steps = 0
        due = _next_due(0, budget, deadline, trace_on)
        try:
            # ``while True`` rather than ``while imm or heap``: on CPython
            # 3.11 only an unconditional backward jump warms a function up
            # for specialisation, and one long run() is one call.
            while True:
                # Same head choice as step().  An immediate entry fires
                # at a time the clock already reached, so only the heap
                # can hold something beyond ``until``.
                if imm and not (heap and heap[0] < imm[0]):
                    when, _seq, event = imm.popleft()
                elif not heap:
                    if self._live_processes > 0 and until is None:
                        self._raise_deadlock()
                    break
                elif until is not None and heap[0][0] > until:
                    self._now = until
                    break
                else:
                    when, _seq, event = heappop(heap)
                self._now = when
                event._process_callbacks()
                steps += 1
                if steps >= due:
                    if budget is not None and steps > budget:
                        raise WatchdogError(
                            f"simulation exceeded max_events={max_events} at "
                            f"t={self._now:g} with {self._live_processes} live "
                            f"process(es){self._blocked_detail()}"
                        )
                    if (deadline is not None
                            and steps % _WATCHDOG_CHECK_EVERY == 0
                            and _time.monotonic() > deadline):
                        raise WatchdogError(
                            f"simulation exceeded max_wall_seconds="
                            f"{max_wall_seconds} after {steps} events at "
                            f"t={self._now:g} with {self._live_processes} live "
                            f"process(es){self._blocked_detail()}"
                        )
                    if trace_on and steps % _TRACE_SAMPLE_EVERY == 0:
                        self.tracer.counter("engine", "queue_depth", self._now,
                                            len(imm) + len(heap))
                    due = _next_due(steps, budget, deadline, trace_on)
                if crashed:
                    self._raise_crashed(*crashed[0])
        finally:
            if trace_on:
                self._steps_traced += steps
        if trace_on:
            self.tracer.counter("engine", "queue_depth", self._now,
                                len(imm) + len(heap))
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        t = float("inf")
        if self._imm:
            t = self._imm[0][0]
        if self._heap and self._heap[0][0] < t:
            t = self._heap[0][0]
        return t

    def reset(self) -> None:
        """Restore a pristine clock/queues in place (between benchmark reps).

        Equivalent to constructing a fresh :class:`Simulator` while
        keeping the object identity, so transports, communicators and
        resources holding a reference stay valid.
        """
        self._now = 0.0
        self._heap.clear()
        self._imm.clear()
        self._seq = count()
        self._live_processes = 0
        self._processes.clear()
        self._crashed.clear()
        self._steps_traced = 0
