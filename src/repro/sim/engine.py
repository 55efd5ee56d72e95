"""The simulation engine: virtual clock, event heap, process scheduling.

Determinism
-----------
Events scheduled for the same virtual time fire in scheduling order
(monotone sequence numbers break ties), so a simulation with a fixed seed
is bit-reproducible across runs and platforms.

Fast paths
----------
The engine keeps three pending-event structures that together behave as
a single priority queue ordered by ``(time, seq)``:

* a binary heap for events scheduled individually with a positive delay,
* a plain FIFO deque for *immediate* (zero-delay) events, and
* a struct-of-arrays sorted run (:class:`~repro.sim.soa.SoATimeline`)
  for *batch*-scheduled events: numpy time/seq arrays merged with one
  ``lexsort`` per batch instead of one ``heappush`` per event.

Zero-delay events — process starts, resumptions of already-fired events,
interrupts, and every ``succeed()``/``fail()`` without a delay — are the
majority of the event traffic in message-heavy simulations.  Because the
clock never moves backwards, the deque is naturally sorted by
``(time, seq)``, so the engine only has to compare the queue heads to
pop in exactly the order the single-heap implementation would have.  The
fired order (and therefore every virtual time) is bit-identical to the
pure-heap kernel; only the wall-clock cost changes.

The untraced ``run()`` loop additionally *coalesces* work instead of
dispatching one ``step()`` per event: a zero-delay cascade drains the
deque in one inner loop under a cached barrier (the earliest heap/SoA
head — safe because batch APIs only admit strictly-future times, so no
new entry scheduled during the drain can preempt it), and a run of
SoA entries drains with a vectorized ``searchsorted`` bound plus an
O(1) pointer to the next real Event payload.  Anonymous ticks (``None``
payloads) advance the clock without touching a single Python object.

Process resumption on an already-fired event similarly skips the relay
:class:`Event` allocation: a lightweight :class:`_Resume` token carrying
the original event is queued instead, preserving engine-driven (non-
recursive) resumption order.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import deque
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class SimulationError(RuntimeError):
    """Raised for structural errors in a simulation."""


# The exception hierarchy is defined *before* any intra-package imports:
# repro.faults.errors subclasses SimulationError and is reachable from
# repro.obs via the supervised sweep executor, so it may re-enter this
# module while the imports below are still resolving.
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventState,
    Timeout,
    ensure_event,
)
from repro.sim.soa import SoATimeline, TickBatch

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


class Interrupt(Exception):
    """Raised inside a process that has been interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


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


class _Throw:
    """Zero-delay token throwing an exception into a process."""

    __slots__ = ("process", "exc")

    def __init__(self, process: "Process", exc: BaseException) -> None:
        self.process = process
        self.exc = exc

    def _process_callbacks(self) -> None:
        self.process._throw(self.exc)


class Process(Event):
    """A running generator coroutine.

    A :class:`Process` is itself an :class:`Event` that fires when the
    generator returns; its value is the generator's return value.  This
    lets processes wait on each other by yielding the process object.
    """

    __slots__ = ("generator", "_waiting_on", "label", "_bound_resume",
                 "_trace_t0")

    def __init__(self, sim: "Simulator", generator: Generator,
                 label: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=label or getattr(generator, "__name__", "process"))
        self.generator = generator
        self.label = self.name
        self._waiting_on: Optional[Event] = None
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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.label!r}")
        self.sim._schedule_token(_Throw(self, Interrupt(cause)))

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state is _PROCESSED:
            return
        if self.sim._trace_fine:
            self.sim.tracer.instant(self.label, "resume", self.sim._now,
                                    cat="engine")
        self._waiting_on = None
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

    def _throw(self, exc: BaseException) -> None:
        if self._state is _PROCESSED:
            return
        waiting = self._waiting_on
        if waiting is not None and self._bound_resume in waiting.callbacks:
            waiting.callbacks.remove(self._bound_resume)
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self.sim._live_processes -= 1
            self._state = EventState.PENDING
            self.fail(err)
            self.sim._crashed.append((self, err))
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        event = target if isinstance(target, Event) else ensure_event(self.sim, target)
        self._waiting_on = event
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
    lifetime spans, plus queue-depth counter samples from the traced run
    loop.  The disabled path costs one cached-boolean branch per site —
    the untraced ``run()`` loop is untouched.
    """

    def __init__(self, tracer: Any = None) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        #: zero-delay events/tokens, naturally sorted by (time, seq)
        self._imm: deque = deque()
        #: batch-scheduled events, sorted column-wise by (time, seq)
        self._soa = SoATimeline()
        #: cached ``(time, seq)`` of the earliest SoA entry (None = empty);
        #: refreshed on every merge/fire so hot loops never touch numpy
        #: scalars just to compare heads
        self._soa_head: Optional[Tuple[float, int]] = None
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
        """Events fired by traced ``run()`` loops (0 when untraced)."""
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
        """Queue an engine-internal immediate token (start/resume/throw)."""
        self._imm.append((self._now, next(self._seq), token))

    def _claim_seq_block(self, n: int) -> np.ndarray:
        """Reserve ``n`` consecutive sequence numbers as an int64 array."""
        base = next(self._seq)
        self._seq = count(base + n)
        return np.arange(base, base + n, dtype=np.int64)

    @staticmethod
    def _check_batch_delays(delays: Any) -> np.ndarray:
        delays = np.asarray(delays, dtype=np.float64)
        if delays.ndim != 1:
            raise ValueError(
                f"batch delays must be one-dimensional, got shape "
                f"{delays.shape}")
        if delays.size and not np.all(delays > 0.0):
            # Zero-delay bulk events would belong on the immediate deque
            # (and would invalidate the drain-loop barrier); schedule
            # them individually instead.
            raise ValueError(
                "batch delays must be strictly positive (zero-delay "
                "events go through the immediate queue)")
        return delays

    def schedule_ticks(self, delays: Any, complete: bool = False) -> TickBatch:
        """Schedule a batch of *anonymous ticks* ``delays`` seconds from now.

        Each tick advances the virtual clock in global ``(time, seq)``
        order but allocates no per-event Python object — the batch is
        three numpy arrays plus one :class:`TickBatch` handle.  With
        ``complete=True`` the handle's ``completed`` event fires when
        the last tick of the batch does.  Delays must be strictly
        positive (a zero-delay "tick" is just an immediate event).
        """
        delays = self._check_batch_delays(delays)
        n = int(delays.size)
        batch = TickBatch(self, n, complete)
        if n == 0:
            if complete:
                batch.completed.succeed(batch)
            return batch
        times = self._now + delays
        seqs = self._claim_seq_block(n)
        events: List[Any] = [None] * n
        if complete:
            # The completion marker rides on the entry that fires last.
            last = int(np.lexsort((seqs, times))[-1])
            events[last] = batch
        self._soa.merge(times, seqs, events)
        self._soa_head = self._soa.head()
        return batch

    def timeout_batch(self, delays: Any,
                      values: Optional[Sequence[Any]] = None) -> List[Timeout]:
        """Create ``len(delays)`` timeouts with one batched scheduling pass.

        Returns the :class:`Timeout` events in input order; each behaves
        exactly like ``sim.timeout(delay, value)`` (waitable, callbacks,
        same ``(time, seq)`` firing order) but the heap push per event is
        replaced by a single SoA merge.  Delays must be strictly
        positive.
        """
        delays = self._check_batch_delays(delays)
        n = int(delays.size)
        if values is not None and len(values) != n:
            raise ValueError(
                f"values length {len(values)} != delays length {n}")
        if n == 0:
            return []
        times = self._now + delays
        seqs = self._claim_seq_block(n)
        timeouts: List[Timeout] = []
        append = timeouts.append
        vals = values if values is not None else (None,) * n
        for delay, value in zip(delays.tolist(), vals):
            # Mirror of Timeout.__init__ minus the per-event _schedule.
            t = Timeout.__new__(Timeout)
            t.sim = self
            t.name = ""
            t.callbacks = []
            t.delay = delay
            t._value = value
            t._ok = True
            t._state = _TRIGGERED
            append(t)
        self._soa.merge(times, seqs, list(timeouts))
        self._soa_head = self._soa.head()
        return timeouts

    # -- factories ---------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def timeout_until(self, when: float, value: Any = None) -> Timeout:
        """An event firing at absolute virtual time ``when`` (>= now)."""
        if when < self._now - 1e-18:
            raise ValueError(
                f"timeout_until({when!r}) is in the past (now={self._now!r})"
            )
        return Timeout(self, max(0.0, when - self._now), value=value)

    def process(self, generator: Generator, label: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, label=label)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    # -- main loop -----------------------------------------------------------------
    def step(self) -> None:
        """Fire the next scheduled event.

        Raises :class:`SimulationError` when nothing is scheduled (an
        empty schedule is a caller bug, not an engine state).
        """
        imm = self._imm
        heap = self._heap
        if self._soa_head is not None:
            self._step_three_way()
            return
        if imm:
            # The deque is sorted by (time, seq); pop whichever head is
            # earlier so the fired order matches the single-heap kernel.
            # Sequence numbers are unique, so the tuple comparison never
            # reaches the (incomparable) event payloads.
            if heap and heap[0] < imm[0]:
                when, _seq, event = heapq.heappop(heap)
            else:
                when, _seq, event = imm.popleft()
        elif heap:
            when, _seq, event = heapq.heappop(heap)
        else:
            raise SimulationError("step() called with no scheduled events")
        self._now = when
        event._process_callbacks()

    def _step_three_way(self) -> None:
        """``step()`` with a non-empty SoA run: compare all three heads."""
        imm = self._imm
        heap = self._heap
        soa_key = self._soa_head
        best: Optional[Tuple[float, int]] = None
        if imm:
            head = imm[0]
            best = (head[0], head[1])
        if heap:
            hk = (heap[0][0], heap[0][1])
            if best is None or hk < best:
                best = hk
        if best is None or soa_key < best:
            self._fire_soa_one()
            return
        if imm and best == (imm[0][0], imm[0][1]):
            when, _seq, event = imm.popleft()
        else:
            when, _seq, event = heapq.heappop(heap)
        self._now = when
        event._process_callbacks()

    def _fire_soa_one(self) -> None:
        """Fire exactly the earliest SoA entry (single-step granularity)."""
        soa = self._soa
        i = soa.pos
        event = soa.events[i]
        self._now = float(soa.times[i])
        soa.pos = i + 1
        soa.fired += 1
        if event is not None:
            soa.ev_ptr += 1
        self._soa_head = soa.head()
        if event is None:
            return
        if type(event) is TickBatch:
            event._complete_now()
        else:
            event._process_callbacks()

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

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            max_wall_seconds: Optional[float] = None) -> float:
        """Run until the queues drain or virtual time passes ``until``.

        Returns the final virtual time.  Raises :class:`DeadlockError` if
        live processes remain with nothing scheduled, and re-raises the
        first exception of any crashed process (:class:`SimulationError`
        subclasses propagate unwrapped; other exceptions are wrapped with
        the crashing process's label).

        ``max_events`` / ``max_wall_seconds`` arm a watchdog: exceeding
        either budget raises a diagnostic :class:`WatchdogError` naming
        the still-live processes — turning runaway or silently-wrong
        simulations into actionable failures.  The watchdog and an attached
        tracer run in a separate guarded loop so the ordinary hot loop
        stays untouched.
        """
        if (max_events is not None or max_wall_seconds is not None
                or self._trace_on):
            return self._run_guarded(until, max_events, max_wall_seconds)
        imm = self._imm
        heap = self._heap
        crashed = self._crashed
        heappop = heapq.heappop
        while imm or heap or self._soa_head is not None:
            if until is not None and self.peek() > until:
                self._now = until
                break
            soa_key = self._soa_head
            if imm:
                head = imm[0]
                heap_head = heap[0] if heap else None
                if ((heap_head is None or head < heap_head)
                        and (soa_key is None or head[0] < soa_key[0]
                             or (head[0] == soa_key[0]
                                 and head[1] < soa_key[1]))):
                    # Batched zero-delay drain.  The barrier (earliest
                    # heap/SoA key) is computed once for the cascade:
                    # anything scheduled *during* the drain lands either
                    # on this deque (at now, correctly ordered) or in
                    # the strict future (positive delays only), so no
                    # new entry can ever beat the cached barrier.
                    if heap_head is not None and (
                            soa_key is None
                            or (heap_head[0], heap_head[1]) < soa_key):
                        bar_t, bar_s = heap_head[0], heap_head[1]
                    elif soa_key is not None:
                        bar_t, bar_s = soa_key
                    else:
                        bar_t = None
                    if bar_t is None:
                        while imm:
                            when, _seq, event = imm.popleft()
                            self._now = when
                            event._process_callbacks()
                            if crashed:
                                self._raise_crashed(*crashed[0])
                    else:
                        while imm:
                            head = imm[0]
                            if (head[0] > bar_t
                                    or (head[0] == bar_t and head[1] > bar_s)):
                                break
                            imm.popleft()
                            self._now = head[0]
                            head[2]._process_callbacks()
                            if crashed:
                                self._raise_crashed(*crashed[0])
                    continue
            # Earliest pending entry sits on the heap or the SoA run.
            if heap and (soa_key is None
                         or (heap[0][0], heap[0][1]) < soa_key):
                when, _seq, event = heappop(heap)
                self._now = when
                event._process_callbacks()
            else:
                self._drain_soa(until)
            if crashed:
                self._raise_crashed(*crashed[0])
        else:
            if self._live_processes > 0 and until is None:
                self._raise_deadlock()
        return self._now

    def _drain_soa(self, until: Optional[float]) -> None:
        """Fire a run of SoA entries without per-event dispatch.

        Precondition (guaranteed by the ``run()`` loop): the earliest
        SoA entry is the globally earliest pending event and, when
        ``until`` is set, fires at or before it — so at least one entry
        is always in range.  The drain stops at the earliest immediate/
        heap key (``searchsorted`` on the time column), at ``until``, or
        at the first payload that runs user code (a real :class:`Event`
        with callbacks, or a :class:`TickBatch` completion) — returning
        to the main loop keeps the array snapshot below valid, since
        anonymous ticks and callback-free events never schedule.
        """
        soa = self._soa
        times = soa.times
        events = soa.events
        n = times.size
        limit = n
        imm = self._imm
        heap = self._heap
        bar: Optional[Tuple[float, int]] = None
        if imm:
            head = imm[0]
            bar = (head[0], head[1])
        if heap:
            hh = heap[0]
            if bar is None or (hh[0], hh[1]) < bar:
                bar = (hh[0], hh[1])
        if bar is not None:
            bar_t, bar_s = bar
            lo = int(np.searchsorted(times, bar_t, side="left"))
            hi = int(np.searchsorted(times, bar_t, side="right"))
            if hi > lo:
                # Split the time tie on seq (the run is (time, seq)-sorted).
                lo += int(np.searchsorted(soa.seqs[lo:hi], bar_s))
            if lo < limit:
                limit = lo
        if until is not None:
            in_range = int(np.searchsorted(times, until, side="right"))
            if in_range < limit:
                limit = in_range
        ev_positions = soa.ev_positions
        ev_ptr = soa.ev_ptr
        n_ev = ev_positions.size
        fired = soa.fired
        i = soa.pos
        while i < limit:
            nxt = int(ev_positions[ev_ptr]) if ev_ptr < n_ev else n
            if nxt >= limit:
                # Pure anonymous-tick span to the limit: count each tick
                # and land the clock on the last one.
                fired += limit - i
                self._now = float(times[limit - 1])
                i = limit
                break
            if nxt > i:
                fired += nxt - i
                i = nxt
            event = events[i]
            self._now = float(times[i])
            i += 1
            ev_ptr += 1
            fired += 1
            if type(event) is TickBatch:
                soa.pos = i
                soa.ev_ptr = ev_ptr
                soa.fired = fired
                self._soa_head = soa.head()
                event._complete_now()
                return
            if event.callbacks:
                soa.pos = i
                soa.ev_ptr = ev_ptr
                soa.fired = fired
                self._soa_head = soa.head()
                event._process_callbacks()
                return
            # Callback-free Event: firing is just the state flip
            # Event._process_callbacks would have performed.
            event._state = _PROCESSED
        soa.pos = i
        soa.ev_ptr = ev_ptr
        soa.fired = fired
        self._soa_head = soa.head()

    def _run_guarded(self, until: Optional[float],
                     max_events: Optional[int],
                     max_wall_seconds: Optional[float]) -> float:
        """Instrumented twin of the ``run()`` loop: watchdog and tracing.

        Fires the exact same event sequence (it delegates to ``step()``).
        Wall time is sampled every ``_WATCHDOG_CHECK_EVERY`` steps to
        keep the per-event cost at one integer compare.  With a tracer
        attached it also counts events and samples the pending-queue
        depth every ``_TRACE_SAMPLE_EVERY`` steps, plus once when the
        run returns, as an ``engine`` counter track.  Kept separate so
        the untraced, unguarded loop stays branch-free.
        """
        step = self.step
        crashed = self._crashed
        trace_on = self._trace_on
        tracer = self.tracer
        budget = float("inf") if max_events is None else int(max_events)
        deadline = (None if max_wall_seconds is None
                    else _time.monotonic() + max_wall_seconds)
        steps = 0
        try:
            while self._imm or self._heap or self._soa_head is not None:
                if until is not None and self.peek() > until:
                    self._now = until
                    break
                step()
                steps += 1
                if steps > budget:
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
                    tracer.counter("engine", "queue_depth", self._now,
                                   len(self._imm) + len(self._heap)
                                   + len(self._soa))
                if crashed:
                    self._raise_crashed(*crashed[0])
            else:
                if self._live_processes > 0 and until is None:
                    self._raise_deadlock()
        finally:
            if trace_on:
                self._steps_traced += steps
        if trace_on:
            tracer.counter("engine", "queue_depth", self._now,
                           len(self._imm) + len(self._heap) + len(self._soa))
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        t = float("inf")
        if self._imm:
            t = self._imm[0][0]
        if self._heap and self._heap[0][0] < t:
            t = self._heap[0][0]
        soa_head = self._soa_head
        if soa_head is not None and soa_head[0] < t:
            t = soa_head[0]
        return t

    @property
    def batched_pending(self) -> int:
        """Batch-scheduled (SoA) events still pending."""
        return len(self._soa)

    @property
    def batched_fired(self) -> int:
        """Batch-scheduled (SoA) events fired since construction/reset."""
        return self._soa.fired

    def reset(self) -> None:
        """Restore a pristine clock/queues in place (between benchmark reps).

        Equivalent to constructing a fresh :class:`Simulator` while
        keeping the object identity, so transports, communicators and
        resources holding a reference stay valid.
        """
        self._now = 0.0
        self._heap.clear()
        self._imm.clear()
        self._soa.clear()
        self._soa_head = None
        self._seq = count()
        self._live_processes = 0
        self._processes.clear()
        self._crashed.clear()
        self._steps_traced = 0
