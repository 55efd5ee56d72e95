"""Event primitives for the DES kernel.

An :class:`Event` is the unit of synchronization: processes ``yield``
events and are resumed when the event *fires*.  Events carry a value
(delivered to the resuming generator) and an ok/failed flag (failed events
raise inside the waiting generator).

Events move through three states:

``PENDING``
    Created but not yet scheduled to fire.
``TRIGGERED``
    Scheduled on the simulator heap with a firing time.
``PROCESSED``
    Fired; callbacks have run.  Yielding a processed event resumes the
    process immediately (at the current virtual time) with the stored
    value.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class EventState(enum.Enum):
    """Lifecycle state of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


# hot-path aliases: module globals resolve faster than enum attributes
_TRIGGERED = EventState.TRIGGERED
_PROCESSED = EventState.PROCESSED


class Event:
    """A one-shot occurrence in virtual time.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: callables invoked with this event when it fires
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = EventState.PENDING

    # -- state inspection -------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is EventState.PENDING

    @property
    def triggered(self) -> bool:
        return self._state is EventState.TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once fired)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (only meaningful once fired)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self._state = EventState.TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``.

        The exception is raised inside every process waiting on the event.
        """
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = EventState.TRIGGERED
        self.sim._schedule(self, delay)
        return self

    # -- engine hook --------------------------------------------------------
    def _process_callbacks(self) -> None:
        """Run callbacks.  Called exactly once by the simulator loop."""
        self._state = _PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state.value}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Timeouts are the engine's hottest allocation: skip the name
        # formatting (repr falls back to the class name) and trigger
        # inline — a fresh event is PENDING by construction, so the
        # succeed() state check is redundant.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self.delay = delay = float(delay)
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        sim._schedule(self, delay)


class AllOf(Event):
    """Fires when *all* child events have fired successfully.

    Value is the list of child values in child order.  The first child
    to fail fails the condition with that child's exception; children
    firing after that are ignored.
    """

    __slots__ = ("events", "_n_fired", "_done")

    def __init__(self, sim: "Simulator", events: Sequence[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events: List[Event] = list(events)
        self._n_fired = 0
        self._done = False
        if not self.events:
            self.succeed([])
            return
        child_fired = self._child_fired  # one bound method for all children
        for ev in self.events:
            if ev._state is _PROCESSED:
                # Fired before we subscribed: account for it immediately.
                child_fired(ev)
            else:
                ev.callbacks.append(child_fired)

    def _child_fired(self, event: Event) -> None:
        if self._done:
            return
        if not event._ok:
            self._done = True
            self.fail(event._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self._done = True
            self.succeed([ev._value for ev in self.events])


def ensure_event(sim: "Simulator", obj: Any) -> Event:
    """Coerce ``obj`` into an :class:`Event` (pass-through for events)."""
    if isinstance(obj, Event):
        return obj
    raise TypeError(
        f"process yielded {obj!r}; processes must yield Event instances"
    )
