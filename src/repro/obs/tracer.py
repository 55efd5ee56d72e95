"""Span/event tracer: the recording half of the observability layer.

The tracer API is deliberately *completion-based*: in a discrete-event
simulation every interval's start **and** end virtual times are known at
the moment the interval is booked (a message's delivery time is computed
when the send resolves, a NIC transfer's finish when it enters the byte
server), so instrumentation records whole :class:`SpanRecord` objects
instead of paired begin/end calls.  Three record kinds exist:

``span``
    A named interval ``[t0, t1]`` on a *track* (one track per rank, per
    NIC, per strategy phase lane, ...), with free-form ``args``.
``instant``
    A point event (process start/finish, markers).
``counter``
    A sampled time series (engine queue depth, resource occupancy).

Two implementations:

:class:`NullTracer`
    The default.  ``enabled`` is ``False`` and every method is a no-op;
    hot paths guard emission with a single cached boolean (e.g.
    ``Simulator._trace_on``), so the disabled path costs one branch —
    the pay-for-what-you-use contract.  The untraced ``perfbench/``
    workloads time that path; their traced runs report
    ``obs.tracer_overhead`` and ``trace.overhead``.
:class:`MemoryTracer`
    Appends records to in-memory lists, consumed by the exporters in
    :mod:`repro.obs.export`.

Tracing never perturbs simulated virtual times: recording is purely
observational, and ``tests/obs`` asserts traced runs stay bit-identical
to untraced ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class SpanRecord:
    """One completed interval on a track."""

    track: str
    name: str
    t0: float
    t1: float
    cat: str = ""
    args: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class InstantRecord:
    """One point event on a track."""

    track: str
    name: str
    t: float
    cat: str = ""
    args: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class CounterRecord:
    """One sample of a named time series on a track."""

    track: str
    name: str
    t: float
    value: float


class NullTracer:
    """Disabled tracer: every record call is a no-op.

    ``enabled`` is a class attribute so instrumented code can cache it
    once (``self._trace_on = tracer.enabled``) and pay a single local
    boolean test per potential record site.
    """

    enabled = False
    #: opt-in high-volume detail (per-resume instants); see MemoryTracer
    fine = False

    def span(self, track: str, name: str, t0: float, t1: float,
             cat: str = "", args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def instant(self, track: str, name: str, t: float,
                cat: str = "", args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        pass

    def clear(self) -> None:
        pass


#: shared default instance — engine/transport code compares against
#: ``tracer.enabled`` rather than identity, so any NullTracer works
NULL_TRACER = NullTracer()


class MemoryTracer(NullTracer):
    """In-memory recording tracer.

    Parameters
    ----------
    fine:
        Also record high-volume per-event detail where instrumented code
        offers it (e.g. one instant per process resumption).  Off by
        default: fine records multiply trace size by the event count.
    """

    enabled = True

    def __init__(self, fine: bool = False) -> None:
        self.fine = bool(fine)
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counters: List[CounterRecord] = []

    def span(self, track: str, name: str, t0: float, t1: float,
             cat: str = "", args: Optional[Dict[str, Any]] = None) -> None:
        self.spans.append(SpanRecord(track, name, t0, t1, cat, args))

    def instant(self, track: str, name: str, t: float,
                cat: str = "", args: Optional[Dict[str, Any]] = None) -> None:
        self.instants.append(InstantRecord(track, name, t, cat, args))

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        self.counters.append(CounterRecord(track, name, t, float(value)))

    def clear(self) -> None:
        """Drop all records (a fresh run reuses the tracer object)."""
        self.spans.clear()
        self.instants.clear()
        self.counters.clear()

    # -- introspection helpers ------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    def tracks(self) -> List[str]:
        """Distinct track names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for rec in self.spans:
            seen.setdefault(rec.track)
        for rec in self.instants:
            seen.setdefault(rec.track)
        for rec in self.counters:
            seen.setdefault(rec.track)
        return list(seen)

    def spans_on(self, track: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.track == track]

    # -- cross-process merging ------------------------------------------------
    def to_payload(self) -> Dict[str, list]:
        """Picklable snapshot of all records (for worker -> parent IPC).

        Record dataclasses are already picklable; the payload is a plain
        dict so it can also round-trip through JSON-ish transports.
        """
        return {
            "spans": list(self.spans),
            "instants": list(self.instants),
            "counters": list(self.counters),
        }

    def to_snapshot(self) -> Dict[str, list]:
        """JSON-ready snapshot: every record as a plain dict.

        Unlike :meth:`to_payload` (which keeps the dataclasses for
        cheap pickling), this is pure JSON data in record-append order
        with a fixed field set per record.
        """
        from dataclasses import asdict

        return {
            "spans": [asdict(r) for r in self.spans],
            "instants": [asdict(r) for r in self.instants],
            "counters": [asdict(r) for r in self.counters],
        }

    def canonical_json(self) -> str:
        """Byte-deterministic serialization of :meth:`to_snapshot`.

        Sorted keys and shortest-round-trip float formatting via
        :func:`repro.obs.ledger.canonical_dumps`: two tracers holding
        the same records serialize to identical bytes — what the
        trace-transparency and parallel-equivalence tests compare.
        """
        from repro.obs.ledger import canonical_dumps

        return canonical_dumps(self.to_snapshot())

    def extend(self, payload: "MemoryTracer | Dict[str, list]") -> None:
        """Append another tracer's records (or a :meth:`to_payload`).

        The parallel sweep executor uses this to fold per-worker traces
        back into the parent tracer; appending payloads in task order
        reproduces the record order of an in-process serial run.
        """
        if isinstance(payload, MemoryTracer):
            payload = payload.to_payload()
        self.spans.extend(payload.get("spans", ()))
        self.instants.extend(payload.get("instants", ()))
        self.counters.extend(payload.get("counters", ()))


# ---------------------------------------------------------------------------
# Phase-span helpers (used by RankContext.phase)
# ---------------------------------------------------------------------------
class _NullPhase:
    """Reusable no-op context manager for untraced phase blocks."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_PHASE = _NullPhase()


class PhaseSpan:
    """Context manager recording ``[enter, exit]`` as one span.

    ``sim`` is duck-typed: anything with ``.now`` and ``.tracer``.  Safe
    to use around ``yield`` statements inside generator processes — the
    span simply covers the virtual time between entry and exit.
    """

    __slots__ = ("sim", "track", "name", "t0")

    def __init__(self, sim: Any, track: str, name: str) -> None:
        self.sim = sim
        self.track = track
        self.name = name
        self.t0 = 0.0

    def __enter__(self) -> "PhaseSpan":
        self.t0 = self.sim.now
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.sim.tracer.span(self.track, self.name, self.t0, self.sim.now,
                             cat="phase")
        return False
