"""Shared-resource models for the DES kernel.

Both are booked by the transport while it costs a message; neither
creates an event — the caller schedules the completion it computes.

:class:`BandwidthResource`
    A FIFO *byte server*: transfers of ``n`` bytes occupy the server for
    ``n / rate`` seconds, back to back.  Used for the per-node NIC, so
    that concurrent off-node senders share injection bandwidth and the
    aggregate drains at exactly ``rate`` bytes/second — the phenomenon
    the max-rate model (paper eq. 2.2) captures analytically.
:class:`TokenBucket`
    A rate limiter admitting ``rate`` tokens/second with a burst bucket,
    used for fault-plan paced injection.

Observability: when the owning simulator has an enabled tracer
(:mod:`repro.obs`), every :class:`BandwidthResource` booking emits one
occupancy span on the server's track (``nic[k]``).  With the default
``NullTracer`` the site costs a single cached-boolean branch.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class BandwidthResource:
    """A FIFO byte server of fixed ``rate`` bytes/second.

    ``completion_time(nbytes)`` reserves the server for ``nbytes / rate``
    seconds starting when the server frees up, and returns the transfer's
    completion time.  Zero-byte transfers complete at the current front
    of the queue without consuming server time.

    The server conserves throughput: the sum of bytes completed over any
    busy interval equals ``rate * interval``, which is what makes
    max-rate injection behaviour emerge from contention.

    Fault injection (:mod:`repro.faults`) may install *degradation
    windows* via :meth:`set_degradation`: during ``[t0, t1)`` the server
    drains at ``factor * rate``.  With no windows installed the original
    single-division fast path is taken unchanged.
    """

    def __init__(self, sim: "Simulator", rate: float, name: str = "") -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.sim = sim
        self.rate = float(rate)
        self.name = name
        self._available_at: float = 0.0
        self._bytes_served: float = 0.0
        self._transfers: int = 0
        #: sorted, non-overlapping ``(t0, t1, factor)`` rate droops
        self._windows: Optional[Tuple[Tuple[float, float, float], ...]] = None

    def set_degradation(
            self,
            windows: Optional[Sequence[Tuple[float, float, float]]]) -> None:
        """Install (or clear, with ``None``) rate-degradation windows.

        ``windows`` are ``(t0, t1, factor)`` triples with
        ``0 < factor <= 1``; they must be sorted by start and must not
        overlap (the piecewise drain walks them once per transfer).
        """
        if not windows:
            self._windows = None
            return
        wins = tuple((float(t0), float(t1), float(f))
                     for t0, t1, f in windows)
        prev_end = -float("inf")
        for t0, t1, f in wins:
            if not t1 > t0:
                raise ValueError(f"empty degradation window [{t0!r}, {t1!r})")
            if not 0.0 < f <= 1.0:
                raise ValueError(
                    f"degradation factor must be in (0, 1], got {f!r}")
            if t0 < prev_end:
                raise ValueError(
                    f"degradation windows overlap or are unsorted at {t0!r}")
            prev_end = t1
        self._windows = wins

    def _piecewise_finish(self, begin: float, nbytes: float) -> float:
        """Drain ``nbytes`` starting at ``begin`` across rate windows."""
        t = begin
        remaining = float(nbytes)
        rate = self.rate
        for t0, t1, factor in self._windows:  # type: ignore[union-attr]
            if t1 <= t:
                continue
            if t0 > t:
                # Full-rate gap before this window.
                cap = (t0 - t) * rate
                if remaining <= cap:
                    return t + remaining / rate
                remaining -= cap
                t = t0
            degraded = rate * factor
            cap = (t1 - t) * degraded
            if remaining <= cap:
                return t + remaining / degraded
            remaining -= cap
            t = t1
        return t + remaining / rate

    @property
    def available_at(self) -> float:
        """Virtual time at which the server next becomes idle."""
        return max(self._available_at, self.sim.now)

    @property
    def bytes_served(self) -> float:
        return self._bytes_served

    @property
    def transfers(self) -> int:
        return self._transfers

    def completion_time(self, nbytes: float, start: Optional[float] = None) -> float:
        """Book a transfer and return its completion *time* (no event).

        ``nbytes`` must be >= 0.  ``start`` is the earliest virtual time
        the payload is ready to enter the server (default: now); the
        transfer begins at ``max(start, server free)``.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        begin = max(self.available_at, self.sim.now if start is None else start)
        if self._windows is None:
            finish = begin + nbytes / self.rate
        else:
            finish = self._piecewise_finish(begin, nbytes)
        self._available_at = finish
        self._bytes_served += nbytes
        self._transfers += 1
        if self.sim._trace_on and nbytes > 0:
            self.sim.tracer.span(self.name or "bw", "transfer", begin, finish,
                                 cat="nic", args={"nbytes": nbytes})
        return finish

    def reset(self) -> None:
        """Forget queue state and counters (used between benchmark reps)."""
        self._available_at = 0.0
        self._bytes_served = 0.0
        self._transfers = 0


class TokenBucket:
    """Token-bucket rate limiter (tokens/second with burst capacity)."""

    def __init__(self, sim: "Simulator", rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = 0.0

    def take_at(self, amount: float, when: float) -> float:
        """Model-side booking: consume ``amount`` tokens at virtual time
        ``when`` and return the time the tokens are available.

        It never creates an event — the transport uses it to gate NIC
        entry times while costing a message.  Bookings must be made in
        non-decreasing ``when`` order per bucket; earlier stamps are
        clamped to the last booking.
        """
        if amount < 0:
            raise ValueError("amount must be >= 0")
        when = max(float(when), self._stamp)
        tokens = min(self.burst,
                     self._tokens + (when - self._stamp) * self.rate)
        if amount <= tokens:
            self._tokens = tokens - amount
            self._stamp = when
            return when
        deficit = amount - tokens
        ready = when + deficit / self.rate
        self._tokens = 0.0
        self._stamp = ready
        return ready

    def reset(self) -> None:
        """Restore a full bucket at time zero (between benchmark reps)."""
        self._tokens = float(self.burst)
        self._stamp = 0.0
