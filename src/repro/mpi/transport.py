"""Message cost engine: postal parameters + NIC injection contention.

For every message the transport decides

* the transport kind (CPU for host payloads, GPU for device-aware),
* the protocol (short / eager / rendezvous by size thresholds),
* the postal cost ``alpha + beta * s`` for the (kind, protocol,
  locality) path, optionally perturbed by a seeded noise model,
* for off-node messages, the additional serialization through the
  sending node's NIC byte server — concurrent senders on a node share
  injection bandwidth ``R_N``, which is exactly the contention the
  max-rate model (paper eq. 2.2) describes analytically.

Timeline produced for a message of ``s`` bytes sent at ``t_send`` and
matched to a receive posted at ``t_post``:

eager / short
    the message enters the sender's *pipe* (see below) at
    ``start = max(t_send, pipe free)``; the send request completes at
    ``start + alpha`` (local overhead only); delivery at
    ``max(start + alpha + beta*s, nic_drain)``; the receive completes
    at ``max(t_post, delivery)``.
rendezvous
    the transfer starts at ``start = max(t_send, t_post, pipe free)``;
    delivery as above; both sides complete at delivery (synchronizing
    protocol).

Two serialization points shape contention:

* **per-rank send pipe** — a process's messages serialize through its
  send pipe, each occupying it for ``o * alpha + beta * s`` where
  ``o`` is the *overhead fraction* (LogP's sender overhead ``o`` as a
  fraction of the fitted one-way latency ``alpha``; default 0.3).
  Nonblocking sends therefore overlap their network latency but not
  their CPU injection overhead or per-byte transport — which is why
  measured many-message exchanges beat the max-rate model's
  ``alpha * m`` term, reproducing the paper's observation that the
  standard-communication models over-predict by up to an order of
  magnitude (Figure 4.2) while remaining upper bounds.
* **per-node NIC byte server** — ``nic_drain`` is the completion time
  of an ``s``-byte transfer through the sending node's FIFO NIC server
  (rate ``R_N``), entered after the sender-side overhead ``alpha``;
  concurrent senders on a node queue here, which is the max-rate
  injection limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.errors import DeliveryError
from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.machine.locality import Locality, Protocol, TransportKind
from repro.machine.topology import JobLayout
from repro.sim.engine import Simulator
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.resources import BandwidthResource, TokenBucket


#: user tag -> human-readable strategy phase name.  Strategies register
#: their tag constants via :func:`register_phase` (see
#: :mod:`repro.core.base`); unknown tags fall back to ``"tag N"``.
PHASE_NAMES: Dict[int, str] = {}


def register_phase(tag: int, name: str) -> int:
    """Name the strategy phase identified by ``tag``; returns ``tag``.

    Written as an identity-with-side-effect so tag constants register at
    their definition site: ``TAG_GATHER = register_phase(3, "gather")``.
    """
    PHASE_NAMES[tag] = name
    return tag


def phase_name(tag: int) -> str:
    """Human-readable phase name for a message tag."""
    return PHASE_NAMES.get(tag) or f"tag {tag}"


@dataclass
class TransportStats:
    """Aggregate counters for one job run."""

    messages: int = 0
    bytes_sent: int = 0
    off_node_messages: int = 0
    off_node_bytes: int = 0
    #: ``(protocol, locality) -> messages``: the one tally a message
    #: bumps; :attr:`by_protocol` / :attr:`by_locality` are views of it
    tally: Dict[Tuple[Protocol, Locality], int] = field(default_factory=dict)
    # -- resilience counters (all zero without an active fault plan) --------
    #: retransmits performed after a lost attempt
    retries: int = 0
    #: attempts detected lost (one rendezvous timeout each)
    timeouts: int = 0
    #: messages dropped after exhausting their retransmit budget
    gave_up: int = 0
    #: device-aware ranks that degraded to the staged path this run
    degraded: int = 0

    def _fold(self, axis: int) -> Counter:
        """The tally summed onto one axis of its key (a fresh ``Counter``)."""
        out: Counter = Counter()
        for key, n in self.tally.items():
            out[key[axis]] += n
        return out

    @property
    def by_protocol(self) -> "Counter[Protocol]":
        """Messages per protocol."""
        return self._fold(0)

    @property
    def by_locality(self) -> "Counter[Locality]":
        """Messages per locality."""
        return self._fold(1)


class MessageTiming:
    """Resolved times for one message (never mutated after creation)."""

    __slots__ = ("protocol", "kind", "locality", "send_complete", "delivery",
                 "attempts", "error")

    def __init__(self, protocol: Protocol, kind: TransportKind,
                 locality: Locality, send_complete: float, delivery: float,
                 attempts: int = 1,
                 error: Optional[DeliveryError] = None) -> None:
        self.protocol = protocol
        self.kind = kind
        self.locality = locality
        self.send_complete = send_complete  # when the sender's request fires
        self.delivery = delivery    # when the payload is at the receiver
        self.attempts = attempts    # transfer attempts (1 + retransmits)
        #: set when every attempt was lost: the DeliveryError to fail the
        #: send/recv events with (``send_complete``/``delivery`` then hold
        #: the give-up time)
        self.error = error


@dataclass(frozen=True)
class MessageTrace:
    """One traced message (recorded when tracing is enabled)."""

    src: int               # world rank
    dest: int              # world rank
    nbytes: int
    kind: TransportKind
    protocol: Protocol
    locality: Locality
    t_send: float          # isend call time
    t_start: float         # transfer start (after pipe/handshake)
    send_complete: float
    delivery: float
    tag: int = 0           # user tag (identifies the strategy phase)
    phase: str = ""        # named strategy phase (mapped from the tag)
    attempts: int = 1      # transfer attempts (1 + retransmits)
    failed: bool = False   # dropped after exhausting its retransmit budget

    @property
    def retries(self) -> int:
        """Retransmits performed for this message."""
        return self.attempts - 1

    @property
    def pipe_wait(self) -> float:
        """Time the message queued behind the sender's earlier sends."""
        return self.t_start - self.t_send

    @property
    def transfer_time(self) -> float:
        return self.delivery - self.t_start


class Transport:
    """Charges virtual time for messages on a :class:`JobLayout`."""

    #: fraction of the fitted latency alpha that is serializing sender
    #: CPU overhead (LogP's o); the rest overlaps across in-flight sends
    DEFAULT_OVERHEAD_FRACTION = 0.3

    def __init__(self, sim: Simulator, layout: JobLayout,
                 noise: Optional[NoiseModel] = None,
                 overhead_fraction: Optional[float] = None,
                 queue_search_cost: float = 0.0,
                 trace: bool = False,
                 faults: Optional[FaultPlan] = None) -> None:
        self.sim = sim
        self.layout = layout
        self.machine = layout.machine
        self.noise = noise if noise is not None else NoNoise()  # via property
        self.overhead_fraction = (self.DEFAULT_OVERHEAD_FRACTION
                                  if overhead_fraction is None
                                  else float(overhead_fraction))
        if not 0.0 <= self.overhead_fraction <= 1.0:
            raise ValueError(
                f"overhead_fraction must be in [0, 1], got "
                f"{self.overhead_fraction!r}"
            )
        # Optional queue-search penalty (paper Section 2.2, ref [11]):
        # matching a message that sits behind ``d`` earlier queue entries
        # costs an extra ``d * queue_search_cost`` seconds at the
        # receiver.  Disabled (0.0) in the paper's primary models.
        if queue_search_cost < 0:
            raise ValueError(
                f"queue_search_cost must be >= 0, got {queue_search_cost!r}"
            )
        self.queue_search_cost = float(queue_search_cost)
        #: per-message trace log (populated only when ``trace=True``)
        self.trace_enabled = bool(trace)
        self.trace_log: list = []
        self.stats = TransportStats()
        # Per-rank send pipes: a process transmits one message at a time.
        self._pipe_free = [0.0] * layout.size
        # One CPU-injection NIC byte server per node (Table 4 rate).
        rate = self.machine.nic.injection_rate * self.machine.nic.nics_per_node
        self._cpu_nics = [
            BandwidthResource(sim, rate, name=f"nic[{n}]")
            for n in range(layout.num_nodes)
        ]
        # GPU (device-aware) injection: unbounded on Lassen; modelled
        # only when the machine declares a finite GPU injection rate.
        gpu_rate = self.machine.nic.gpu_injection_rate
        if gpu_rate != float("inf"):
            self._gpu_nics: Optional[list] = [
                BandwidthResource(sim, gpu_rate * self.machine.nic.nics_per_node,
                                  name=f"gpu-nic[{n}]")
                for n in range(layout.num_nodes)
            ]
        else:
            self._gpu_nics = None
        # -- hot-path caches -------------------------------------------------
        # Route cache keyed (kind, locality, protocol bucket): the per-
        # message path through ``comm_params.for_message`` collapses to a
        # threshold select + one dict hit on a prebuilt table.
        params = self.machine.comm_params
        self._select_protocol = params.thresholds.select
        self._route: Dict[Tuple[TransportKind, Locality, Protocol],
                          object] = {
            (kind, loc, proto): link
            for (kind, proto, loc), link in params.table.items()
        }
        self._node_of = layout._node_of
        self._locality_rows = layout._locality_rows
        self.set_faults(faults if faults is not None else NO_FAULTS)

    # -- noise ---------------------------------------------------------------
    @property
    def noise(self) -> NoiseModel:
        return self._noise

    @noise.setter
    def noise(self, model: NoiseModel) -> None:
        # Track identity noise so the hot path can skip perturb() calls
        # entirely (NoNoise returns its input unchanged).
        self._noise = model
        self._noiseless = isinstance(model, NoNoise)

    # -- faults --------------------------------------------------------------
    @property
    def faults(self) -> FaultPlan:
        return self._faults

    def set_faults(self, plan: FaultPlan) -> None:
        """Install ``plan`` (usually an already-forked per-run plan).

        Precomputes everything the per-message hot path needs: a cached
        activity boolean, the per-rank straggler factor table, the loss
        window, NIC degradation windows and the pacing token buckets.
        With :data:`~repro.faults.plan.NO_FAULTS` the per-message cost is
        a single cached-boolean branch and no RNG is constructed.
        """
        self._faults = plan
        active = plan.active
        self._fault_free = not active
        self._pace: Optional[List[TokenBucket]] = None
        if not active:
            self._fault_rng = None
            self._straggler: Optional[List[float]] = None
            self._loss = None
            self._outages: Tuple = ()
            self._retry = None
            for nic in self._cpu_nics:
                nic.set_degradation(None)
            if self._gpu_nics is not None:
                for nic in self._gpu_nics:
                    nic.set_degradation(None)
            return
        self._fault_rng = plan.rng()
        factors = [1.0] * self.layout.size
        for s in plan.stragglers:
            if s.rank < self.layout.size:
                factors[s.rank] = s.factor
        self._straggler = factors
        self._loss = plan.loss
        self._outages = plan.outages
        self._retry = plan.retry
        for node, nic in enumerate(self._cpu_nics):
            windows = [(d.t0, d.t1, d.factor)
                       for d in sorted(plan.degradations,
                                       key=lambda d: (d.t0, d.t1))
                       if d.node is None or d.node == node]
            nic.set_degradation(windows or None)
        if plan.pacing is not None:
            self._pace = [TokenBucket(self.sim, plan.pacing.rate,
                                      plan.pacing.burst)
                          for _ in range(self.layout.num_nodes)]

    def device_path_ok(self, t: Optional[float] = None,
                       node: Optional[int] = None) -> bool:
        """Whether the GPU/copy-engine data path is healthy at time ``t``.

        Strategies query this at program start to decide between their
        device-aware and staged-through-host variants; the selector uses
        it to exclude device-aware candidates while an outage is active.
        ``node=None`` asks about the job as a whole (any affected node
        counts as unhealthy — a single dead copy engine stalls the
        collective exchange).
        """
        if self._fault_free or not self._outages:
            return True
        when = self.sim.now if t is None else t
        for outage in self._outages:
            if outage.t0 <= when < outage.t1 and (
                    node is None or outage.node is None
                    or outage.node == node):
                return False
        return True

    def note_degraded(self, rank: int) -> None:
        """Record that ``rank`` fell back to its staged data path."""
        self.stats.degraded += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            # On the rank's phase lane so the fallback is visible next to
            # the strategy phases it affects.
            tracer.instant(f"rank{rank}/phase", "degraded-to-staged",
                           self.sim.now, cat="fault")

    # -- introspection -------------------------------------------------------
    def nic_of(self, node: int, kind: TransportKind) -> Optional[BandwidthResource]:
        if kind is TransportKind.GPU:
            return None if self._gpu_nics is None else self._gpu_nics[node]
        return self._cpu_nics[node]

    def protocol_for(self, kind: TransportKind, nbytes: int) -> Protocol:
        return self._select_protocol(kind, nbytes)

    # -- costing ------------------------------------------------------------------
    def resolve(self, src: int, dest: int, nbytes: int,
                kind: TransportKind, protocol: Protocol, t_send: float,
                t_match: float, tag: int = 0) -> MessageTiming:
        """Compute and book the timing of one matched message.

        ``t_match`` is the time the handshake point is reached (for
        rendezvous this is ``max(send, recv posted)``; eager/short pass
        ``t_send``).  NIC bookings happen here, in call order, so the
        simulation is deterministic.  ``protocol`` is what
        :meth:`protocol_for` returns for ``(kind, nbytes)``: the caller
        needs it first, to know whether to resolve at send or at match.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        rows = self._locality_rows
        locality = (rows[src][dest] if rows is not None
                    else self.layout.locality(src, dest))
        synchronous = protocol is Protocol.RENDEZVOUS
        link = self._route[(kind, locality, protocol)]
        alpha = link.alpha
        base = alpha + link.beta * nbytes
        if not self._noiseless:
            base = self._noise.perturb(base)
        fault_free = self._fault_free
        if not fault_free:
            straggle = self._straggler[src]
            if straggle != 1.0:
                base *= straggle

        ready = t_match if synchronous else t_send
        start = max(ready, self._pipe_free[src])
        # Pipe occupancy: serializing CPU overhead + per-byte transport;
        # the remaining (1 - o) * alpha of latency overlaps across sends.
        # Charged once regardless of retransmits (the retry gaps leave
        # the pipe idle for later sends).
        occupancy = max(base - (1.0 - self.overhead_fraction) * alpha, 0.0)
        self._pipe_free[src] = start + occupancy
        attempts = 1
        error: Optional[DeliveryError] = None
        if fault_free:
            delivery = start + base
            if locality is Locality.OFF_NODE:
                nics = (self._gpu_nics if kind is TransportKind.GPU
                        else self._cpu_nics)
                if nics is not None:
                    nic_done = nics[self._node_of[src]].completion_time(
                        nbytes, start=start + alpha)
                    delivery = max(delivery, nic_done)
        else:
            delivery, attempts, error = self._resolve_attempts(
                src, dest, nbytes, kind, protocol, locality, start, alpha,
                base)
        # A drop is learnt of by both sides at the give-up time.
        send_complete = (delivery if synchronous or error is not None
                         else start + alpha)
        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += nbytes
        if locality is Locality.OFF_NODE:
            stats.off_node_messages += 1
            stats.off_node_bytes += nbytes
        key = (protocol, locality)
        stats.tally[key] = stats.tally.get(key, 0) + 1
        tracer = self.sim.tracer
        if self.trace_enabled or tracer.enabled:
            phase = phase_name(tag)
            if self.trace_enabled:
                self.trace_log.append(MessageTrace(
                    src=src, dest=dest, nbytes=nbytes, kind=kind,
                    protocol=protocol, locality=locality, t_send=t_send,
                    t_start=start, send_complete=send_complete,
                    delivery=delivery, tag=tag, phase=phase,
                    attempts=attempts, failed=error is not None,
                ))
            if tracer.enabled:
                # One span per message on the sender's track, covering the
                # serializing pipe residency (spans on a rank track never
                # overlap, so Perfetto renders a clean per-rank Gantt).
                tracer.span(
                    f"rank{src}", phase, start, start + occupancy, cat="msg",
                    args={"dest": dest, "nbytes": nbytes,
                          "protocol": protocol.name,
                          "locality": locality.name,
                          "send_complete": send_complete,
                          "delivery": delivery})
        return MessageTiming(protocol, kind, locality, send_complete,
                             delivery, attempts, error)

    def _resolve_attempts(self, src: int, dest: int, nbytes: int,
                          kind: TransportKind, protocol: Protocol,
                          locality: Locality, start: float, alpha: float,
                          base: float
                          ) -> Tuple[float, int, Optional[DeliveryError]]:
        """Loss / timeout / retransmit loop (active fault plan only).

        Every attempt — lost or not — books the sending node's NIC, so
        retransmitted bytes consume real injection bandwidth and show up
        in byte-conservation accounting.  A lost attempt is detected
        ``retry.timeout`` after its transfer start; retransmit ``k``
        backs off ``min(backoff * 2**k, backoff_cap)`` more.  When the
        budget is exhausted the message fails with a
        :class:`~repro.faults.errors.DeliveryError` at the final
        detection time.
        """
        loss_p = 0.0
        loss = self._loss
        if (loss is not None and locality is Locality.OFF_NODE
                and loss.t0 <= start < loss.t1):
            loss_p = loss.prob
        if kind is TransportKind.GPU and not self.device_path_ok(t=start):
            # Dead copy engine: device payloads never make it out.
            loss_p = 1.0
        node = self._node_of[src]
        nic = (self.nic_of(node, kind)
               if locality is Locality.OFF_NODE else None)
        pace = self._pace
        pacing = self._faults.pacing
        rng = self._fault_rng
        retry = self._retry
        tracer = self.sim.tracer
        attempt = start
        attempts = 0
        k = 0
        while True:
            attempts += 1
            lost = loss_p > 0.0 and rng.random() < loss_p
            nic_done = None
            if nic is not None:
                entry = attempt + alpha
                if pace is not None and pacing.t0 <= entry < pacing.t1:
                    entry = pace[node].take_at(nbytes, entry)
                nic_done = nic.completion_time(nbytes, start=entry)
            if not lost:
                delivery = attempt + base
                if nic_done is not None and nic_done > delivery:
                    delivery = nic_done
                return delivery, attempts, None
            detect = attempt + retry.timeout
            self.stats.timeouts += 1
            if tracer.enabled:
                tracer.instant(f"rank{src}", "timeout", detect, cat="fault",
                               args={"dest": dest, "nbytes": nbytes,
                                     "attempt": attempts})
            if k >= retry.max_retries:
                self.stats.gave_up += 1
                if tracer.enabled:
                    tracer.instant(f"rank{src}", "gave-up", detect,
                                   cat="fault",
                                   args={"dest": dest, "nbytes": nbytes,
                                         "attempts": attempts})
                return detect, attempts, DeliveryError(
                    src, dest, nbytes, protocol, locality, attempts, detect)
            backoff = min(retry.backoff * (1 << k), retry.backoff_cap)
            attempt = detect + backoff
            k += 1
            self.stats.retries += 1
            if tracer.enabled:
                tracer.instant(f"rank{src}", "retransmit", attempt,
                               cat="fault",
                               args={"dest": dest, "nbytes": nbytes,
                                     "attempt": attempts + 1})

    def reset_nics(self) -> None:
        """Drop NIC/pipe queue state (between independent benchmark reps)."""
        for nic in self._cpu_nics:
            nic.reset()
        if self._gpu_nics is not None:
            for nic in self._gpu_nics:
                nic.reset()
        if self._pace is not None:
            for bucket in self._pace:
                bucket.reset()
        self._pipe_free = [0.0] * self.layout.size

    def reset_stats(self) -> None:
        """Clear aggregate counters (the trace log is left untouched).

        ``reset_nics()`` only resets queue state; benchmark rep loops
        call this as well so per-rep statistics do not leak across
        repetitions.  Call :meth:`clear_trace` to also drop the message
        trace — the two are independent so a per-rep stats reset no
        longer silently discards an accumulated trace.
        """
        self.stats = TransportStats()

    def clear_trace(self) -> None:
        """Drop the accumulated message trace log."""
        self.trace_log.clear()
