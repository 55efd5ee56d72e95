"""Communicators: matching and point-to-point calls.

Matching semantics follow MPI: receives match sends on ``(source, tag)``
with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards, and messages between one
(sender, receiver, tag) triple never overtake each other (FIFO per send
order).

All ranks interact through :class:`CommHandle` objects — a rank-bound
view of the shared :class:`Communicator`.  Destination/source ranks in
the API are *communicator-local*.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.machine.locality import Protocol, TransportKind
from repro.mpi.buffers import DeviceBuffer, Payload, is_device, payload_nbytes
from repro.mpi.request import Request, waitall
from repro.mpi.transport import Transport
from repro.sim.events import AllOf, Event

ANY_SOURCE = -1
ANY_TAG = -1

#: Tags are ints in ``[0, _TAG_LIMIT)`` (a receive may also pass ``ANY_TAG``).
_TAG_LIMIT = 1 << 31


class Message:
    """A delivered message: payload plus envelope."""

    __slots__ = ("source", "tag", "data")

    def __init__(self, source: int, tag: int, data: Any) -> None:
        self.source = source
        self.tag = tag
        self.data = data

    @property
    def nbytes(self) -> int:
        return payload_nbytes(self.data)


class _SendOp:
    __slots__ = ("src", "tag", "payload", "nbytes", "kind", "protocol",
                 "t_send", "event", "timing")

    def __init__(self, src: int, tag: int, payload: Payload, nbytes: int,
                 kind: TransportKind, protocol: Protocol, t_send: float,
                 event: Event) -> None:
        self.src = src
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.kind = kind
        self.protocol = protocol
        self.t_send = t_send
        self.event = event
        self.timing = None  # resolved eagerly for eager/short, at match for rdv


class _RecvOp:
    __slots__ = ("source", "tag", "t_post", "event")

    def __init__(self, source: int, tag: int, t_post: float, event: Event) -> None:
        self.source = source
        self.tag = tag
        self.t_post = t_post
        self.event = event

    def matches(self, send: _SendOp) -> bool:
        if self.source != ANY_SOURCE and self.source != send.src:
            return False
        if self.tag != ANY_TAG and self.tag != send.tag:
            return False
        return True


class _Matcher:
    """Per-destination matching queues (posted recvs + unexpected sends)."""

    __slots__ = ("comm", "dest", "sends", "recvs")

    def __init__(self, comm: "Communicator", dest: int) -> None:
        self.comm = comm
        self.dest = dest
        self.sends: List[_SendOp] = []
        self.recvs: List[_RecvOp] = []

    def post_send(self, op: _SendOp) -> None:
        for i, recv in enumerate(self.recvs):
            if recv.matches(op):
                del self.recvs[i]
                self.comm._complete(self.dest, op, recv, scanned=i)
                return
        self.sends.append(op)

    def post_recv(self, op: _RecvOp) -> None:
        for i, send in enumerate(self.sends):
            if op.matches(send):
                del self.sends[i]
                self.comm._complete(self.dest, send, op, scanned=i)
                return
        self.recvs.append(op)


class Communicator:
    """A group of ranks able to exchange messages.

    Constructed by :class:`repro.mpi.job.SimJob` (world), or directly
    over any subset of world ranks on the same transport.
    """

    def __init__(self, transport: Transport, world_ranks: Sequence[int],
                 name: str = "comm") -> None:
        self.transport = transport
        self.sim = transport.sim
        self.layout = transport.layout
        self.world_ranks: Tuple[int, ...] = tuple(world_ranks)
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise ValueError(f"duplicate ranks in communicator {name!r}")
        self.name = name
        self.size = len(self.world_ranks)
        self._local_of: Dict[int, int] = {
            w: i for i, w in enumerate(self.world_ranks)
        }
        self._matchers = [_Matcher(self, d) for d in range(self.size)]
        self._handles: Dict[int, CommHandle] = {}

    def reset_state(self) -> None:
        """Drop matching state for an independent rerun.

        Used by the :class:`~repro.mpi.job.SimJob` in-place reset path:
        clears the posted-send/recv queues, so a rerun is observably
        identical to one on a freshly built communicator.
        """
        for matcher in self._matchers:
            matcher.sends.clear()
            matcher.recvs.clear()

    # -- handles ----------------------------------------------------------------
    def handle(self, world_rank: int) -> "CommHandle":
        """Rank-bound view for ``world_rank`` (must be a member)."""
        if world_rank not in self._local_of:
            raise ValueError(
                f"world rank {world_rank} is not in communicator {self.name!r}"
            )
        if world_rank not in self._handles:
            self._handles[world_rank] = CommHandle(self, world_rank)
        return self._handles[world_rank]

    def local_rank(self, world_rank: int) -> int:
        return self._local_of[world_rank]

    def contains(self, world_rank: int) -> bool:
        return world_rank in self._local_of

    # -- p2p core ----------------------------------------------------------------
    def _isend(self, src_local: int, payload: Payload, dest: int, tag: int,
               nbytes: Optional[int]) -> Request:
        if not 0 <= dest < self.size:
            raise ValueError(
                f"dest {dest} out of range for {self.name!r} (size {self.size})"
            )
        if not 0 <= tag < _TAG_LIMIT:
            raise ValueError(f"invalid tag {tag}")
        size = payload_nbytes(payload, nbytes)
        kind = TransportKind.GPU if is_device(payload) else TransportKind.CPU
        sim = self.sim
        now = sim._now
        # Static name: per-message f-string formatting is measurable in
        # message-heavy runs and the name is only a repr/debug aid.
        event = Event(sim, name="send")
        transport = self.transport
        protocol = transport.protocol_for(kind, size)
        op = _SendOp(src_local, tag, payload, size, kind, protocol, now,
                     event)
        if protocol is not Protocol.RENDEZVOUS:
            # Eager/short: transfer starts now; resolve timing immediately.
            op.timing = timing = transport.resolve(
                self.world_ranks[src_local], self.world_ranks[dest],
                size, kind, protocol, t_send=now, t_match=now, tag=tag)
            if timing.error is None:
                event.succeed(None, delay=timing.send_complete - now)
            else:
                # Exhausted retransmit budget: the send request fails at
                # the give-up time and the error surfaces in the sender's
                # program (never a silent hang).
                event.fail(timing.error,
                           delay=max(0.0, timing.send_complete - now))
        self._matchers[dest].post_send(op)
        return Request(sim, "send", event)

    def _irecv(self, dest_local: int, source: int, tag: int) -> Request:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range for {self.name!r}")
        if tag != ANY_TAG and not 0 <= tag < _TAG_LIMIT:
            raise ValueError(f"invalid tag {tag}")
        sim = self.sim
        event = Event(sim, name="recv")
        self._matchers[dest_local].post_recv(
            _RecvOp(source, tag, sim._now, event))
        return Request(sim, "recv", event)

    def _complete(self, dest_local: int, send: _SendOp, recv: _RecvOp,
                  scanned: int = 0) -> None:
        """A send/recv pair has matched: schedule both completions.

        ``scanned`` is the number of queue entries inspected before the
        match — with a nonzero transport ``queue_search_cost`` it delays
        the receiver (paper Section 2.2, ref [11]).
        """
        now = self.sim._now
        timing = send.timing
        if timing is None:
            # Rendezvous: handshake point is the match time.
            t_match = max(send.t_send, recv.t_post, now)
            send.timing = timing = self.transport.resolve(
                self.world_ranks[send.src], self.world_ranks[dest_local],
                send.nbytes, send.kind, send.protocol, t_send=send.t_send,
                t_match=t_match, tag=send.tag)
            if timing.error is None:
                send.event.succeed(None, delay=timing.send_complete - now)
            else:
                send.event.fail(timing.error,
                                delay=max(0.0, timing.send_complete - now))
        if timing.error is not None:
            # The message never arrives: fail the receive at the moment
            # the sender gave up, carrying the same DeliveryError.
            recv.event.fail(timing.error,
                            delay=max(0.0, timing.delivery - now))
            return
        payload = send.payload
        if isinstance(payload, DeviceBuffer):
            dest_gpu = self.layout.global_gpu_of(self.world_ranks[dest_local])
            if dest_gpu is None:
                raise RuntimeError(
                    f"device-aware message to non-GPU-owner rank "
                    f"{self.world_ranks[dest_local]} (local {dest_local} in "
                    f"{self.name!r})"
                )
            payload = payload.to_gpu(dest_gpu)
        done = max(timing.delivery, recv.t_post)
        done += scanned * self.transport.queue_search_cost
        recv.event.succeed(Message(send.src, send.tag, payload),
                           delay=max(0.0, done - now))


class CommHandle:
    """Rank-bound view of a :class:`Communicator` — the SPMD API."""

    def __init__(self, comm: Communicator, world_rank: int) -> None:
        self.comm = comm
        self.world_rank = world_rank
        self.rank = comm.local_rank(world_rank)

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def sim(self):
        return self.comm.sim

    # -- point-to-point ---------------------------------------------------------
    def isend(self, payload: Payload, dest: int, tag: int = 0,
              nbytes: Optional[int] = None) -> Request:
        """Nonblocking send of ``payload`` to comm-local rank ``dest``."""
        return self.comm._isend(self.rank, payload, dest, tag, nbytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; completion value is a :class:`Message`."""
        return self.comm._irecv(self.rank, source, tag)

    def send(self, payload: Payload, dest: int, tag: int = 0,
             nbytes: Optional[int] = None) -> Event:
        """Blocking send: ``yield`` the returned event."""
        return self.isend(payload, dest, tag, nbytes).wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Blocking receive: ``yield`` evaluates to a :class:`Message`."""
        return self.irecv(source, tag).wait()

    def waitall(self, requests: Iterable[Request]) -> AllOf:
        """Event firing when every request completes (``MPI_Waitall``)."""
        return waitall(self.sim, requests)
