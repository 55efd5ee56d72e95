"""Measured communication constants (the paper's Tables 2, 3 and 4).

Every cost the simulator charges and every analytic model evaluates is a
function of the constants collected here:

* :class:`CommParams` — postal-model ``(alpha, beta)`` per
  (transport kind, protocol, locality): Table 2.
* :class:`CopyParams` — ``cudaMemcpyAsync`` ``(alpha, beta)`` per
  (direction, #processes copying concurrently): Table 3.
* :class:`NicParams` — NIC injection rate ``R_N``: Table 4.
* :class:`ProtocolThresholds` — message-size cutoffs selecting
  short / eager / rendezvous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.machine.locality import CopyDirection, Locality, Protocol, TransportKind


@dataclass(frozen=True)
class LinkParams:
    """Postal-model parameters of a single data-flow path.

    ``time(s) = alpha + beta * s`` for a message of ``s`` bytes.
    """

    alpha: float  # latency [s]
    beta: float   # inverse bandwidth [s/byte]

    def __post_init__(self) -> None:
        # ``not (v >= 0)`` also catches NaN, which every comparison-based
        # check lets through.
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (v >= 0):
                raise ValueError(
                    f"link parameter {name!r} must be a finite number >= 0, "
                    f"got {v!r}")
            if v == float("inf"):
                raise ValueError(
                    f"link parameter {name!r} must be finite, got {v!r}")

    def time(self, nbytes: float) -> float:
        """Postal-model transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        return self.alpha + self.beta * nbytes

    @property
    def bandwidth(self) -> float:
        """Asymptotic bandwidth in bytes/second (``inf`` if beta == 0)."""
        return float("inf") if self.beta == 0 else 1.0 / self.beta


CommKey = Tuple[TransportKind, Protocol, Locality]


@dataclass(frozen=True)
class ProtocolThresholds:
    """Message-size cutoffs for protocol selection (bytes, inclusive).

    A CPU message of ``s`` bytes uses SHORT if ``s <= short_limit``,
    EAGER if ``s <= eager_limit``, else RENDEZVOUS.  GPU (device-aware)
    paths use EAGER up to ``gpu_eager_limit`` and RENDEZVOUS above —
    the short protocol is not used for device-aware communication on
    Lassen (paper Section 3).
    """

    short_limit: int = 512
    eager_limit: int = 8192
    gpu_eager_limit: int = 8192

    def __post_init__(self) -> None:
        if not (0 <= self.short_limit <= self.eager_limit):
            raise ValueError(
                f"need 0 <= short_limit <= eager_limit, got {self}"
            )
        if self.gpu_eager_limit < 0:
            raise ValueError(f"negative gpu_eager_limit in {self}")

    def select(self, kind: TransportKind, nbytes: float) -> Protocol:
        """Protocol used for an ``nbytes`` message on ``kind`` endpoints."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if kind is TransportKind.GPU:
            return Protocol.EAGER if nbytes <= self.gpu_eager_limit else Protocol.RENDEZVOUS
        if nbytes <= self.short_limit:
            return Protocol.SHORT
        if nbytes <= self.eager_limit:
            return Protocol.EAGER
        return Protocol.RENDEZVOUS


@dataclass(frozen=True)
class CommParams:
    """Table 2: postal parameters for every (kind, protocol, locality).

    The table must contain every CPU (protocol x locality) entry and
    every GPU (eager/rendezvous x locality) entry; GPU/short is invalid.
    """

    table: Dict[CommKey, LinkParams]
    thresholds: ProtocolThresholds = field(default_factory=ProtocolThresholds)

    def __post_init__(self) -> None:
        missing = [key for key in self.required_keys() if key not in self.table]
        if missing:
            raise ValueError(f"CommParams missing entries: {missing}")
        for key in self.table:
            kind, protocol, _loc = key
            if kind is TransportKind.GPU and protocol is Protocol.SHORT:
                raise ValueError(
                    "GPU transport has no short protocol (paper Section 3)"
                )
        # The link table: per (kind, locality, pre_posted) the two size
        # limits and three (alpha, beta) pairs in the order of
        # ProtocolThresholds.select.  GPU paths have no short protocol
        # (a never-true first limit); a pre-posted channel's rendezvous
        # pair is eager alpha + rendezvous beta (persistent_link).
        th, rows = self.thresholds, {}
        for kind, limits in ((TransportKind.CPU,
                              (th.short_limit, th.eager_limit)),
                             (TransportKind.GPU,
                              (-np.inf, th.gpu_eager_limit))):
            for loc in Locality:
                eager = self.link(kind, Protocol.EAGER, loc)
                rend = self.link(kind, Protocol.RENDEZVOUS, loc)
                first = self.table.get((kind, Protocol.SHORT, loc), eager)
                for pre_posted in (False, True):
                    last = eager if pre_posted else rend
                    row = np.array([*limits, first.alpha, eager.alpha,
                                    last.alpha, first.beta, eager.beta,
                                    rend.beta], dtype=float)
                    row.flags.writeable = False
                    rows[kind, loc, pre_posted] = row
        object.__setattr__(self, "_link_rows", rows)

    @staticmethod
    def required_keys() -> Tuple[CommKey, ...]:
        keys = []
        for protocol in Protocol:
            for loc in Locality:
                keys.append((TransportKind.CPU, protocol, loc))
        for protocol in (Protocol.EAGER, Protocol.RENDEZVOUS):
            for loc in Locality:
                keys.append((TransportKind.GPU, protocol, loc))
        return tuple(keys)

    def link(self, kind: TransportKind, protocol: Protocol,
             locality: Locality) -> LinkParams:
        """The ``(alpha, beta)`` pair for one path."""
        try:
            return self.table[(kind, protocol, locality)]
        except KeyError:
            raise KeyError(
                f"no parameters for kind={kind}, protocol={protocol}, "
                f"locality={locality}"
            ) from None

    def for_message(self, kind: TransportKind, locality: Locality,
                    nbytes: float) -> Tuple[Protocol, LinkParams]:
        """Protocol selection + parameters for a message of ``nbytes``."""
        protocol = self.thresholds.select(kind, nbytes)
        return protocol, self.link(kind, protocol, locality)

    def persistent_link(self, kind: TransportKind, locality: Locality,
                        nbytes: float) -> Tuple[Protocol, LinkParams]:
        """Link parameters for a *pre-posted* (persistent) channel.

        Persistent neighborhood collectives register buffers once at
        setup: per-iteration rendezvous messages skip the RTS/CTS
        handshake (they pay the **eager** latency) while keeping the
        zero-copy rendezvous bandwidth.  Below the rendezvous threshold
        the channel behaves exactly like the transient protocol chain —
        the degenerate case is bit-identical to :meth:`for_message`.
        """
        protocol, link = self.for_message(kind, locality, nbytes)
        if protocol is Protocol.RENDEZVOUS:
            eager = self.link(kind, Protocol.EAGER, locality)
            return protocol, LinkParams(eager.alpha, link.beta)
        return protocol, link

    def time(self, kind: TransportKind, locality: Locality,
             nbytes: float) -> float:
        """Postal-model time for one message, with protocol selection."""
        _protocol, link = self.for_message(kind, locality, nbytes)
        return link.time(nbytes)

    def link_table(self, kind: TransportKind, locality: Locality,
                   pre_posted: bool = False) -> np.ndarray:
        """Table 2 for one path as a read-only :func:`select_links` row."""
        return self._link_rows[kind, locality, pre_posted]

    def link_arrays(self, kind: TransportKind, locality: Locality,
                    sizes: np.ndarray,
                    pre_posted: bool = False
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element Table-2 ``(alpha, beta)`` for a size array.

        The array counterpart of :meth:`for_message`
        (``pre_posted=True``: of :meth:`persistent_link`), bit-identical
        to it per element.
        """
        return select_links(self.link_table(kind, locality, pre_posted), sizes)


def select_links(rows: np.ndarray, sizes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(alpha, beta)`` per element of ``sizes`` from link-table rows.

    A row is ``(limit0, limit1, a0, a1, a2, b0, b1, b2)``: sizes
    ``<= limit0`` take pair 0, else ``<= limit1`` pair 1, else (NaN
    included) pair 2 — the threshold chain of
    :meth:`ProtocolThresholds.select`, first true wins.  ``rows[..., k]``
    broadcasts against ``sizes``; the result is a choice among the
    row's constants, no arithmetic.  Negative sizes raise ``ValueError``.
    """
    if np.any(sizes < 0):
        raise ValueError("message sizes must be >= 0")
    low, mid = sizes <= rows[..., 0], sizes <= rows[..., 1]
    alpha, beta = np.empty(low.shape), np.empty(low.shape)
    for out, k in ((alpha, 2), (beta, 5)):
        # last write wins, so the first true limit does
        out[...] = rows[..., k + 2]
        np.copyto(out, rows[..., k + 1], where=mid)
        np.copyto(out, rows[..., k], where=low)
    return alpha, beta


CopyKey = Tuple[CopyDirection, int]


@dataclass(frozen=True)
class CopyParams:
    """Table 3: ``cudaMemcpyAsync`` parameters.

    Keyed by (direction, number of processes concurrently pulling from the
    same GPU).  Lassen was measured at 1 and 4 processes; lookups for
    other process counts resolve to the largest measured count that does
    not exceed the request (paper Section 3: no benefit observed beyond
    4 processes).
    """

    table: Dict[CopyKey, LinkParams]

    def __post_init__(self) -> None:
        for direction in CopyDirection:
            if (direction, 1) not in self.table:
                raise ValueError(f"CopyParams missing 1-process {direction} entry")
        for (_direction, nproc) in self.table:
            if nproc < 1:
                raise ValueError(f"invalid process count {nproc} in CopyParams")
        object.__setattr__(self, "_links", {})  # (direction, nproc) -> link

    def measured_counts(self, direction: CopyDirection) -> Tuple[int, ...]:
        return tuple(sorted(n for (d, n) in self.table if d is direction))

    def link(self, direction: CopyDirection, nproc: int = 1) -> LinkParams:
        """Parameters for ``nproc`` processes copying concurrently."""
        link = self._links.get((direction, nproc))
        if link is None:
            if nproc < 1:
                raise ValueError(f"nproc must be >= 1, got {nproc}")
            # the 1-process row always exists, so max() has a candidate
            chosen = max(n for n in self.measured_counts(direction)
                         if n <= nproc)
            link = self._links[direction, nproc] = self.table[
                (direction, chosen)]
        return link

    def time(self, direction: CopyDirection, nbytes: float,
             nproc: int = 1) -> float:
        """Wall-clock time to move ``nbytes`` *total* with ``nproc`` procs.

        The paper's Table-3 rows are least-squares fits of the
        Figure-3.1 measurements, whose x-axis is the total data volume
        split across the NP concurrent copies — so the ``nproc``-row
        ``(alpha, beta)`` applies to the TOTAL volume, with contention
        between duplicate-device-pointer copies already folded into the
        fitted ``beta`` (which is why the 4-process betas exceed the
        1-process ones).
        """
        link = self.link(direction, nproc)
        return link.time(nbytes)


@dataclass(frozen=True)
class NicParams:
    """Table 4: network-injection limits.

    ``rn_inv`` is the paper's ``R_N^{-1}`` in seconds/byte for CPU
    (staged-through-host) injection.  The paper excludes a GPU injection
    limit because four GPUs per node cannot saturate the NIC; we model
    that by an effectively-unbounded GPU injection rate by default.
    """

    rn_inv: float                      # seconds per byte (CPU injection)
    gpu_rn_inv: float = 0.0            # 0 => unbounded (not reached on Lassen)
    nics_per_node: int = 1

    def __post_init__(self) -> None:
        # NaN-safe: ``not (v > 0)`` rejects NaN as well as non-positives.
        if not (self.rn_inv > 0) or self.rn_inv == float("inf"):
            raise ValueError(
                f"'rn_inv' must be a finite positive rate, "
                f"got {self.rn_inv!r}")
        if not (self.gpu_rn_inv >= 0) or self.gpu_rn_inv == float("inf"):
            raise ValueError(
                f"'gpu_rn_inv' must be a finite number >= 0, "
                f"got {self.gpu_rn_inv!r}")
        if not (self.nics_per_node >= 1):
            raise ValueError(
                f"'nics_per_node' must be a count >= 1, "
                f"got {self.nics_per_node!r}")

    @property
    def injection_rate(self) -> float:
        """``R_N`` in bytes/second for ONE NIC (CPU injection).

        The costing kernel multiplies by :attr:`nics_per_node` when a
        hop may spread over the node's full port set; hops pinned to a
        subset (``Hop.nics_used``) serialize through fewer ports.
        """
        return 1.0 / self.rn_inv

    @property
    def node_injection_rate(self) -> float:
        """Aggregate CPU injection rate over all NICs (bytes/second)."""
        return self.injection_rate * self.nics_per_node

    @property
    def gpu_injection_rate(self) -> float:
        """GPU-path injection rate in bytes/second (``inf`` if unbounded)."""
        return float("inf") if self.gpu_rn_inv == 0 else 1.0 / self.gpu_rn_inv
