"""Enumerations describing where data moves and how.

The paper separates every measured parameter along three axes:

* **locality** — where the two endpoints sit relative to one another
  (same socket / same node but different socket / different nodes);
* **transport kind** — whether the endpoints are CPU host processes or
  GPU device buffers (device-aware transfers);
* **protocol** — the MPI messaging protocol chosen by message size
  (short / eager / rendezvous; GPU paths have no short protocol on
  Lassen).

Beyond the paper's flat three-way :class:`Locality`, machines can now
declare an explicit :class:`LocalityHierarchy` — an ordered chain of
:class:`LocalityTier` records (socket → node → network, optionally with
intermediate network tiers such as a dragonfly group).  Each tier costs
from one of the three measured Table-2 row families (its ``base``
locality) with per-tier latency/bandwidth scale factors, following the
per-tier parameterization of Bienz, Olson & Gropp (arXiv:2010.10378).
A hop that does not name a tier resolves through the base locality
alone — the *flat degenerate case* — and costs bit-identically to the
pre-hierarchy model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class Locality(enum.Enum):
    """Relative placement of two communicating endpoints."""

    ON_SOCKET = "on-socket"
    ON_NODE = "on-node"      # same node, different sockets
    OFF_NODE = "off-node"    # different nodes (network traversal)

    # Members are singletons compared by identity, so the identity hash
    # is consistent — and C-level, where ``Enum.__hash__`` is a Python
    # call per lookup of a key holding a member (the DES route and tally
    # tables take several per message).  Like the name hash it replaces
    # it differs from process to process: never iterate a set of members
    # where order matters.  Same on the other enums of this module.
    __hash__ = object.__hash__

    @property
    def crosses_network(self) -> bool:
        return self is Locality.OFF_NODE

    def __str__(self) -> str:
        return self.value


class TransportKind(enum.Enum):
    """Endpoint memory domain for a transfer."""

    CPU = "cpu"
    GPU = "gpu"

    __hash__ = object.__hash__  # see Locality

    def __str__(self) -> str:
        return self.value


class Protocol(enum.Enum):
    """MPI point-to-point messaging protocol.

    ``SHORT``
        Payload fits in the message envelope; delivered immediately.
    ``EAGER``
        Receiver buffer space is assumed pre-allocated; sender does not
        wait for the receiver.
    ``RENDEZVOUS``
        Receiver must allocate/post before data flows; sender and
        receiver synchronize.
    """

    SHORT = "short"
    EAGER = "eager"
    RENDEZVOUS = "rendezvous"

    __hash__ = object.__hash__  # see Locality

    @property
    def is_synchronous(self) -> bool:
        return self is Protocol.RENDEZVOUS

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LocalityTier:
    """One level of a machine's locality hierarchy.

    ``base`` names the Table-2 row family the tier's links are measured
    from; ``alpha_scale`` / ``beta_scale`` refine that family's latency
    and inverse bandwidth for this tier (1.0 = the measured constants).
    ``nic_share`` is the fraction of the node's NICs reachable from one
    endpoint of this tier (1.0 = the full node injection rate) — the
    per-NIC serialization knob for tiers that pin traffic to a subset
    of a multi-NIC node's ports.
    """

    name: str
    base: Locality
    alpha_scale: float = 1.0
    beta_scale: float = 1.0
    nic_share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("locality tier needs a non-empty name")
        for attr in ("alpha_scale", "beta_scale", "nic_share"):
            v = getattr(self, attr)
            # ``not (v > 0)`` also rejects NaN.
            if not (v > 0) or v == float("inf"):
                raise ValueError(
                    f"tier {self.name!r}: {attr} must be a finite positive "
                    f"factor, got {v!r}")

    @property
    def is_identity(self) -> bool:
        """True when the tier costs exactly its base locality."""
        return (self.alpha_scale == 1.0 and self.beta_scale == 1.0
                and self.nic_share == 1.0)


@dataclass(frozen=True)
class LocalityHierarchy:
    """An ordered locality-tier chain, innermost (socket) first.

    The chain must be *base-monotone*: tiers appear in
    socket → node → network order, and every :class:`Locality` value
    used by the flat model must resolve to exactly one canonical tier —
    the **last** tier with that base (so e.g. a dragonfly "group" tier
    can sit between node and global with ``base=OFF_NODE``, while plain
    ``OFF_NODE`` hops keep resolving to the outermost, unscaled
    "global" tier and cost bit-identically to the flat model).
    """

    tiers: Tuple[LocalityTier, ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("locality hierarchy needs at least one tier")
        order = [Locality.ON_SOCKET, Locality.ON_NODE, Locality.OFF_NODE]
        ranks = [order.index(t.base) for t in self.tiers]
        if ranks != sorted(ranks):
            raise ValueError(
                "locality tiers must be ordered socket -> node -> network, "
                f"got bases {[t.base.value for t in self.tiers]}")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in {names}")
        missing = [loc.value for loc in Locality if loc not in
                   {t.base for t in self.tiers}]
        if missing:
            raise ValueError(
                f"hierarchy covers no tier for localities {missing}")

    @classmethod
    def flat(cls) -> "LocalityHierarchy":
        """The degenerate three-tier chain: the paper's flat model."""
        return cls(tiers=(
            LocalityTier("socket", Locality.ON_SOCKET),
            LocalityTier("node", Locality.ON_NODE),
            LocalityTier("network", Locality.OFF_NODE),
        ))

    def __len__(self) -> int:
        return len(self.tiers)

    def __getitem__(self, index: int) -> LocalityTier:
        return self.tiers[index]

    def index_of(self, name: str) -> int:
        """Tier index by name (``ValueError`` for unknown names)."""
        for i, tier in enumerate(self.tiers):
            if tier.name == name:
                return i
        known = [t.name for t in self.tiers]
        raise ValueError(f"unknown locality tier {name!r}; have {known}")

    def tier_of(self, locality: Locality) -> int:
        """The canonical tier index for a flat locality.

        The *last* tier with the matching base, so refinements inserted
        between node and global never capture flat hops.
        """
        for i in range(len(self.tiers) - 1, -1, -1):
            if self.tiers[i].base is locality:
                return i
        raise ValueError(
            f"hierarchy has no tier with base {locality}")

    def deepest_network_tier(self) -> Optional[int]:
        """The innermost OFF_NODE tier (None without one below global).

        Returns the index of the *first* OFF_NODE tier when the chain
        refines the network (e.g. a dragonfly group), or ``None`` when
        the only network tier is the canonical global one — the flat
        case, where locality-aware strategies gain nothing from tier
        targeting.
        """
        off = [i for i, t in enumerate(self.tiers)
               if t.base is Locality.OFF_NODE]
        if len(off) < 2:
            return None
        return off[0]


class CopyDirection(enum.Enum):
    """Direction of a host<->device copy (``cudaMemcpyAsync``)."""

    H2D = "host-to-device"
    D2H = "device-to-host"

    __hash__ = object.__hash__  # see Locality (copy-table keys)

    def __str__(self) -> str:
        return "H2D" if self is CopyDirection.H2D else "D2H"
