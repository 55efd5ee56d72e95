"""Deterministic fault plans: pure data + seeded streams.

A :class:`FaultPlan` describes *what goes wrong* in a simulated run —
link-degradation windows, straggler ranks, probabilistic message loss,
GPU/copy-engine outages, and optional injection pacing — without any
mutable state.  Like :class:`~repro.sim.noise.NoiseModel`, a plan is
fork-able: :meth:`FaultPlan.fork` derives an independent, reproducible
sub-plan per run via ``numpy`` seed-sequence spawning, so two jobs
constructed with the same plan replay identical fault sequences.

The default :data:`NO_FAULTS` plan is inert: the transport caches one
boolean and takes the exact pre-fault fast path, keeping every golden
timing bit-identical.

Fault-stream isolation: plans draw from
``SeedSequence(entropy=seed, spawn_key=(0xFA, *forks))`` — the ``0xFA``
prefix keeps fault streams disjoint from the noise streams (which spawn
on the bare run index), even when a job uses one seed for both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

_INF = float("inf")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _finite_nonneg(owner: str, name: str, value: float) -> None:
    # ``not (v >= 0)`` is NaN-safe: NaN fails every comparison.
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and value >= 0 and not math.isnan(value),
             f"{owner}.{name} must be a non-negative number, got {value!r}")


@dataclass(frozen=True)
class LinkDegradation:
    """Droop a node's NIC injection rate to ``factor * rate`` over
    ``[t0, t1)``.  ``node=None`` degrades every node's NIC."""

    t0: float
    t1: float
    factor: float
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _finite_nonneg("LinkDegradation", "t0", self.t0)
        _require(self.t1 > self.t0,
                 f"LinkDegradation window is empty: [{self.t0!r}, {self.t1!r})")
        _require(0.0 < self.factor <= 1.0 and not math.isnan(self.factor),
                 f"LinkDegradation.factor must be in (0, 1], got {self.factor!r}")


@dataclass(frozen=True)
class Straggler:
    """Multiply every message cost *sent by* ``rank`` by ``factor``."""

    rank: int
    factor: float

    def __post_init__(self) -> None:
        _require(isinstance(self.rank, int) and self.rank >= 0,
                 f"Straggler.rank must be a rank index >= 0, got {self.rank!r}")
        _require(self.factor >= 1.0 and not math.isnan(self.factor)
                 and self.factor != _INF,
                 f"Straggler.factor must be finite and >= 1, got {self.factor!r}")


@dataclass(frozen=True)
class MessageLoss:
    """Lose each off-node message with probability ``prob`` while the
    transfer starts inside ``[t0, t1)``."""

    prob: float
    t0: float = 0.0
    t1: float = _INF

    def __post_init__(self) -> None:
        _require(0.0 <= self.prob <= 1.0 and not math.isnan(self.prob),
                 f"MessageLoss.prob must be in [0, 1], got {self.prob!r}")
        _finite_nonneg("MessageLoss", "t0", self.t0)
        _require(self.t1 > self.t0,
                 f"MessageLoss window is empty: [{self.t0!r}, {self.t1!r})")


@dataclass(frozen=True)
class DeviceOutage:
    """GPU / copy-engine outage over ``[t0, t1)``.

    While active, device-aware strategies degrade to their
    staged-through-host paths (they query the transport's path health at
    program start); device-kind messages forced onto the wire anyway are
    lost on every attempt and surface as
    :class:`~repro.faults.errors.DeliveryError` once retries exhaust.
    ``node=None`` means every node.
    """

    t0: float = 0.0
    t1: float = _INF
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _finite_nonneg("DeviceOutage", "t0", self.t0)
        _require(self.t1 > self.t0,
                 f"DeviceOutage window is empty: [{self.t0!r}, {self.t1!r})")


@dataclass(frozen=True)
class RetryPolicy:
    """Rendezvous-timeout + bounded exponential-backoff retransmit model.

    A lost attempt is detected ``timeout`` seconds after its transfer
    start; retransmit ``k`` waits an additional
    ``min(backoff * 2**k, backoff_cap)``.  After ``max_retries``
    retransmits the transport gives up and the message fails with a
    :class:`~repro.faults.errors.DeliveryError`.  This is the simulated
    transport's policy only, in virtual seconds: a sweep does not retry
    (see :func:`repro.par.sweep_map`).
    """

    timeout: float = 2e-4
    backoff: float = 1e-4
    backoff_cap: float = 1e-3
    max_retries: int = 5

    def __post_init__(self) -> None:
        _require(self.timeout > 0 and not math.isnan(self.timeout)
                 and self.timeout != _INF,
                 f"RetryPolicy.timeout must be finite and > 0, got {self.timeout!r}")
        _finite_nonneg("RetryPolicy", "backoff", self.backoff)
        _require(self.backoff_cap >= self.backoff,
                 f"RetryPolicy.backoff_cap must be >= backoff, got {self.backoff_cap!r}")
        _require(isinstance(self.max_retries, int) and self.max_retries >= 0,
                 f"RetryPolicy.max_retries must be an int >= 0, got {self.max_retries!r}")


@dataclass(frozen=True)
class Pacing:
    """Token-bucket pacing of NIC injection during contention windows.

    While a transfer's NIC entry falls inside ``[t0, t1)``, the sending
    node's :class:`~repro.sim.resources.TokenBucket` (``rate`` bytes/s,
    ``burst`` bytes) gates when the payload may enter the byte server.
    """

    rate: float
    burst: float
    t0: float = 0.0
    t1: float = _INF

    def __post_init__(self) -> None:
        _require(self.rate > 0 and not math.isnan(self.rate)
                 and self.rate != _INF,
                 f"Pacing.rate must be finite and > 0, got {self.rate!r}")
        _require(self.burst > 0 and not math.isnan(self.burst)
                 and self.burst != _INF,
                 f"Pacing.burst must be finite and > 0, got {self.burst!r}")
        _finite_nonneg("Pacing", "t0", self.t0)
        _require(self.t1 > self.t0,
                 f"Pacing window is empty: [{self.t0!r}, {self.t1!r})")


@dataclass(frozen=True)
class FaultPlan:
    """One run's worth of injected faults (pure data, fork-able).

    All fields default to "nothing happens"; a default-constructed plan
    is *active* only if at least one fault is configured.  Use
    :data:`NO_FAULTS` rather than ``FaultPlan()`` for the inert default —
    it is a singleton whose :meth:`fork` is the identity, so the
    transport's fault-free fast path stays allocation-free.
    """

    degradations: Tuple[LinkDegradation, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    loss: Optional[MessageLoss] = None
    outages: Tuple[DeviceOutage, ...] = ()
    retry: RetryPolicy = RetryPolicy()
    pacing: Optional[Pacing] = None
    seed: int = 0
    #: fork lineage (appended to by :meth:`fork`); part of the RNG key
    spawn_key: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans; store canonical tuples.
        for name in ("degradations", "stragglers", "outages", "spawn_key"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        seen = set()
        for s in self.stragglers:
            _require(s.rank not in seen,
                     f"FaultPlan has duplicate straggler for rank {s.rank}")
            seen.add(s.rank)

    @property
    def active(self) -> bool:
        """Whether this plan injects anything at all."""
        return bool(self.degradations or self.stragglers or self.outages
                    or self.loss is not None or self.pacing is not None)

    def fork(self, stream: int) -> "FaultPlan":
        """An independent, deterministic sub-plan (e.g. one per run)."""
        return dataclasses.replace(
            self, spawn_key=self.spawn_key + (int(stream),))

    def rng(self) -> np.random.Generator:
        """The seeded generator backing this plan's probabilistic faults.

        The ``0xFA`` spawn-key prefix keeps fault streams disjoint from
        the job's noise streams even under a shared seed.
        """
        return np.random.default_rng(np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(0xFA,) + self.spawn_key))

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary (used by the chaos report)."""
        return {
            "active": self.active,
            "seed": int(self.seed),
            "spawn_key": list(self.spawn_key),
            "degradations": [
                {"t0": d.t0, "t1": d.t1, "factor": d.factor, "node": d.node}
                for d in self.degradations
            ],
            "stragglers": [
                {"rank": s.rank, "factor": s.factor} for s in self.stragglers
            ],
            "loss": None if self.loss is None else {
                "prob": self.loss.prob, "t0": self.loss.t0, "t1": self.loss.t1
            },
            "outages": [
                {"t0": o.t0, "t1": o.t1, "node": o.node} for o in self.outages
            ],
            "retry": {
                "timeout": self.retry.timeout, "backoff": self.retry.backoff,
                "backoff_cap": self.retry.backoff_cap,
                "max_retries": self.retry.max_retries,
            },
            "pacing": None if self.pacing is None else {
                "rate": self.pacing.rate, "burst": self.pacing.burst,
                "t0": self.pacing.t0, "t1": self.pacing.t1,
            },
        }


class NoFaults(FaultPlan):
    """The inert plan: never active, fork is the identity.

    Exists so the zero-fault default costs one cached-boolean branch in
    the transport — no RNG construction, no per-message checks, and
    bit-identical goldens.
    """

    @property
    def active(self) -> bool:
        return False

    def fork(self, stream: int) -> "NoFaults":
        return self


#: shared inert default (like ``NoNoise`` for the noise models)
NO_FAULTS = NoFaults()
