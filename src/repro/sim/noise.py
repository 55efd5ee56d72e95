"""Timing-noise models for "measured" simulation runs.

The paper reports timings averaged over 1000 runs with the max taken over
ranks.  Real systems jitter; to make simulated "measurements" behave like
averaged measurements (and to exercise the fitting code on non-exact
data), transports can perturb each message cost with a multiplicative
noise model.  All models are seeded and deterministic.
"""

from __future__ import annotations

import math

import numpy as np


class NoiseModel:
    """Base class: a deterministic stream of multiplicative factors."""

    def factor(self) -> float:  # pragma: no cover - abstract
        """Next multiplicative perturbation (``cost *= factor()``)."""
        raise NotImplementedError

    def perturb(self, cost: float) -> float:
        """Apply the next factor to ``cost``."""
        return cost * self.factor()

    def fork(self, stream: int) -> "NoiseModel":  # pragma: no cover - abstract
        """An independent, deterministic sub-stream (e.g. one per rank)."""
        raise NotImplementedError


class NoNoise(NoiseModel):
    """Identity noise: every factor is exactly 1.0 (default)."""

    def factor(self) -> float:
        return 1.0

    def perturb(self, cost: float) -> float:
        return cost

    def fork(self, stream: int) -> "NoNoise":
        return self


class LognormalNoise(NoiseModel):
    """Multiplicative lognormal jitter with unit mean.

    Factors are ``exp(sigma * z - sigma^2 / 2)`` for standard-normal
    ``z``, so ``E[factor] == 1`` and averaged timings remain unbiased
    estimates of the noiseless cost.

    Parameters
    ----------
    sigma:
        Log-scale standard deviation (0.05–0.2 is typical of the run-to-
        run jitter seen in MPI microbenchmarks).
    seed:
        Root seed; forks derive independent streams via ``spawn``.
    """

    def __init__(self, sigma: float = 0.1, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self._bias = -0.5 * self.sigma * self.sigma

    def factor(self) -> float:
        if self.sigma == 0.0:
            return 1.0
        z = self._rng.standard_normal()
        return math.exp(self.sigma * z + self._bias)

    def fork(self, stream: int) -> "LognormalNoise":
        child = LognormalNoise(self.sigma, seed=self.seed)
        child._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(int(stream),))
        )
        return child


def make_noise(sigma: float = 0.0, seed: int = 0) -> NoiseModel:
    """Convenience factory: ``sigma == 0`` yields :class:`NoNoise`."""
    if sigma == 0.0:
        return NoNoise()
    return LognormalNoise(sigma=sigma, seed=seed)
