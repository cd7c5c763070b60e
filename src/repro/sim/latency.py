"""Network latency models.

All models are seeded through the numpy ``Generator`` the caller passes in,
keeping runs deterministic.  Times are milliseconds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.types import SiteId


class LatencyModel(ABC):
    """One-way message delay between two sites."""

    @abstractmethod
    def sample(self, src: SiteId, dst: SiteId, rng: np.random.Generator) -> float:
        """Draw one delay for a message from ``src`` to ``dst``."""

    def sample_many(
        self, src: SiteId, dsts: Sequence[SiteId], rng: np.random.Generator
    ) -> List[float]:
        """One delay per destination of a multicast from ``src``.

        Contract: consumes the generator exactly as the scalar loop
        ``[sample(src, d, rng) for d in dsts]`` does — same values, same
        generator state after — so a run's arrival times do not depend on
        how its sends were grouped.  Models override this with one vector
        draw where numpy guarantees that equivalence."""
        return [self.sample(src, dst, rng) for dst in dsts]

    def mean(self, src: SiteId, dst: SiteId) -> float:
        """Expected delay (used by availability timeouts and docs)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed delay for every channel — the simplest deterministic model."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ConfigurationError(f"latency must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, src: SiteId, dst: SiteId, rng: np.random.Generator) -> float:
        return self.delay

    def mean(self, src: SiteId, dst: SiteId) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not (0 <= low <= high):
            raise ConfigurationError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, src: SiteId, dst: SiteId, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(
        self, src: SiteId, dsts: Sequence[SiteId], rng: np.random.Generator
    ) -> List[float]:
        return rng.uniform(self.low, self.high, size=len(dsts)).tolist()

    def mean(self, src: SiteId, dst: SiteId) -> float:
        return (self.low + self.high) / 2


class LogNormalLatency(LatencyModel):
    """Log-normally distributed delay — heavy-tailed, WAN-like jitter.

    Parameterized by the median delay and a shape ``sigma``.
    """

    def __init__(self, median: float = 1.0, sigma: float = 0.3) -> None:
        if median <= 0 or sigma < 0:
            raise ConfigurationError(
                f"need median > 0 and sigma >= 0, got {median}, {sigma}"
            )
        self.median = median
        self.sigma = sigma
        self._mu = float(np.log(median))

    def sample(self, src: SiteId, dst: SiteId, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self.sigma))

    def sample_many(
        self, src: SiteId, dsts: Sequence[SiteId], rng: np.random.Generator
    ) -> List[float]:
        return rng.lognormal(self._mu, self.sigma, size=len(dsts)).tolist()

    def mean(self, src: SiteId, dst: SiteId) -> float:
        return float(self.median * np.exp(self.sigma**2 / 2))


class MatrixLatency(LatencyModel):
    """Per-pair base delay from an ``n x n`` matrix plus multiplicative
    log-normal jitter.  This is the geo model: the matrix comes from a
    :class:`repro.sim.topology.Topology`."""

    def __init__(self, base: np.ndarray, jitter_sigma: float = 0.1) -> None:
        base = np.asarray(base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ConfigurationError(f"latency matrix must be square, got {base.shape}")
        if np.any(base < 0):
            raise ConfigurationError("latency matrix entries must be >= 0")
        self.base = base
        self.jitter_sigma = jitter_sigma

    def sample(self, src: SiteId, dst: SiteId, rng: np.random.Generator) -> float:
        b = float(self.base[src, dst])
        if self.jitter_sigma == 0:
            return b
        return b * float(rng.lognormal(0.0, self.jitter_sigma))

    def sample_many(
        self, src: SiteId, dsts: Sequence[SiteId], rng: np.random.Generator
    ) -> List[float]:
        base = self.base[src, dsts]
        if self.jitter_sigma == 0:
            return base.tolist()
        return (base * rng.lognormal(0.0, self.jitter_sigma, size=len(dsts))).tolist()

    def mean(self, src: SiteId, dst: SiteId) -> float:
        return float(self.base[src, dst]) * float(
            np.exp(self.jitter_sigma**2 / 2)
        )


def random_wan(
    n: int,
    seed: int = 0,
    low: float = 1.0,
    high: float = 150.0,
    jitter_sigma: float = 0.2,
) -> MatrixLatency:
    """An adversarial random WAN: independently drawn, asymmetric per-pair
    delays in ``[low, high]`` ms plus log-normal jitter.

    This is the topology that smoked out the remote-read gaps (DESIGN.md
    §2a): wildly asymmetric one-way delays maximize reordering between
    update, fetch, and relay paths.  Used across the fuzz suites and the
    ablation benchmarks.
    """
    if n <= 0:
        raise ConfigurationError(f"need n >= 1 sites, got {n}")
    rng = np.random.default_rng(seed)
    base = rng.uniform(low, high, size=(n, n))
    np.fill_diagonal(base, 0.0)
    return MatrixLatency(base, jitter_sigma)


def make_latency(spec: "LatencyModel | str | float | None") -> LatencyModel:
    """Coerce a latency spec: a model instance, a float (constant delay),
    one of the names ``"constant"``/``"uniform"``/``"lognormal"``, or None
    (defaults to 1 ms constant)."""
    if spec is None:
        return ConstantLatency(1.0)
    if isinstance(spec, LatencyModel):
        return spec
    if isinstance(spec, (int, float)):
        return ConstantLatency(float(spec))
    if spec == "constant":
        return ConstantLatency()
    if spec == "uniform":
        return UniformLatency()
    if spec == "lognormal":
        return LogNormalLatency()
    raise ConfigurationError(f"unknown latency spec {spec!r}")
