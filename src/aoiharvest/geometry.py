"""Disc point process: conditioned sampling and distance statistics.

Transmitter counts are Poisson with mean lambda*pi*R^2; the analysis always
conditions on at least two transmitters (one serving link plus interference),
so the samplers draw the count from the truncated PMF directly rather than
rejecting whole realizations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import InvalidConfigError, NetworkConfig, NetworkRealization

__all__ = [
    "DiscPpp",
    "sample_realization",
    "sample_counts",
    "sample_batch",
    "pdf_nearest",
    "pdf_farthest",
    "pmf_count",
]


@dataclass(frozen=True)
class DiscPpp:
    """Poisson scatter of transmitters in a disc around the typical device."""

    density: float
    radius: float

    def __post_init__(self) -> None:
        if self.density <= 0 or self.radius <= 0:
            raise InvalidConfigError("density and radius must be > 0")

    @classmethod
    def from_config(cls, cfg: NetworkConfig) -> "DiscPpp":
        return cls(density=cfg.density, radius=cfg.radius)

    @property
    def mean_count(self) -> float:
        """lambda * pi * R^2."""
        return self.density * math.pi * self.radius**2

    @property
    def prob_at_least_two(self) -> float:
        """P[K >= 2] = 1 - (1 + m) e^{-m}."""
        m = self.mean_count
        return -math.expm1(-m) - m * math.exp(-m)


@functools.lru_cache(maxsize=64)
def _truncated_count_table(ppp: DiscPpp) -> tuple[np.ndarray, np.ndarray]:
    """(k values, normalized CDF) of the count conditioned on K >= 2."""
    m = ppp.mean_count
    k_hi = int(stats.poisson.ppf(1.0 - 1e-12, m)) + 10
    ks = np.arange(2, k_hi + 1)
    pmf = pmf_count(ks, ppp)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return ks, cdf


def _as_rng(rng_seed_or_stream) -> np.random.Generator:
    if isinstance(rng_seed_or_stream, np.random.Generator):
        return rng_seed_or_stream
    return np.random.default_rng(rng_seed_or_stream)


def sample_counts(ppp: DiscPpp, n: int, rng_seed_or_stream) -> np.ndarray:
    """Draw n transmitter counts from the PMF conditioned on K >= 2."""
    rng = _as_rng(rng_seed_or_stream)
    ks, cdf = _truncated_count_table(ppp)
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return ks[np.minimum(idx, len(ks) - 1)]


def sample_batch(ppp: DiscPpp, trials: int, rng_seed_or_stream):
    """Flat per-trial arrays for vectorised reductions.

    Returns (counts, starts, distances, gains) where trial i occupies the
    slice [starts[i], starts[i] + counts[i]) of the flat arrays, distances are
    sorted ascending within each trial (index starts[i] is the serving link),
    and gains are unit-mean exponential draws.
    """
    rng = _as_rng(rng_seed_or_stream)
    counts = sample_counts(ppp, trials, rng)
    total = int(counts.sum())
    # Uniform placement in the disc: radius R*sqrt(U); only distances matter.
    d = ppp.radius * np.sqrt(rng.random(total))
    seg = np.repeat(np.arange(trials), counts)
    d = d[np.lexsort((d, seg))]
    # Gains are i.i.d., so drawing them after the sort is distribution-identical.
    g = rng.standard_exponential(total)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return counts, starts, d, g


def sample_realization(ppp: DiscPpp, rng_seed_or_stream) -> NetworkRealization:
    """One conditioned draw: sorted distances plus matching fading gains."""
    _, _, d, g = sample_batch(ppp, 1, rng_seed_or_stream)
    return NetworkRealization(distances=d, gains=g)


def _check_domain(r: np.ndarray, ppp: DiscPpp) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > ppp.radius):
        raise ValueError(f"distance outside [0, {ppp.radius}]")
    return r


def pdf_nearest(r, ppp: DiscPpp):
    """Serving-distance density 2*lam*pi*r*e^{-lam*pi*r^2} / P[K>=2] on [0, R].

    This is the form the bound integrals use verbatim; its mass on [0, R] is
    (1 - e^{-m}) / P[K >= 2], slightly above one.
    """
    r = _check_domain(r, ppp)
    lam_pi = ppp.density * math.pi
    return 2.0 * lam_pi * r * np.exp(-lam_pi * r**2) / ppp.prob_at_least_two


def pdf_farthest(r, ppp: DiscPpp):
    """Farthest-distance density 2*lam*pi*r*e^{-lam*pi*(R^2-r^2)} / P[K>=2] on [0, R]."""
    r = _check_domain(r, ppp)
    lam_pi = ppp.density * math.pi
    return 2.0 * lam_pi * r * np.exp(-lam_pi * (ppp.radius**2 - r**2)) / ppp.prob_at_least_two


def pmf_count(k, ppp: DiscPpp):
    """Poisson PMF of the transmitter count, evaluated in log space."""
    k = np.asarray(k)
    if np.any(k < 0) or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("count must be a nonnegative integer")
    from scipy.special import gammaln

    m = ppp.mean_count
    with np.errstate(divide="ignore"):
        logp = np.where(k > 0, k * math.log(m), 0.0) - m - gammaln(k + 1.0)
    out = np.exp(logp)
    return float(out) if out.ndim == 0 else out

