"""Disc point process: the count law and the conditioned batch sampler.

Transmitter counts are Poisson with mean lambda*pi*R^2; the analysis always
conditions on at least two transmitters (one serving link plus interference),
so the sampler draws the count from the truncated PMF directly rather than
rejecting whole realizations. The Monte Carlo stage reads every trial from
one flat batch; the distance densities of the bounds are written in ``jsp``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtr, pdtrik

from .model import InvalidConfigError, NetworkConfig

__all__ = ["DiscPpp", "sample_batch", "pmf_count"]


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


def _poisson_quantile(q: float, m: float) -> int:
    """Smallest k with P[Poisson(m) <= k] >= q, as SciPy's ``poisson.ppf`` computes it."""
    k = math.ceil(pdtrik(q, m))
    return k - 1 if k > 0 and pdtr(k - 1, m) >= q else k


@functools.lru_cache(maxsize=64)
def _truncated_count_table(ppp: DiscPpp) -> tuple[np.ndarray, np.ndarray]:
    """(k values, normalized CDF) of the count conditioned on K >= 2."""
    m = ppp.mean_count
    k_hi = _poisson_quantile(1.0 - 1e-12, m) + 10
    ks = np.arange(2, k_hi + 1)
    pmf = pmf_count(ks, ppp)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return ks, cdf


def sample_batch(ppp: DiscPpp, trials: int, rng: np.random.Generator):
    """Flat per-trial arrays for vectorised reductions.

    Returns (counts, starts, distances, gains) where trial i occupies the
    slice [starts[i], starts[i] + counts[i]) of the flat arrays, counts are
    drawn from the PMF conditioned on K >= 2, distances are sorted ascending
    within each trial (index starts[i] is the serving link), and gains are
    unit-mean exponential draws.

    The distances are sorted as the rows of a (trials, max count) matrix
    padded with +inf: row i holds trial i's draws in its first counts[i]
    cells, and after the row sort those cells hold the same values ascending,
    read back in the flat layout. So the output equals a (trial, distance)
    lexsort of the flat draw bit for bit; equal distances are equal values,
    and the gains, drawn after the sort, pair with positions.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks, cdf = _truncated_count_table(ppp)
    idx = np.searchsorted(cdf, rng.random(trials), side="right")
    counts = ks[np.minimum(idx, len(ks) - 1)]
    total = int(counts.sum())
    filled = np.arange(counts.max()) < counts[:, None]
    rows = np.full(filled.shape, np.inf)
    # Uniform placement in the disc: radius R*sqrt(U), computed in the one
    # uniform buffer, which is freed before the sort; only distances matter.
    r = rng.random(total)
    np.sqrt(r, out=r)
    r *= ppp.radius
    rows[filled] = r
    del r
    rows.sort(axis=1)
    d = rows[filled]
    del rows, filled  # freed before the gains are drawn, to keep peak memory down
    # Gains are i.i.d., so drawing them after the sort is distribution-identical.
    g = rng.standard_exponential(total)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return counts, starts, d, g


def pmf_count(k, ppp: DiscPpp):
    """Poisson PMF of the transmitter count, evaluated in log space."""
    k = np.asarray(k)
    if np.any(k < 0) or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("count must be a nonnegative integer")
    m = ppp.mean_count
    with np.errstate(divide="ignore"):
        logp = np.where(k > 0, k * math.log(m), 0.0) - m - gammaln(k + 1.0)
    out = np.exp(logp)
    return float(out) if out.ndim == 0 else out

