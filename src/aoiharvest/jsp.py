"""Joint success probability (JSP): the chance that, in one slot, the
harvested energy clears e_th AND the SIR clears the decoding threshold.

Three routes to the same number: conditioned Monte Carlo over sampled
realizations, an analytic lower bound (every interferer moved to the farthest
distance for harvesting, to the serving distance for interference), and an
analytic upper bound (the reverse placement). Every bound, the saturated
circuit's too, integrates one placement integrand over the serving and
farthest distances (d_1, d_K), between which K - 2 points are Poisson with mean
mu = lambda pi (d_K^2 - d_1^2), and the K - 1 interferer gains sum to an
Erlang variable. The sum over the count then closes into noncentral
chi-square or modified Bessel functions, at most one per term of a node
(Johnson, Kotz and Balakrishnan, Continuous Univariate Distributions vol. 2,
ch. 29; Abramowitz and Stegun 9.6.10), under an adaptive d_1 integral with a
fixed Kronrod rule in d_K. A node below 2^-56 of the largest on its inner d_K
sum is 0 without a Boost call; elsewhere a term too small to change its node's
sum is not evaluated, nor a probability whose complement is too small to
change it.

Sweep points share work through two bounded memo caches: the Monte Carlo draw
of the last geometry, and one evaluation per bound integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chndtr, i1e
# Private name: the Boost ufunc that stats.ncx2.sf calls for nc != 0, without
# importing scipy.stats (verified bit for bit against SciPy 1.17.1).
from scipy.special._ufuncs import _ncx2_sf

from . import geometry
from .geometry import DiscPpp
from .model import HarvesterModel, NetworkConfig, sir_threshold
from .quadrature import QuadratureSpec, integrate_iterated

__all__ = ["JspEstimate", "jsp_monte_carlo", "jsp_lower_bound", "jsp_upper_bound"]

REGIMES = ("linear", "case_a", "case_b", "case_c")

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class JspEstimate:
    """A probability value plus its uncertainty."""

    value: float
    ci_halfwidth: float | None = None
    quadrature_error: float | None = None
    converged: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("probability outside [0, 1]")


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval; well behaved near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    return z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom


def _count_events(cfg: NetworkConfig, beta: float, sums: np.ndarray) -> int:
    """Trials whose harvested energy and SIR clear both thresholds."""
    serving, total = sums
    pr = cfg.p_t * total
    lo, hi = cfg.harvester.window
    ok = ((pr >= lo) & (cfg.eta * cfg.xi * cfg.tau * np.minimum(pr, hi) > cfg.e_th)
          & (serving > beta * (total - serving)))
    return int(np.count_nonzero(ok))


# One entry: a sweep reads only its live geometry (the linear and _nl columns of
# a point share it, and so do all points of a power or xi sweep); an older
# radius's sums would be 16 dead bytes per trial.
@functools.lru_cache(maxsize=1)
def _geometry_sums(ppp: DiscPpp, alpha: float, trials: int, seed: int) -> np.ndarray:
    """Read-only (2, trials) rows: per-trial serving term and total of g d^-alpha,
    drawn in fixed-size chunks on streams spawned from ``seed``."""
    # keep the flat point arrays around a few million entries per chunk
    chunk = min(1 << 14, max(1 << 10, int(4e6 / max(ppp.mean_count, 1.0))))
    streams = np.random.SeedSequence(seed).spawn((trials + chunk - 1) // chunk)
    sums = np.empty((2, trials))  # filled in place: per-chunk arrays fragment the heap
    for i, child in enumerate(streams):
        part = slice(i * chunk, min(trials, (i + 1) * chunk))
        _, starts, d, g = geometry.sample_batch(ppp, part.stop - part.start,
                                                np.random.default_rng(child))
        np.power(d, -alpha, out=d)  # in place: the bits of g * d ** -alpha
        g *= d
        sums[0, part] = g[starts]
        sums[1, part] = np.add.reduceat(g, starts)
    sums.flags.writeable = False
    return sums


def jsp_monte_carlo(cfg: NetworkConfig, trials: int = 100_000, seed: int = 0) -> JspEstimate:
    """Fraction of conditioned realizations (K >= 2) meeting both thresholds.

    Trials are drawn in fixed-size chunks on independently spawned streams,
    so the result depends only on (cfg, trials, seed).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sums = _geometry_sums(DiscPpp.from_config(cfg), cfg.alpha, trials, seed)
    successes = _count_events(cfg, sir_threshold(cfg), sums)
    return JspEstimate(value=successes / trials, ci_halfwidth=wilson_halfwidth(successes, trials))


def select_regime(cfg: NetworkConfig, seed: int = 0, probes: int = 4096) -> str:
    """Paper-style operating regime of the harvester; not exported, and no
    estimate or output reads it.

    Linear circuits short-circuit to "linear". Otherwise the sample mean of the
    total received power over ``probes`` conditioned trials on the stream
    (seed, 0xA01) is compared against the circuit thresholds. That mean has an
    infinite expectation (E[d^-alpha] diverges in 2-D for alpha >= 2), so the
    answer moves with the seed and the probe count.
    """
    h = cfg.harvester
    if h.kind == "linear":
        return "linear"
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA01)))
    _, starts, d, g = geometry.sample_batch(DiscPpp.from_config(cfg), probes, rng)
    mean_pr = float((cfg.p_t * np.add.reduceat(g * d ** -cfg.alpha, starts)).mean())
    if mean_pr < h.pr_min:
        return "case_a"
    if mean_pr > h.pr_max:
        return "case_c"
    return "case_b"


def _near_quantiles(ppp: DiscPpp, qs) -> list[float]:
    lam_pi = ppp.density * math.pi
    mass = -math.expm1(-ppp.mean_count)
    return [math.sqrt(-math.log1p(-q * mass) / lam_pi) for q in qs]


_SPLIT_QS = (0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999)
# Cuts of the fixed u rule, d_K = d_1 + u (R - d_1): one 15-node Kronrod panel between
# neighbours, so they set both its accuracy and its cost. Near u = 1 the farthest-point
# density falls like exp(-2 m (1 - d_1/R)(1 - u)), m the mean count: cut at
# 1 - _INNER_TAIL/m (dropped where <= 0). Over 648 bounds (R = 20-200 m, three each of
# alpha, lambda, xi and power) at rel 1e-11, the rule stayed within 1.3e-11 of an adaptive
# u drive at 10, against 1.7e-8 at 30 and 5.2e-8 at 3 or with no such cut. At the default
# spec they took 8.37M nodes at 10, 8.14M at 30 and 6.86M with no such cut.
_INNER_U_SPLITS = (0.5, 0.9, 0.99)
_INNER_TAIL = 10.0


# Each bound integrand is an energy term plus an SIR term. Where one of them is
# below 2^-56 of the other it cannot change the sum: half an ulp of v exceeds
# 2^-54 v, and the factor of 4 left over covers Boost's error. So, too, 1 - q is
# 1.0 for q <= 2^-54: a probability whose complement is below 2^-56 is 1.0. A term
# below e^-748 rounds to zero on its own, whatever the subnormal steps on its way.
# A node below 2^-56 of another node of its inner u sum is dropped: it weighs
# 2^-56 times the ratio of their Kronrod weights in that sum, and over 1,296
# bounds (tests/test_jsp.py) it moved none by more than 7.8e-16 relative.
_LOG_SKIP = 56.0 * math.log(2.0)
_LOG_UNDERFLOW = -748.0


def _negligible_tail(x, nc, upper):
    """Where the Chernoff bound of ``_log_term_bounds``, -s x + nc s u + log u =
    (u - 1)(nc - 1 - q)/2 + log u, puts the upper (u > 1, so x > 2 + nc, the
    mean) or lower tail of ncx2(2, nc) at x below 2^-56: the other tail's
    probability is then 1.0. NaN (x = inf) never passes; at x = 0 the CDF is 0."""
    q = np.sqrt(1.0 + nc * x)
    u = x / (1.0 + q)
    with np.errstate(divide="ignore"):
        small = 0.5 * (u - 1.0) * (nc - 1.0 - q) + np.log(u) < -_LOG_SKIP
    return small & (u > 1.0 if upper else u < 1.0)


def _energy_term(mu, c, z, log_k):
    """e^{log_k} sum_{n>=0} mu^n/n! tests/oracles.erlang_lower(n + 1, c, z), elementwise, c >= 0.

    Equals e^{log_k} (e^{mu/c}/c) ncx2.cdf(2cz; 2, 2mu/c), with a CDF of 1.0 and
    no Boost call where ``_negligible_tail`` bounds the survival function. Below
    c z = 1e-12 it takes the c -> 0 limit sum mu^n z^{n+1}/(n!(n+1)!) =
    sqrt(z/mu) I_1(2 sqrt(mu z)), with I_1 scaled by ``i1e``, whose relative
    distance to the exact sum is about c z.
    """
    mu, c, z, log_k = np.broadcast_arrays(mu, c, z, log_k)
    out = np.empty(z.shape)
    lim = c * z < 1e-12
    y = 2.0 * np.sqrt(mu[lim] * z[lim])
    tiny = y < 1e-100  # 2 I_1(y)/y -> 1
    i1_ratio = np.where(tiny, 1.0, 2.0 * i1e(y) / np.where(tiny, 1.0, y))
    out[lim] = np.exp(log_k[lim] + y) * z[lim] * i1_ratio
    gam = ~lim
    a = mu[gam] / c[gam]
    x, nc = 2.0 * c[gam] * z[gam], 2.0 * a
    cdf = np.ones(x.shape)
    call = ~_negligible_tail(x, nc, upper=True)
    cdf[call] = chndtr(x[call], 2.0, nc[call])
    out[gam] = np.exp(log_k[gam] + a) / c[gam] * cdf
    return out


def _sir_term(mu, c, z, log_k):
    """e^{log_k} sum_{n>=0} mu^n/n! tests/oracles.erlang_upper(n + 1, c, z), elementwise, c > 0.

    Equals e^{log_k} (e^{mu/c}/c) ncx2.sf(2cz; 2, 2mu/c), with at most one
    Boost call per node where it can. At or above the mean, x >= 2 + nc, the
    survival function is below 1/2, because a noncentral chi-square's median
    lies below its mean (Sen 1989, Sankhya A 51), so it is called alone.
    Elsewhere it is 1 - CDF, which has full relative precision where it is at
    least 1/2, and 1.0 without a call where ``_negligible_tail`` bounds the
    CDF; the direct survival function is called only where 1 - CDF is below
    1/2, because it raises at tiny x once nc nears 700.
    """
    a = mu / c
    x, nc = np.broadcast_arrays(2.0 * c * z, 2.0 * a)
    sf = np.ones(x.shape)
    direct = x >= 2.0 + nc
    sf[direct] = _ncx2_sf(x[direct], 2.0, nc[direct])
    band = ~direct & ~_negligible_tail(x, nc, upper=False)
    sf[band] = 1.0 - chndtr(x[band], 2.0, nc[band])
    low = band & (sf < 0.5)
    sf[low] = _ncx2_sf(x[low], 2.0, nc[low])
    return np.exp(log_k + a) / c * sf


def _log_term_bounds(mu, z, c_e, log_k_e, c_s, log_k_s):
    """Upper bounds on the logs of ``_energy_term(mu, c_e, z, log_k_e)`` and
    ``_sir_term(mu, c_s, z, log_k_s)``.

    The log of each term is log_k + mu/c - log c plus the log of a noncentral
    chi-square probability at x = 2cz with nc = 2mu/c. The Chernoff bound
    (Chernoff 1952) at its optimum, u = x/(1 + q) with q = sqrt(1 + nc x) and
    s = (1 - 1/u)/2, is -s x + nc s u + log u; it bounds the CDF where u < 1
    and the survival function where u > 1 (``_negligible_tail`` reads it on the
    other side of u = 1, to set a probability to 1). Added to the prefactor it reads
    log_k + 2 mu z/(1 + q) + (1 + q)/2 - c z + log(2z/(1 + q)), with
    nc x = 4 mu z, which stays finite at c = 0. The probability is capped at 1.
    """
    q = np.sqrt(1.0 + 4.0 * mu * z)
    w = 2.0 * z / (1.0 + q)  # u / c
    with np.errstate(divide="ignore", invalid="ignore"):
        core = mu * w + 0.5 * (1.0 + q) + np.log(w)
        bounds = []
        for c, log_k, cdf in ((c_e, log_k_e, True), (c_s, log_k_s, False)):
            prefactor = log_k + mu / c - np.log(c)
            u = c * w
            chernoff = np.where(u < 1.0 if cdf else u > 1.0, log_k + core - c * z, np.inf)
            bounds.append(np.minimum(chernoff, prefactor))
    return bounds


def _term_sum(mu, z, c_e, log_k_e, c_s, log_k_s):
    """``_energy_term(mu, c_e, z, log_k_e) + _sir_term(mu, c_s, z, log_k_s)``
    bit for bit, or 0 where that sum is below 2^-56 of its column's peak,
    without evaluating a term that cannot change the result.

    A column (u down axis 0; a 1-D call is one column) feeds one inner u sum.
    At each node the term with the larger log bound goes first. It is evaluated
    first at the column's top, where that bound is largest, if it reaches
    e^-748; 2^-56 of the value there is the column floor. A node whose first
    bound is below the column floor is 0. At the others the first term is
    evaluated, and the other is added where its bound reaches both e^-748 and
    2^-56 of the first term's value.
    """
    mu, z, c_e, log_k_e, c_s, log_k_s = np.broadcast_arrays(mu, z, c_e, log_k_e, c_s, log_k_s)
    bound_e, bound_s = _log_term_bounds(mu, z, c_e, log_k_e, c_s, log_k_s)
    out = np.zeros(mu.shape)

    def add(term, c, log_k, where):
        out[where] += term(mu[where], c[where], z[where], log_k[where])

    energy_first = bound_e >= bound_s
    first = np.where(energy_first, bound_e, bound_s)

    def add_first(where):
        add(_energy_term, c_e, log_k_e, where & energy_first)
        add(_sir_term, c_s, log_k_s, where & ~energy_first)

    top = first == np.fmax.reduce(first, axis=0)  # fmax: a NaN bound must not hide a column's top
    add_first(top & (first >= _LOG_UNDERFLOW))
    with np.errstate(divide="ignore"):
        kept = first >= np.maximum(np.log(out.max(axis=0)) - _LOG_SKIP, _LOG_UNDERFLOW)
        add_first(kept & ~top)
        floor = np.maximum(np.log(out) - _LOG_SKIP, _LOG_UNDERFLOW)
    add(_energy_term, c_e, log_k_e, kept & ~energy_first & (bound_e >= floor))
    add(_sir_term, c_s, log_k_s, kept & energy_first & (bound_s >= floor))
    return out


class _BoundProblem:
    """The count-summed placement integrand of every analytic bound for one configuration.

    The joint density of (d_1, d_K) with n = K - 2 points between them is
    C mu^n/n!, with mu = lambda pi (d_K^2 - d_1^2) and
    C = e^{-m} (lambda pi)^2 4 d_1 d_K / P[K >= 2]; the K - 1 interferer gains
    make an Erlang shape of n + 1. Every exponent of a closed form is folded
    into one exp: mu/c <= lambda pi d_K^2 <= m for alpha >= 2, so nothing
    overflows.
    """

    def __init__(self, cfg: NetworkConfig):
        self.ppp = DiscPpp.from_config(cfg)
        self.beta = sir_threshold(cfg)
        self.scale = cfg.e_th / (cfg.eta * cfg.xi * cfg.tau * cfg.p_t)  # xi > 0 guaranteed by caller
        self.alpha = cfg.alpha
        self.lam_pi = cfg.density * math.pi
        self.log_norm = -self.ppp.mean_count - math.log(self.ppp.prob_at_least_two)

    def placement(self, d1, dk, d_e, d_s) -> np.ndarray:
        """Integrand at aligned (serving, farthest) nodes with every interferer at
        d_e for harvesting and at d_s for the SIR, both in [d_1, d_K]. The gain sum
        z where both constraints meet splits the energy term, at rate
        1 - (d_1/d_e)^alpha, from the SIR term, at rate 1 + beta (d_1/d_s)^alpha."""
        beta, a = self.beta, self.alpha
        mu = self.lam_pi * (dk - d1) * (dk + d1)
        with np.errstate(divide="ignore"):
            log_c = self.log_norm + np.log(4.0 * self.lam_pi**2 * d1 * dk)
        z = self.scale / (beta * d_s**-a + d_e**-a)
        # 1 - (d1/d_e)^alpha, accurate near the diagonal; +0.0 at d_e = d_1 (with
        # -0.0 the energy term's log bound is NaN, and the term is dropped)
        c_e = 0.0 - np.expm1(a * np.log(d1 / d_e))
        return _term_sum(mu, z, c_e, log_c - self.scale * d1**a, beta * (d1 / d_s) ** a + 1.0, log_c)


# Per bound integral, where every interferer sits for harvesting and for the SIR,
# as indices into (d_1, d_K): the worst placement, the best, and the saturated one.
_PLACEMENTS = {"lower": (1, 0), "upper": (0, 1), "saturated": (0, 0)}


@functools.lru_cache(maxsize=4096)
def _bound_integral(cfg_key: NetworkConfig, integral: str, spec: QuadratureSpec) -> tuple[float, float, bool]:
    """(value, error, converged) of the "lower", "upper" or "saturated" integral of
    the placement integrand, interferers as in ``_PLACEMENTS``. No integral reads
    the circuit thresholds, so ``cfg_key`` has the default harvester and linear
    and nonlinear columns share one evaluation."""
    problem = _BoundProblem(cfg_key)
    e, s = _PLACEMENTS[integral]

    def on_unit(d1: np.ndarray, u: np.ndarray) -> np.ndarray:  # d_K = d_1 + u (R - d_1)
        span = problem.ppp.radius - d1
        nodes = (d1, d1 + u * span)
        return problem.placement(*nodes, nodes[e], nodes[s]) * span

    res = integrate_iterated(on_unit, 0.0, problem.ppp.radius, spec, _near_quantiles(problem.ppp, _SPLIT_QS),
                             (*_INNER_U_SPLITS, 1.0 - _INNER_TAIL / problem.ppp.mean_count))
    return res.value, res.error, res.converged


def _bound(cfg: NetworkConfig, regime: str | None, spec: QuadratureSpec | None,
           side: str) -> JspEstimate:
    if regime is not None and regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    # Without a regime, pathwise identities on the input-power window (lo, hi)
    # decide, with k = eta xi tau: no slot succeeds if k hi <= e_th; the event is
    # the linear one if k lo <= e_th; else it lies inside it (linear upper only).
    lo, hi = cfg.harvester.window if regime is None else (0.0, math.inf)
    k = cfg.eta * cfg.xi * cfg.tau
    if (regime == "case_a" or cfg.xi == 0.0 or not math.isfinite(sir_threshold(cfg))
            or k * hi <= cfg.e_th or (side == "lower" and k * lo > cfg.e_th)):
        return JspEstimate(value=0.0, quadrature_error=0.0)
    integral = "saturated" if side == "lower" and regime == "case_c" else side
    value, err, ok = _bound_integral(replace(cfg, harvester=HarvesterModel()), integral,
                                     spec or QuadratureSpec())
    return JspEstimate(value=min(max(value, 0.0), 1.0), quadrature_error=err, converged=ok)


def jsp_lower_bound(cfg: NetworkConfig, regime: str | None = None,
                    spec: QuadratureSpec | None = None) -> JspEstimate:
    """Analytic lower bound of the JSP: interferers at d_K for harvesting and at d_1
    for the SIR, or at d_1 for both with ``regime="case_c"``. By default the
    harvester's input-power window picks the construction; ``regime`` (one of
    ``REGIMES``) forces one, and "case_a" gives 0."""
    return _bound(cfg, regime, spec, "lower")


def jsp_upper_bound(cfg: NetworkConfig, regime: str | None = None,
                    spec: QuadratureSpec | None = None) -> JspEstimate:
    """Analytic upper bound of the JSP: interferers at d_1 for harvesting and at d_K
    for the SIR. By default the harvester's input-power window picks the
    construction; ``regime`` (one of ``REGIMES``) forces one, and "case_a" gives 0."""
    return _bound(cfg, regime, spec, "upper")
