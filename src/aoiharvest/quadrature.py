"""Numerical machinery shared by the bound evaluators.

Three pieces: closed incomplete-gamma forms for the Erlang integrals
int z^{k-1}/(k-1)! e^{-c z} dz over [0, a] and [a, inf), one adaptive
Gauss-Kronrod integrator for scalar- or vector-valued integrands (the bound
evaluators drive their inner and outer distance integrals through it), and a
truncated Poisson count series for sums with no closed form. Gamma/factorial
arithmetic stays in log space; shapes reach several hundred at the largest
disc radii.

No output path calls the Erlang forms or ``poisson_series``. Only acceptance
criterion 7 (tests/test_acceptance.py) uses both, and the reference bounds in
tests/oracles.py use the Erlang forms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, pdtr, pdtrc

from .geometry import DiscPpp, _poisson_quantile

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "SeriesResult",
    "erlang_lower",
    "erlang_upper",
    "integrate_adaptive",
    "poisson_series",
    "DivergentIntegralError",
]


class DivergentIntegralError(ValueError):
    """Upper-tail integral requested with a nonpositive rate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive integrator; ``series_mass`` is only the
    default retained Poisson mass of ``poisson_series``."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_subdivisions: int = 200
    series_mass: float = 1.0 - 1e-8

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.series_mass < 1:
            raise ValueError("series_mass must be in (0, 1)")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float | np.ndarray     # length-m arrays for an (n, m) integrand
    error: float | np.ndarray
    converged: bool
    subdivisions: int


@dataclass(frozen=True)
class SeriesResult:
    value: float
    truncated_mass: float
    k_max: int


# Where regularized gamma values underflow (or lose precision) we switch to
# explicit log-space series: P(k, x) = x^k e^{-x}/k! * sum_j prod_i x/(k+i)
# for x below k, and, for integer k, the exact finite sum
# Q(k, x) = x^{k-1} e^{-x}/(k-1)! * sum_{j<k} prod_i (k-1-i)/x for x above k.
_TINY = 1e-280


def _log_p_lower_series(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log P(k, x) for x well below k, to full double precision."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for j in range(1, 500):
        term = term * x / (k + j)
        total += term
        if np.all(term <= total * 1e-18):
            break
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    return k * logx - x - gammaln(k + 1.0) + np.log(total)


def _log_q_upper_series(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log Q(k, x) for integer k and x well above k: the exact finite sum."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        total = np.ones_like(x)
        term = np.ones_like(x)
        j_max = int(np.max(k)) - 1
        for j in range(j_max):
            term = term * np.maximum(k - 1.0 - j, 0.0) / x
            total += term
            if np.all(term <= total * 1e-18):
                break
        logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
        return (k - 1.0) * logx - x - gammaln(k) + np.log(total)


def _erlang_args(k, c, a) -> list[np.ndarray]:
    """Broadcast (k, c, a) to float arrays; NaN anywhere and non-integer k raise."""
    k_in, c_in, a_in = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (k, c, a)))
    if np.isnan(c_in).any() or np.isnan(a_in).any():
        raise ValueError("rate c and limit a must not be NaN")
    if np.any(k_in < 1) or np.any(k_in != np.floor(k_in)):
        raise ValueError("shape k must be an integer >= 1")
    return [k_in, c_in, a_in]


def erlang_lower(k, c, a):
    """int_0^a z^{k-1}/(k-1)! * e^{-c z} dz, elementwise over broadcast inputs.

    c > 0 uses the regularized lower incomplete gamma, c = 0 the polynomial
    a^k/k!. Every caller integrates a decaying or flat integrand, so a
    negative rate raises.
    """
    k_in, c_in, a_in = _erlang_args(k, c, a)
    if np.any(c_in < 0):
        raise ValueError("rate c must be >= 0")
    if np.any(a_in < 0):
        raise ValueError("upper limit a must be >= 0")

    out = np.empty(k_in.shape, dtype=float)

    zero = c_in == 0
    if np.any(zero):
        with np.errstate(divide="ignore"):
            logv = k_in * np.log(a_in) - gammaln(k_in + 1.0)
        out[zero] = np.exp(logv[zero])

    pos = c_in > 0
    if np.any(pos):
        kk, cc, aa = k_in[pos], c_in[pos], a_in[pos]
        x = cc * aa
        p = gammainc(kk, x)
        logp = np.full(p.shape, -np.inf)
        direct = p > _TINY
        logp[direct] = np.log(p[direct])
        tail = ~direct & (x > 0)
        if np.any(tail):
            logp[tail] = _log_p_lower_series(kk[tail], x[tail])
        with np.errstate(invalid="ignore"):
            logv = -kk * np.log(cc) + logp
        out[pos] = np.where(x == 0, 0.0, np.exp(logv))

    return float(out) if out.ndim == 0 else out


def erlang_upper(k, c, a):
    """int_a^inf z^{k-1}/(k-1)! * e^{-c z} dz; requires c > 0 to converge."""
    k_in, c_in, a_in = _erlang_args(k, c, a)
    if np.any(c_in <= 0):
        raise DivergentIntegralError("upper-tail integral diverges for c <= 0")
    if np.any(a_in < 0):
        raise ValueError("lower limit a must be >= 0")

    x = c_in * a_in
    q = gammaincc(k_in, x)
    logq = np.full(q.shape if q.ndim else (1,), -np.inf)
    x_b = np.atleast_1d(x)
    q_b = np.atleast_1d(q)
    k_b = np.atleast_1d(k_in)
    direct = q_b > _TINY
    logq[direct] = np.log(q_b[direct])
    tail = ~direct & (x_b > 0)
    if np.any(tail):
        logq[tail] = _log_q_upper_series(k_b[tail], x_b[tail])
    with np.errstate(invalid="ignore"):
        logv = -k_b * np.log(np.atleast_1d(c_in)) + logq
    out = np.exp(logv).reshape(np.shape(x))
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk15(f, lo: float, hi: float):
    """One Kronrod panel: value and error estimate per component of f."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(f(mid + half * _XK), dtype=float)  # (15,) or (15, m)
    vk = half * np.dot(_WK, fx)
    vg = half * np.dot(_WG, fx[1::2])
    # Standard QUADPACK-style error sharpening of |K15 - G7|.
    err = np.abs(vk - vg)
    scale = half * np.dot(_WK, np.abs(fx - fx.mean(axis=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        sharp = scale * np.minimum(1.0, (200.0 * err / scale) ** 1.5)
    return vk, np.where((scale > 0) & (err > 0), sharp, err)


def integrate_adaptive(f, lo: float, hi: float, spec: QuadratureSpec | None = None,
                       points=None) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of a vectorised callable on [lo, hi].

    ``f`` must accept an ndarray of n nodes and return n values, or an (n, m)
    array for m integrands at once; then value and error are length-m arrays,
    and the panel to split and the stopping rule follow the summed error.
    ``points`` seeds the initial subdivision (useful for sharply peaked
    integrands). The result carries the achieved error estimate; if
    ``max_subdivisions`` is exhausted the best estimate is returned flagged
    non-converged.
    """
    spec = spec or QuadratureSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("finite limits required")
    if hi == lo:
        return IntegralResult(0.0, 0.0, True, 0)

    cuts = [lo, hi]
    if points is not None:
        cuts += [p for p in points if lo < p < hi]
    cuts = sorted(set(cuts))

    def done() -> bool:
        return bool(np.sum(total_e) <= max(spec.abs_tol, spec.rel_tol * np.sum(np.abs(total_v))))

    heap = []  # (-summed err, lo, hi, value, err)
    total_v = 0.0
    total_e = 0.0
    n_panels = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = _gk15(f, a, b)
        heapq.heappush(heap, (-float(np.sum(e)), a, b, v, e))
        total_v += v
        total_e += e
        n_panels += 1

    while n_panels < spec.max_subdivisions and not done():
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        heapq.heappush(heap, (-float(np.sum(e1)), a, m, v1, e1))
        heapq.heappush(heap, (-float(np.sum(e2)), m, b, v2, e2))
        n_panels += 1

    if np.ndim(total_v) == 0:
        total_v, total_e = float(total_v), float(total_e)
    return IntegralResult(total_v, total_e, done(), n_panels)


def poisson_series(term, ppp: DiscPpp, series_mass: float = QuadratureSpec.series_mass) -> SeriesResult:
    """Sum term(k) over k = 2..k_max with k_max set by retained Poisson mass.

    ``term`` must accept an integer ndarray and return matching values. The
    truncated mass (the guaranteed weight of dropped terms when term(k) is
    bounded by pmf(k) times an O(1) factor) is reported alongside the value.
    """
    m = ppp.mean_count
    k_max = max(2, _poisson_quantile(series_mass, m))
    while pdtr(k_max, m) < series_mass:
        k_max += 1
    ks = np.arange(2, k_max + 1)
    value = float(np.sum(term(ks)))
    truncated = float(pdtrc(k_max, m))
    return SeriesResult(value=value, truncated_mass=truncated, k_max=k_max)
