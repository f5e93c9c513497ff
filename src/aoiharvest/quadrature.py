"""Numerical machinery shared by the bound evaluators.

Three pieces: the Erlang integrals int z^{k-1}/(k-1)! e^{-c z} dz over
[0, a] and [a, inf), both written once in ``_erlang`` as c^-k times a
regularized incomplete gamma, with one log-space Poisson-tail sum where that
underflows and at c = 0; one adaptive Gauss-Kronrod integrator, with the
iterated integral the bounds run on it (adaptive in the outer variable, a
fixed Kronrod rule in the inner one); and a truncated Poisson count series
for sums with no closed form. Shapes reach several hundred at the largest
disc radii.

No output path calls the Erlang forms or ``poisson_series``. Only acceptance
criterion 7 (tests/test_acceptance.py) uses both, and the reference bounds in
tests/oracles.py use the Erlang forms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

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
    "integrate_iterated",
    "poisson_series",
    "DivergentIntegralError",
]


class DivergentIntegralError(ValueError):
    """Upper-tail integral requested with a nonpositive rate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive integrator. No code reads an instance's
    ``series_mass``: ``poisson_series`` takes only the class default, and the
    field stays because perfbench/make_reference.py passes it."""

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
    value: float
    error: float
    converged: bool
    subdivisions: int


@dataclass(frozen=True)
class SeriesResult:
    value: float
    truncated_mass: float
    k_max: int


# Where the regularized gamma value underflows (or loses precision), and at
# c = 0, the integral is summed in log space as a Poisson(x) tail, x = c a,
# from its leading term n = k (lower) or n = k - 1 (upper):
#   c^-k P(k, x) = a^k e^{-x}/k! * sum_{j>=0} prod_{1<=i<=j} x/(k+i),
#   c^-k Q(k, x) = a^{k-1} e^{-x}/((k-1)! c) * sum_{j<k} prod_{1<=i<=j} (k-i)/x,
# the second a finite sum for integer k. At x = 0 the first is a^k/k!.
_TINY = 1e-280


def _erlang(k, c, a, upper: bool):
    """c^-k times the regularized lower (P) or upper (Q) incomplete gamma of
    (k, c a), elementwise over broadcast inputs; a float for scalar input."""
    k, c, a = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (k, c, a)))
    if np.isnan(c).any() or np.isnan(a).any():
        raise ValueError("rate c and limit a must not be NaN")
    if np.any(k < 1) or np.any(k != np.floor(k)):
        raise ValueError("shape k must be an integer >= 1")
    if upper and np.any(c <= 0):
        raise DivergentIntegralError("upper-tail integral diverges for c <= 0")
    if np.any(c < 0):
        raise ValueError("rate c must be >= 0")
    if np.any(a < 0):
        raise ValueError(f"{'lower' if upper else 'upper'} limit a must be >= 0")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # 0 * inf is 0 here: the c = 0 lead below takes a^k from a, and a = 0 is an empty range.
        # An overflow is right too: at c * a = inf the regularized value is exact, and a
        # result past the double range is inf.
        x = np.where((c == 0) | (a == 0), 0.0, c * a)
        reg = gammaincc(k, x) if upper else gammainc(k, x)
        logv = np.asarray(np.log(reg) - k * np.log(c))
        tail = (reg <= _TINY) & (x < np.inf)  # at x = inf the regularized value is exact
        if np.any(tail):
            k, c, a, x = k[tail], c[tail], a[tail], x[tail]
            total = np.ones_like(x)
            term = np.ones_like(x)
            for j in range(1, int(np.max(k)) if upper else 500):
                term = term * (np.maximum(k - j, 0.0) / x if upper else x / (k + j))
                total += term
                if np.all(term <= total * 1e-18):
                    break
            n = k - upper
            lead = n * np.log(a) - x - gammaln(n + 1.0)
            logv[tail] = (lead - np.log(c) if upper else lead) + np.log(total)
        out = np.exp(logv)
    return float(out) if out.ndim == 0 else out


def erlang_lower(k, c, a):
    """int_0^a z^{k-1}/(k-1)! * e^{-c z} dz, elementwise over broadcast inputs.

    c > 0 uses the regularized lower incomplete gamma, c = 0 the polynomial
    a^k/k!. Every caller integrates a decaying or flat integrand, so a
    negative rate raises.
    """
    return _erlang(k, c, a, upper=False)


def erlang_upper(k, c, a):
    """int_a^inf z^{k-1}/(k-1)! * e^{-c z} dz; requires c > 0 to converge."""
    return _erlang(k, c, a, upper=True)


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


def _gk15(f, edges: list[tuple[float, float]]) -> list[tuple]:
    """Kronrod panels on the given (lo, hi) edges, all nodes in one call of f:
    value and error estimate per component of f, one pair per panel."""
    lo, hi = np.array(edges).T
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()), dtype=float)  # (15 p,) or (15 p, m)
    out = []
    for i, h in enumerate(half):
        fp = fx[15 * i:15 * (i + 1)]
        vk = h * np.dot(_WK, fp)
        vg = h * np.dot(_WG, fp[1::2])
        # Standard QUADPACK-style error sharpening of |K15 - G7|.
        err = np.abs(vk - vg)
        scale = h * np.dot(_WK, np.abs(fp - fp.mean(axis=0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            sharp = scale * np.minimum(1.0, (200.0 * err / scale) ** 1.5)
        out.append((vk, np.where((scale > 0) & (err > 0), sharp, err)))
    return out


def integrate_adaptive(f, lo: float, hi: float, spec: QuadratureSpec | None = None,
                       points=None) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of a vectorised callable on [lo, hi].

    ``f`` must accept an ndarray of n nodes and return n values. Each call
    carries the 15 nodes of several panels back to back (all initial panels,
    then both halves of each split), so ``f`` must act elementwise across
    them. ``points`` seeds the initial subdivision (useful for sharply peaked
    integrands). The result carries the achieved error estimate; if
    ``max_subdivisions`` is exhausted the best estimate is returned flagged
    non-converged. For lo > hi the value is minus that over [hi, lo].
    """
    spec = spec or QuadratureSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("finite limits required")
    if hi == lo:
        return IntegralResult(0.0, 0.0, True, 0)
    if lo > hi:
        res = integrate_adaptive(f, hi, lo, spec, points)
        return replace(res, value=-res.value)

    cuts = [lo, hi]
    if points is not None:
        cuts += [p for p in points if lo < p < hi]
    cuts = sorted(set(cuts))

    def done() -> bool:
        return bool(total_e <= max(spec.abs_tol, spec.rel_tol * abs(total_v)))

    heap = []  # (-err, lo, hi, value, err)
    total_v = 0.0
    total_e = 0.0
    n_panels = 0
    edges = list(zip(cuts[:-1], cuts[1:]))
    for (a, b), (v, e) in zip(edges, _gk15(f, edges)):
        heapq.heappush(heap, (-float(e), a, b, v, e))
        total_v += v
        total_e += e
        n_panels += 1

    while n_panels < spec.max_subdivisions and not done():
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _gk15(f, [(a, m), (m, b)])
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        heapq.heappush(heap, (-float(e1), a, m, v1, e1))
        heapq.heappush(heap, (-float(e2), m, b, v2, e2))
        n_panels += 1

    return IntegralResult(float(total_v), float(total_e), done(), n_panels)


def integrate_iterated(f, lo: float, hi: float, spec: QuadratureSpec | None = None,
                       points=None, inner_points=None) -> IntegralResult:
    """int_lo^hi int_0^1 f(x, u) du dx; ``f`` takes aligned arrays (u down the
    rows, x across the columns) and returns values of their shape.

    An adaptive drive over x, seeded with ``points``, integrates in u by a
    fixed rule: one 15-point Kronrod panel between each pair of neighbouring
    ``inner_points`` on [0, 1], with all x nodes of a Kronrod round in one
    call of f. The result is that drive's. Its error is the drive's sharpened
    |K15 - G7| estimate, not a bound (the upper JSP bound at R = 200 m, alpha =
    3, lambda = 0.003, xi = 0.5, 0 dB reports 5.15e-7 but lies 5.39e-7 from a
    rel-1e-11 value), without the u rule's own, which stays within 3e-11 of an
    adaptive u drive at rel 1e-11 on the bound integrals (tests/test_jsp.py).
    For lo > hi the value is minus that over [hi, lo]."""
    cuts = sorted({0.0, 1.0, *(p for p in inner_points or () if 0.0 < p < 1.0)})
    edges = list(zip(cuts[:-1], cuts[1:]))

    def rule(xs: np.ndarray) -> np.ndarray:
        panels = _gk15(lambda u: f(*np.broadcast_arrays(xs[None, :], u[:, None])), edges)
        return sum(v for v, _ in panels)

    return integrate_adaptive(rule, lo, hi, spec, points)


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
