"""Joint success probability (JSP): the chance that, in one slot, the
harvested energy clears e_th AND the SIR clears the decoding threshold.

Three routes to the same number: conditioned Monte Carlo over sampled
realizations, an analytic lower bound (every interferer moved to the farthest
distance for harvesting, to the serving distance for interference), and an
analytic upper bound (the reverse placement). The bound integrals reduce to
incomplete-gamma inner forms under a Poisson count series and one or two
outer distance integrals.

Two evaluation modes for the bounds:

* ``mode="exact"`` (default) integrates the defining placement construction
  exactly: conditional min/max distance densities given the count K = k and
  an Erlang shape of k - 1 for the k - 1 interferer gains. This is the value
  a Monte Carlo of the placement construction estimates.
* ``mode="factored"`` treats the count and the two distances as independent:
  the product of the two marginal distance densities, the unconditioned
  Poisson PMF summed from k = 2, and an Erlang shape of k. The two modes
  agree closely at the default geometry and the factored form is much
  simpler to state, but only the exact mode tracks the construction on
  small discs.

Sweep points share work through two bounded memo caches: one Monte Carlo draw
per geometry, and one evaluation per bound integral.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import geometry
from .geometry import DiscPpp
from .model import HarvesterModel, NetworkConfig, sir_threshold
from .quadrature import (
    _WG,
    _WK,
    _XK,
    QuadratureSpec,
    erlang_lower_log_rows,
    erlang_upper_log_rows,
    integrate_adaptive,
    poisson_window,
)

__all__ = [
    "JspEstimate",
    "jsp_monte_carlo",
    "jsp_lower_bound",
    "jsp_upper_bound",
    "select_regime",
    "REGIMES",
]

REGIMES = ("linear", "case_a", "case_b", "case_c")

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class JspEstimate:
    """A probability value plus its provenance."""

    value: float
    method: str                      # "monte_carlo" | "analytic_lower" | "analytic_upper"
    regime: str
    trials: int | None = None
    ci_halfwidth: float | None = None
    quadrature_error: float | None = None
    converged: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("probability outside [0, 1]")


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval; well behaved near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom


def _count_events(cfg: NetworkConfig, beta: float, sums: np.ndarray) -> int:
    """Trials whose harvested energy and SIR clear both thresholds."""
    serving, total = sums
    interference = total - serving
    pr = cfg.p_t * total
    linear = cfg.eta * cfg.xi * cfg.tau * pr
    h = cfg.harvester
    if h.kind == "linear":
        energy = linear
    else:
        energy = np.where(pr < h.pr_min, 0.0,
                          np.where(pr > h.pr_max, cfg.eta * cfg.xi * cfg.tau * h.pr_max, linear))
    ok = (energy > cfg.e_th) & (serving > beta * interference)
    return int(np.count_nonzero(ok))


@functools.lru_cache(maxsize=8)
def _geometry_sums(ppp: DiscPpp, alpha: float, trials: int, seed: int, probe: bool) -> np.ndarray:
    """Read-only (2, trials) rows: per-trial serving term and total of g d^-alpha.

    Monte Carlo draws fixed-size chunks on streams spawned from ``seed``; the
    regime probe draws one chunk from the stream (seed, 0xA01).
    """
    if probe:
        chunk, streams = trials, [np.random.SeedSequence((seed, 0xA01))]
    else:  # keep the flat point arrays around a few million entries per chunk
        chunk = min(1 << 14, max(1 << 10, int(4e6 / max(ppp.mean_count, 1.0))))
        streams = np.random.SeedSequence(seed).spawn((trials + chunk - 1) // chunk)
    sums = np.empty((2, trials))  # filled in place: per-chunk arrays fragment the heap
    for i, child in enumerate(streams):
        part = slice(i * chunk, min(trials, (i + 1) * chunk))
        _, starts, d, g = geometry.sample_batch(ppp, part.stop - part.start,
                                                np.random.default_rng(child))
        gw = g * d ** -alpha
        sums[0, part] = gw[starts]
        sums[1, part] = np.add.reduceat(gw, starts)
    sums.flags.writeable = False
    return sums


def jsp_monte_carlo(cfg: NetworkConfig, trials: int = 100_000, seed: int = 0) -> JspEstimate:
    """Fraction of conditioned realizations (K >= 2) meeting both thresholds.

    Trials are drawn in fixed-size chunks on independently spawned streams,
    so the result depends only on (cfg, trials, seed).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sums = _geometry_sums(DiscPpp.from_config(cfg), cfg.alpha, trials, seed, False)
    successes = _count_events(cfg, sir_threshold(cfg), sums)
    return JspEstimate(
        value=successes / trials,
        method="monte_carlo",
        regime=select_regime(cfg),
        trials=trials,
        ci_halfwidth=wilson_halfwidth(successes, trials),
    )


def select_regime(cfg: NetworkConfig, seed: int = 0, probes: int = 4096) -> str:
    """Operating regime of the harvester at this configuration.

    Linear circuits short-circuit to "linear". Otherwise the empirical mean
    of the total received power over a short fixed-seed conditioned sample is
    compared against the circuit thresholds. Deterministic given the seed.
    """
    h = cfg.harvester
    if h.kind == "linear":
        return "linear"
    total = _geometry_sums(DiscPpp.from_config(cfg), cfg.alpha, probes, seed, True)[1]
    mean_pr = float((cfg.p_t * total).mean())
    if mean_pr < h.pr_min:
        return "case_a"
    if mean_pr > h.pr_max:
        return "case_c"
    return "case_b"


def _near_quantiles(ppp: DiscPpp, qs) -> list[float]:
    lam_pi = ppp.density * math.pi
    mass = -math.expm1(-ppp.mean_count)
    return [math.sqrt(-math.log1p(-q * mass) / lam_pi) for q in qs]


def _far_quantiles(ppp: DiscPpp, qs) -> list[float]:
    lam_pi = ppp.density * math.pi
    m = ppp.mean_count
    out = []
    for q in qs:
        v = q * -math.expm1(-m) + math.exp(-m)
        r2 = ppp.radius**2 + math.log(v) / lam_pi
        if r2 > 0:
            out.append(math.sqrt(r2))
    return out


_SPLIT_QS = (0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999)


class _BoundProblem:
    """Shared precomputation for one analytic bound evaluation."""

    def __init__(self, cfg: NetworkConfig, spec: QuadratureSpec, mode: str):
        if mode not in ("exact", "factored"):
            raise ValueError(f"mode must be 'exact' or 'factored', got {mode!r}")
        self.cfg = cfg
        self.mode = mode
        self.ppp = DiscPpp.from_config(cfg)
        self.beta = sir_threshold(cfg)
        self.scale = cfg.e_th / (cfg.eta * cfg.xi * cfg.tau * cfg.p_t)  # xi > 0 guaranteed by caller
        self.ks, pmf, self.truncated_mass = poisson_window(self.ppp, spec.series_mass)
        self.shapes = self.ks - 1 if mode == "exact" else self.ks.copy()
        self.log_pmf = np.log(pmf)
        if mode == "exact":
            self.log_pmf = self.log_pmf - math.log(self.ppp.prob_at_least_two)
        self.pmf = np.exp(self.log_pmf)
        self.alpha = cfg.alpha
        self.radius = cfg.radius

    # -- count-weighted distance densities ----------------------------------

    def log_weights_joint(self, d1: np.ndarray, dk: np.ndarray) -> np.ndarray:
        """(nk, p) log weights for aligned node vectors of (serving, farthest) pairs."""
        r2 = self.radius**2
        with np.errstate(divide="ignore"):
            if self.mode == "factored":
                w = geometry.pdf_nearest(d1, self.ppp) * geometry.pdf_farthest(dk, self.ppp)
                return self.log_pmf[:, None] + np.log(w)[None, :]
            ks = self.ks.astype(float)[:, None]
            log_geom = (np.log(2.0 * d1 / r2)[None, :] + np.log(2.0 * dk / r2)[None, :]
                        + (ks - 2.0) * np.log((dk**2 - d1**2) / r2)[None, :]
                        + np.log(ks) + np.log(ks - 1.0))
        return self.log_pmf[:, None] + log_geom

    def log_weights_nearest(self, r: np.ndarray) -> np.ndarray:
        """(nk, n) log weights for the serving distance alone."""
        r2 = self.radius**2
        with np.errstate(divide="ignore"):
            if self.mode == "factored":
                return self.log_pmf[:, None] + np.log(geometry.pdf_nearest(r, self.ppp))[None, :]
            ks = self.ks.astype(float)[:, None]
            log_geom = (np.log(ks) + np.log(2.0 * r / r2)[None, :]
                        + (ks - 1.0) * np.log1p(-(r / self.radius) ** 2)[None, :])
        return self.log_pmf[:, None] + log_geom

    # -- inner incomplete-gamma terms, as (log term1, log term2) -------------

    def inner_lower_general(self, d1: np.ndarray, dk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Worst-placement terms: energy with interferers at d_K, SIR with them at d_1."""
        beta, a = self.beta, self.alpha
        zs = self.scale / (beta * d1 ** -a + dk ** -a)
        c1 = -np.expm1(a * np.log(d1 / dk))  # 1 - (d1/dk)^alpha, accurate near the diagonal
        log_el = erlang_lower_log_rows(self.shapes, c1, zs)
        log_eu = erlang_upper_log_rows(self.shapes, np.full_like(zs, beta + 1.0), zs)
        return log_el - (self.scale * d1**a)[None, :], log_eu

    def inner_upper_general(self, d1: np.ndarray, dk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best-placement terms: energy with interferers at d_1, SIR with them at d_K."""
        beta, a = self.beta, self.alpha
        zs = self.scale / (beta * dk ** -a + d1 ** -a)
        sh = self.shapes.astype(float)[:, None]
        with np.errstate(divide="ignore"):
            log_el = sh * np.log(zs)[None, :] - gammaln(sh + 1.0)
        rate2 = beta * (d1 / dk) ** a + 1.0
        log_eu = erlang_upper_log_rows(self.shapes, rate2, zs)
        return log_el - (self.scale * d1**a)[None, :], log_eu

    def inner_lower_saturated(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Saturated-regime lower terms: everything referenced to the serving distance."""
        beta, a = self.beta, self.alpha
        zs = self.scale * r**a / (1.0 + beta)
        sh = self.shapes.astype(float)[:, None]
        with np.errstate(divide="ignore"):
            log_el = sh * np.log(zs)[None, :] - gammaln(sh + 1.0)
        log_eu = erlang_upper_log_rows(self.shapes, np.full_like(zs, beta + 1.0), zs)
        return log_el - (self.scale * r**a)[None, :], log_eu


def _gk15_batch(fu, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """One Kronrod panel of a vector-valued integrand; per-component errors."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(fu(mid + half * _XK), dtype=float)  # (15, m)
    vk = half * (_WK @ fx)
    vg = half * (_WG @ fx[1::2])
    err = np.abs(vk - vg)
    scale = half * (_WK @ np.abs(fx - fx.mean(axis=0, keepdims=True)))
    nz = (scale > 0) & (err > 0)
    err[nz] = scale[nz] * np.minimum(1.0, (200.0 * err[nz] / scale[nz]) ** 1.5)
    return vk, err


_INNER_U_SPLITS = (0.5, 0.9, 0.99)


def _batch_inner(problem: _BoundProblem, inner, d1s: np.ndarray,
                 spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """int_{d1}^{R} sum_k weights*inner ddk for a batch of serving distances.

    Substituting dk = d1 + u (R - d1) puts every node on the common interval
    u in [0, 1], so one adaptive drive serves the whole batch.
    """
    radius = problem.radius
    d1s = np.atleast_1d(np.asarray(d1s, dtype=float))
    span = radius - d1s
    ok = span > 0
    values = np.zeros(d1s.shape)
    errors = np.zeros(d1s.shape)
    if not np.any(ok):
        return values, errors
    d1a, spana = d1s[ok], span[ok]

    def fu(u: np.ndarray) -> np.ndarray:
        dk = d1a[None, :] + u[:, None] * spana[None, :]
        d1f = np.broadcast_to(d1a[None, :], dk.shape).ravel()
        dkf = dk.ravel()
        logw = problem.log_weights_joint(d1f, dkf)
        lt1, lt2 = inner(d1f, dkf)
        g = (np.exp(logw + lt1) + np.exp(logw + lt2)).sum(axis=0)
        return g.reshape(dk.shape) * spana[None, :]

    cuts = [0.0, *_INNER_U_SPLITS, 1.0]
    heap = []
    total_v = np.zeros(d1a.shape)
    total_e = np.zeros(d1a.shape)
    n_panels = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = _gk15_batch(fu, a, b)
        heapq.heappush(heap, (-float(e.sum()), a, b, v, e))
        total_v += v
        total_e += e
        n_panels += 1
    while (n_panels < spec.max_subdivisions
           and float(total_e.sum()) > max(spec.abs_tol, spec.rel_tol * float(np.abs(total_v).sum()))):
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15_batch(fu, a, m)
        v2, e2 = _gk15_batch(fu, m, b)
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        heapq.heappush(heap, (-float(e1.sum()), a, m, v1, e1))
        heapq.heappush(heap, (-float(e2.sum()), m, b, v2, e2))
        n_panels += 1

    values[ok] = total_v
    errors[ok] = total_e
    return values, errors


def _evaluate_2d(problem: _BoundProblem, inner, spec: QuadratureSpec) -> tuple[float, float, bool]:
    """Iterated 1-D quadrature of sum_k weights * inner over 0 <= d1 <= dk <= R."""
    ppp, radius = problem.ppp, problem.radius
    inner_spec = replace(spec, rel_tol=max(spec.rel_tol / 3.0, 1e-12),
                         abs_tol=spec.abs_tol / (10.0 * radius), max_subdivisions=60)
    inner_err_sum = 0.0
    inner_calls = 0

    def outer_f(d1s: np.ndarray) -> np.ndarray:
        nonlocal inner_err_sum, inner_calls
        vals, errs = _batch_inner(problem, inner, np.atleast_1d(d1s), inner_spec)
        inner_err_sum += float(errs.sum())
        inner_calls += errs.size
        return vals

    outer = integrate_adaptive(outer_f, 0.0, radius, spec, points=_near_quantiles(ppp, _SPLIT_QS))
    # The outer integrand carries the inner estimates' noise; fold in its
    # average absolute error over the outer domain.
    inner_budget = radius * (inner_err_sum / inner_calls) if inner_calls else 0.0
    err = outer.error + inner_budget + problem.truncated_mass
    converged = outer.error <= max(spec.abs_tol, spec.rel_tol * abs(outer.value), 2.0 * inner_budget)
    return outer.value, err, converged


def _evaluate_1d(problem: _BoundProblem, spec: QuadratureSpec) -> tuple[float, float, bool]:
    def f(r: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(r)
        logw = problem.log_weights_nearest(r)
        lt1, lt2 = problem.inner_lower_saturated(r)
        return (np.exp(logw + lt1) + np.exp(logw + lt2)).sum(axis=0)

    res = integrate_adaptive(f, 0.0, problem.radius, spec,
                             points=_near_quantiles(problem.ppp, _SPLIT_QS))
    return res.value, res.error + problem.truncated_mass, res.converged


@functools.lru_cache(maxsize=4096)
def _bound_integral(cfg_key: NetworkConfig, integral: str, spec: QuadratureSpec,
                    mode: str) -> tuple[float, float, bool]:
    """(value, error, converged) of the "lower", "upper" or "saturated" integral.
    No integral reads the circuit thresholds, so ``cfg_key`` has the default
    harvester and linear and nonlinear columns share one evaluation."""
    problem = _BoundProblem(cfg_key, spec, mode)
    if integral == "saturated":
        return _evaluate_1d(problem, spec)
    inner = problem.inner_lower_general if integral == "lower" else problem.inner_upper_general
    return _evaluate_2d(problem, inner, spec)


def _bound(cfg: NetworkConfig, regime: str | None, spec: QuadratureSpec | None, mode: str,
           side: str) -> JspEstimate:
    if regime is None:
        regime = select_regime(cfg)
    elif regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    method = f"analytic_{side}"
    if regime == "case_a" or cfg.xi == 0.0 or not math.isfinite(sir_threshold(cfg)):
        return JspEstimate(value=0.0, method=method, regime=regime, quadrature_error=0.0)
    integral = "saturated" if side == "lower" and regime == "case_c" else side
    value, err, ok = _bound_integral(replace(cfg, harvester=HarvesterModel()), integral,
                                     spec or QuadratureSpec(), mode)
    return JspEstimate(value=min(max(value, 0.0), 1.0), method=method,
                       regime=regime, quadrature_error=err, converged=ok)


def jsp_lower_bound(cfg: NetworkConfig, regime: str | None = None,
                    spec: QuadratureSpec | None = None, mode: str = "exact") -> JspEstimate:
    """Analytic lower bound of the JSP for the given operating regime."""
    return _bound(cfg, regime, spec, mode, "lower")


def jsp_upper_bound(cfg: NetworkConfig, regime: str | None = None,
                    spec: QuadratureSpec | None = None, mode: str = "exact") -> JspEstimate:
    """Analytic upper bound of the JSP for the given operating regime."""
    return _bound(cfg, regime, spec, mode, "upper")
