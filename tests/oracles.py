"""Independent oracles for the test suite.

Everything here deliberately avoids the library's samplers and closed forms:
a different bit generator (MT19937), rejection-based conditioning on the
count, rejection sampling of positions from the bounding square, and explicit
per-trial loops. Slow but structurally unrelated to the code under test.
The Erlang integrals ``erlang_lower``/``erlang_upper`` and the truncated count
series ``poisson_series`` are the per-term forms the library summed before it
closed each count sum into one noncentral chi-square or Bessel call;
``residual_pmf`` is the law of W_hat, the delivered packet's attempt count.
``count_series_integrand`` sums the Erlang integrals with the library's
Poisson PMF term by term: it checks the closed-form sums over the transmitter
count. ``simulate_queue_loop``
draws exactly what ``aoi.simulate_queue`` draws and walks the slot recursion
one slot at a time, so the vectorised simulator must match it bit for bit.
``staircase_by_reset_count`` builds the AoI path from a trace's deliveries
the way the library did before it summed steps in one buffer: a cumulative
count of the deliveries before each slot picks that slot's reset age.
``sample_batch_lexsort`` draws exactly what ``geometry.sample_batch`` draws
and orders each trial's distances with one global (trial, distance) lexsort,
so the padded row sort of the sampler must match it bit for bit.
``gamma_sum_integrand`` evaluates the closed-form bound integrands the plain
way, both noncentral chi-square terms on every node, through the two sum
helpers the library used before it learned to skip a term that cannot change
the sum; the library's integrands must match it bit for bit.
``saturated_integrand`` is the saturated lower bound's integrand in the
serving distance alone, the form the library integrated before every bound
became a placement of one (d_1, d_K) integrand; the library's (d_1, d_1)
placement, integrated over d_K, must match it.
``integrate_iterated_adaptive`` is the iterated-integral driver the library
used before its u rule was fixed: one adaptive inner drive over u per outer
Kronrod round, on the library's Kronrod panels.
``paoi_objective`` and ``paoi_xi_search`` are the peak-age objectives and
the xi* search over them that the optimizer ran, one search per closed form,
before it used that both closed forms strictly decrease in mu and searched the
JSP lower bound alone.
The serving and farthest distance densities (in the form the bound integrals
use), their normalized laws and the truncated count mean are references for
the sampler's distribution fits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.special import chndtr, gammainc, gammaincc, gammaln, i1e, ive, pdtr, pdtrc
from scipy.special._ufuncs import _ncx2_sf

from aoiharvest.aoi import (PaoiStats, QueueParams, QueueTrace, _batch_ci_halfwidth, _check_rates,
                            paoi_np_closed_form, paoi_p_closed_form)
from aoiharvest.geometry import DiscPpp, _poisson_quantile, _truncated_count_table, pmf_count
from aoiharvest.jsp import jsp_lower_bound
from aoiharvest.model import NetworkConfig, sir_threshold
from aoiharvest.optimizer import XiOptimum, search_scalar
from aoiharvest.quadrature import IntegralResult, QuadratureSpec, _gk15, integrate_adaptive


def _sample_trial(cfg: NetworkConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """One conditioned realization: sorted distances and gains."""
    m = cfg.density * math.pi * cfg.radius**2
    while True:
        k = int(rng.poisson(m))
        if k >= 2:
            break
    d = np.empty(k)
    filled = 0
    while filled < k:
        xy = rng.uniform(-cfg.radius, cfg.radius, size=(2 * (k - filled) + 8, 2))
        r = np.hypot(xy[:, 0], xy[:, 1])
        r = r[(r <= cfg.radius) & (r > 0)][: k - filled]
        d[filled:filled + r.size] = r
        filled += r.size
    d.sort()
    g = rng.exponential(1.0, size=k)
    return d, g


def _harvested(cfg: NetworkConfig, pr: float) -> float:
    h = cfg.harvester
    linear = cfg.eta * cfg.xi * cfg.tau * pr
    if h.kind == "linear":
        return linear
    if pr < h.pr_min:
        return 0.0
    if pr > h.pr_max:
        return cfg.eta * cfg.xi * cfg.tau * h.pr_max
    return linear


def jsp_brute_force(cfg: NetworkConfig, trials: int, seed: int) -> tuple[float, float]:
    """From-scratch Monte Carlo of the joint success event. Returns (p, ci95)."""
    rng = np.random.Generator(np.random.MT19937(seed))
    beta = sir_threshold(cfg)
    hits = 0
    for _ in range(trials):
        d, g = _sample_trial(cfg, rng)
        w = d ** -cfg.alpha
        pr = cfg.p_t * float(np.dot(g, w))
        interference = float(np.dot(g[1:], w[1:]))
        if _harvested(cfg, pr) > cfg.e_th and g[0] * w[0] > beta * interference:
            hits += 1
    p = hits / trials
    return p, 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / trials)


def placement_bound_mc(cfg: NetworkConfig, kind: str, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo of the bound-defining placement constructions.

    kind = "lower": interferers at the farthest distance for harvesting and
    at the serving distance for interference; "upper": the reverse;
    "saturated_lower": everything referenced to the serving distance.
    """
    rng = np.random.Generator(np.random.MT19937(seed))
    beta = sir_threshold(cfg)
    scale_e = cfg.eta * cfg.xi * cfg.tau * cfg.p_t
    a = cfg.alpha
    hits = 0
    for _ in range(trials):
        d, g = _sample_trial(cfg, rng)
        d1, dk, g1 = d[0], d[-1], g[0]
        z = float(np.sum(g[1:]))
        if kind == "lower":
            energy_ok = scale_e * (g1 * d1**-a + dk**-a * z) > cfg.e_th
            sir_ok = g1 > beta * z
        elif kind == "upper":
            energy_ok = scale_e * d1**-a * (g1 + z) > cfg.e_th
            sir_ok = g1 * d1**-a > beta * dk**-a * z
        elif kind == "saturated_lower":
            energy_ok = scale_e * d1**-a * (g1 + z) > cfg.e_th
            sir_ok = g1 > beta * z
        else:
            raise ValueError(kind)
        if energy_ok and sir_ok:
            hits += 1
    p = hits / trials
    return p, 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / trials)


def _check_domain(r, ppp: DiscPpp) -> np.ndarray:
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


def _single_axis_mass(ppp: DiscPpp) -> float:
    """Common mass of pdf_nearest / pdf_farthest over [0, R]: (1 - e^{-m}) / P[K >= 2]."""
    return -math.expm1(-ppp.mean_count) / ppp.prob_at_least_two


def pdf_nearest_normalized(r, ppp: DiscPpp):
    """pdf_nearest rescaled to unit mass on [0, R] (for distribution fits)."""
    return pdf_nearest(r, ppp) / _single_axis_mass(ppp)


def pdf_farthest_normalized(r, ppp: DiscPpp):
    """pdf_farthest rescaled to unit mass on [0, R] (for distribution fits)."""
    return pdf_farthest(r, ppp) / _single_axis_mass(ppp)


def cdf_nearest_normalized(r, ppp: DiscPpp):
    """CDF of the nearest distance on [0, R], normalized to unit mass."""
    lam_pi = ppp.density * math.pi
    r = np.asarray(r, dtype=float)
    return -np.expm1(-lam_pi * r**2) / -math.expm1(-ppp.mean_count)


def cdf_farthest_normalized(r, ppp: DiscPpp):
    """CDF of the farthest distance on [0, R], normalized to unit mass."""
    lam_pi = ppp.density * math.pi
    m = ppp.mean_count
    r = np.asarray(r, dtype=float)
    return (np.exp(-lam_pi * (ppp.radius**2 - r**2)) - math.exp(-m)) / -math.expm1(-m)


def truncated_mean_count(ppp: DiscPpp) -> float:
    """E[K | K >= 2] = (m - P[K = 1]) / P[K >= 2], with P[K = 1] = m e^{-m}."""
    m = ppp.mean_count
    return (m - m * math.exp(-m)) / ppp.prob_at_least_two


def poisson_pmf_exact(k: int, mean: float) -> float:
    """Poisson PMF via exact rational arithmetic on the float mean."""
    m = Fraction(mean)
    term = m**k / math.factorial(k)
    # e^{-m} in float at the end; the rational part is exact.
    return float(term) * math.exp(-mean)


class DivergentIntegralError(ValueError):
    """Upper-tail integral requested with a nonpositive rate."""


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


def residual_pmf(m, mu: float, p_a: float):
    """P[W_hat = m] = q_s (1 - q_s)^{m-1} for m >= 1 (delivered-packet attempts)."""
    _check_rates(mu, p_a)
    m_arr = np.asarray(m)
    if np.any(m_arr < 1) or not np.issubdtype(m_arr.dtype, np.integer):
        raise ValueError("m must be an integer >= 1")
    q_s = mu + p_a * (1.0 - mu)
    out = q_s * (1.0 - q_s) ** (m_arr - 1)
    return float(out) if out.ndim == 0 else out


def erlang_integrand(k: int, c: float):
    """z^{k-1}/(k-1)! e^{-cz}, numerically safe for quadrature cross-checks."""
    lg = math.lgamma(k)

    def f(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            logz = np.where(z > 0, np.log(np.where(z > 0, z, 1.0)), -np.inf)
        return np.exp((k - 1) * logz - c * z - lg)

    return f


def count_series_integrand(cfg: NetworkConfig, kind: str, d1, dk=None) -> np.ndarray:
    """Bound integrand as the plain count series, summed term by term over k >= 2.

    kind = "lower" / "upper": the (d1, dk) integrand of the placement bounds,
    weighted by the density of the nearest and farthest distances given K = k;
    kind = "saturated": the serving-distance integrand of the saturated lower
    bound (``dk`` unused). Each k contributes pmf(k)/P[K >= 2] times the
    geometry factor times Erlang integrals of shape k - 1.
    """
    ppp = DiscPpp.from_config(cfg)
    beta = sir_threshold(cfg)
    scale = cfg.e_th / (cfg.eta * cfg.xi * cfg.tau * cfg.p_t)
    a, radius = cfg.alpha, cfg.radius
    d1 = np.asarray(d1, dtype=float)
    s = scale * d1**a  # the energy term carries e^{-s}
    if kind == "saturated":
        z = s / (1.0 + beta)
        c_energy, c_sir = np.zeros(d1.shape), np.full(d1.shape, beta + 1.0)
        far = (radius - d1) * (radius + d1) / radius**2
    else:
        dk = np.asarray(dk, dtype=float)
        far = (dk - d1) * (dk + d1) / radius**2
        if kind == "lower":
            z = scale / (beta * d1**-a + dk**-a)
            c_energy, c_sir = -np.expm1(a * np.log(d1 / dk)), np.full(d1.shape, beta + 1.0)
        else:
            z = scale / (beta * dk**-a + d1**-a)
            c_energy, c_sir = np.zeros(d1.shape), beta * (d1 / dk) ** a + 1.0
    m = ppp.mean_count
    total = np.zeros(d1.shape)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for k in range(2, int(m + 20.0 * math.sqrt(m) + 50.0)):
            if kind == "saturated":
                geom = k * (2.0 * d1 / radius**2) * far ** (k - 1)
            else:
                geom = k * (k - 1) * (2.0 * d1 / radius**2) * (2.0 * dk / radius**2) * far ** (k - 2)
            # e^{-s} erlang_lower(n, c, z) = erlang_lower(n, c e^{s/n}, z e^{-s/n}) (substitute
            # t = u e^{s/n}) keeps both factors in double range. Past s/n = 700 the term is
            # below (z e^{-700})^n/n!, i.e. zero.
            log_shift = s / (k - 1)
            shift = np.exp(np.minimum(log_shift, 700.0))
            energy = np.where(log_shift > 700.0, 0.0,
                              erlang_lower(k - 1, c_energy * shift, z / shift))
            inner = energy + erlang_upper(k - 1, c_sir, z)
            total += pmf_count(k, ppp) / ppp.prob_at_least_two * geom * inner
    return total


def _lower_gamma_sum(mu, c, z, log_k):
    """e^{log_k} sum_{n>=0} mu^n/n! erlang_lower(n + 1, c, z), elementwise, c >= 0.

    Equals e^{log_k} (e^{mu/c}/c) ncx2.cdf(2cz; 2, 2mu/c). Below c z = 1e-12 it
    takes the c -> 0 limit sum mu^n z^{n+1}/(n!(n+1)!) = sqrt(z/mu) I_1(2 sqrt(mu z)),
    whose relative distance to the exact sum is about c z.
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
    out[gam] = np.exp(log_k[gam] + a) / c[gam] * chndtr(2.0 * c[gam] * z[gam], 2.0, 2.0 * a)
    return out


def _upper_gamma_sum(mu, c, z, log_k):
    """e^{log_k} sum_{n>=0} mu^n/n! erlang_upper(n + 1, c, z), elementwise, c > 0.

    Equals e^{log_k} (e^{mu/c}/c) ncx2.sf(2cz; 2, 2mu/c). Where the CDF is below
    1/2 the survival function is 1 - CDF to full relative precision; the direct
    survival function is called only where it is below 1/2, because it raises
    at tiny x once nc nears 700.
    """
    a = mu / c
    x, nc = np.broadcast_arrays(2.0 * c * z, 2.0 * a)
    sf = 1.0 - chndtr(x, 2.0, nc)
    direct = sf < 0.5
    sf[direct] = _ncx2_sf(x[direct], 2.0, nc[direct])
    return np.exp(log_k + a) / c * sf


def gamma_sum_integrand(problem, side: str, d1, dk) -> tuple[np.ndarray, np.ndarray]:
    """(energy term, SIR term) of ``problem.placement`` for the "lower" or
    "upper" bound at the aligned nodes (d1, dk), each evaluated on every node;
    their sum A + B is the integrand."""
    beta, a = problem.beta, problem.alpha
    mu = problem.lam_pi * (dk - d1) * (dk + d1)
    with np.errstate(divide="ignore"):
        log_c = problem.log_norm + np.log(4.0 * problem.lam_pi**2 * d1 * dk)
    log_k = log_c - problem.scale * d1**a
    if side == "lower":
        z = problem.scale / (beta * d1**-a + dk**-a)
        c1 = -np.expm1(a * np.log(d1 / dk))
        return _lower_gamma_sum(mu, c1, z, log_k), _upper_gamma_sum(mu, beta + 1.0, z, log_c)
    z = problem.scale / (beta * dk**-a + d1**-a)
    return (_lower_gamma_sum(mu, 0.0, z, log_k),
            _upper_gamma_sum(mu, beta * (d1 / dk) ** a + 1.0, z, log_c))


def _i0_minus_one(u, log_k):
    """e^{log_k} (I_0(2 sqrt(u)) - 1) = e^{log_k} sum_{n>=1} u^n/(n!)^2.

    Below u = 1 the series is summed directly (17 terms reach double
    precision), so the subtraction never cancels digits.
    """
    small = u < 1.0
    term = total = np.where(small, u, 0.0)
    for n in range(2, 18):
        term = term * u / (n * n)
        total = total + term
    y = 2.0 * np.sqrt(np.where(small, 0.0, u))
    return np.where(small, np.exp(log_k) * total, np.exp(log_k + y) * ive(0, y) - np.exp(log_k))


def saturated_integrand(problem, r: np.ndarray) -> np.ndarray:
    """Saturated-regime lower bound, everything referenced to the serving distance.

    Here n = K - 1 >= 1 points lie beyond r, mu = lambda pi (R^2 - r^2), the
    weight is e^{-m} lambda pi 2r mu^n/n! / P[K >= 2] and the Erlang shape
    is n. With a = mu/(beta + 1) and x = scale r^alpha (= (beta + 1) z), the
    gain term sum_{n>=1} a^n/n! Q(n, x) = e^a P[Poisson(a) > Poisson(x)]
    = e^a ncx2.cdf(2a; 2, 2x), and the energy term is I_0(2 sqrt(a x)) - 1.
    """
    with np.errstate(divide="ignore"):
        log_w = problem.log_norm + np.log(2.0 * problem.lam_pi * r)
    a = problem.lam_pi * (problem.ppp.radius - r) * (problem.ppp.radius + r) / (problem.beta + 1.0)
    x = problem.scale * r**problem.alpha
    return (np.exp(log_w + a) * chndtr(2.0 * a, 2.0, 2.0 * x)
            + _i0_minus_one(a * x, log_w - x))


def sample_batch_lexsort(ppp: DiscPpp, trials: int, rng) -> tuple[np.ndarray, ...]:
    """Reference disc sampler: ``geometry.sample_batch``'s draws, sorted by one lexsort.

    Same count, distance and gain draws in the same order; each trial's
    distances are ordered by a global lexsort on (trial index, distance), so
    (counts, starts, distances, gains) must agree bit for bit.
    """
    ks, cdf = _truncated_count_table(ppp)
    idx = np.searchsorted(cdf, rng.random(trials), side="right")
    counts = ks[np.minimum(idx, len(ks) - 1)]
    total = int(counts.sum())
    d = ppp.radius * np.sqrt(rng.random(total))
    seg = np.repeat(np.arange(trials), counts)
    d = d[np.lexsort((d, seg))]
    g = rng.standard_exponential(total)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return counts, starts, d, g


def simulate_queue_loop(params: QueueParams) -> tuple[QueueTrace, PaoiStats]:
    """Reference Geo/Geo/1 simulator: the plain slot recursion, one slot at a time.

    Same draws and same slot convention as ``aoi.simulate_queue`` (attempt
    first, then the slot's arrival), so every trace array and statistic must
    agree bit for bit.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n_slots
    # Index 0 is the warm-up arrival draw for the phantom delivery at slot 0.
    arrivals = (rng.random(n + 1) < params.p_a).tolist()
    successes = (rng.random(n) < params.mu).tolist()
    preemptive = params.discipline == "preemptive"

    aoi_path: list[int] = []
    peaks: list[int] = []
    delivery_slots: list[int] = []
    service_times: list[int] = []
    residuals: list[int] = []
    interarrivals: list[int] = []

    busy = bool(arrivals[0])
    attempts_gen = 0     # attempt slots of the current generation (W so far)
    attempts_cur = 0     # attempt slots of the current in-service packet (W_hat so far)
    pending_v = 0        # admission slot minus previous delivery slot (V of the generation)
    last_delivery = 0    # phantom delivery at slot 0
    aoi = 1              # staircase value after the last reset (phantom age)
    prev_residual = 1    # residual of the phantom packet

    for s in range(1, n + 1):
        aoi_pre = aoi + 1
        if busy:
            attempts_gen += 1
            attempts_cur += 1
            if successes[s - 1]:
                peak = prev_residual + pending_v + attempts_gen
                if peak != aoi_pre:
                    raise RuntimeError("AoI accounting mismatch between staircase and components")
                peaks.append(peak)
                delivery_slots.append(s)
                service_times.append(attempts_gen)
                residuals.append(attempts_cur)
                interarrivals.append(pending_v)
                prev_residual = attempts_cur
                aoi = attempts_cur
                busy = False
                last_delivery = s
            else:
                aoi = aoi_pre
        else:
            aoi = aoi_pre
        # Slot-end arrival processing: the attempt above always precedes it.
        if arrivals[s]:
            if not busy:
                busy = True
                attempts_gen = attempts_cur = 0
                pending_v = s - last_delivery
            elif preemptive:
                attempts_cur = 0
            # non-preemptive and busy: dropped
        aoi_path.append(aoi_pre)

    peaks_arr = np.asarray(peaks, dtype=np.int64)
    w_arr = np.asarray(service_times, dtype=np.int64)
    trace = QueueTrace(
        aoi_path=np.asarray(aoi_path, dtype=np.int64),
        paoi_samples=peaks_arr,
        delivery_slots=np.asarray(delivery_slots, dtype=np.int64),
        service_times=w_arr,
        residuals=np.asarray(residuals, dtype=np.int64),
        interarrivals=np.asarray(interarrivals, dtype=np.int64),
    )
    count = peaks_arr.size
    stats = PaoiStats(
        mean_paoi=float(peaks_arr.mean()) if count else math.nan,
        ci_halfwidth=_batch_ci_halfwidth(peaks_arr) if count else math.inf,
        count=count,
        mean_service=float(w_arr.mean()) if count else math.nan,
        mean_residual=float(trace.residuals.mean()) if count else math.nan,
    )
    return trace, stats


def staircase_by_reset_count(trace: QueueTrace, n_slots: int) -> np.ndarray:
    """Reference AoI path of a trace: slot s (1-based) is the reset age of the
    last delivery strictly before it (1 for the phantom at slot 0) plus the
    slots since that delivery, indexed through a cumulative delivery count."""
    reset_age = np.concatenate(([1], trace.residuals))
    delivery_slots = trace.delivery_slots
    resets = np.zeros(n_slots, dtype=np.int64)
    resets[delivery_slots[delivery_slots < n_slots]] = 1
    aoi_path = (reset_age - np.concatenate(([0], delivery_slots)))[np.cumsum(resets, out=resets)]
    aoi_path += np.arange(1, n_slots + 1)
    return aoi_path


def _integrate_summed(f, lo: float, hi: float, spec, points) -> IntegralResult:
    """Adaptive Kronrod drive on [lo, hi], lo < hi, of an (n, m)-valued f: value
    and error are length-m arrays, and the panel to split and the stopping
    rule follow the summed error."""
    cuts = sorted({lo, hi, *(p for p in points or () if lo < p < hi)})

    def done() -> bool:
        return bool(np.sum(total_e) <= max(spec.abs_tol, spec.rel_tol * np.sum(np.abs(total_v))))

    heap = []
    total_v = total_e = 0.0
    edges = list(zip(cuts[:-1], cuts[1:]))
    for (a, b), (v, e) in zip(edges, _gk15(f, edges)):
        heapq.heappush(heap, (-float(np.sum(e)), a, b, v, e))
        total_v += v
        total_e += e
    n_panels = len(edges)
    while n_panels < spec.max_subdivisions and not done():
        _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _gk15(f, [(a, m), (m, b)])
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        heapq.heappush(heap, (-float(np.sum(e1)), a, m, v1, e1))
        heapq.heappush(heap, (-float(np.sum(e2)), m, b, v2, e2))
        n_panels += 1
    return IntegralResult(total_v, total_e, done(), n_panels)


def integrate_iterated_adaptive(f, lo: float, hi: float, spec, points=None,
                                inner_points=None) -> IntegralResult:
    """int_lo^hi int_0^1 f(x, u) du dx for lo < hi, in the call form of
    ``quadrature.integrate_iterated``.

    An adaptive drive over x, seeded with ``points``, hands all x nodes of a
    Kronrod round to one vector-valued inner drive on [0, 1], seeded with
    ``inner_points``, that splits by their summed error. Inner drives run at a
    third of the outer relative tolerance (at least 1e-12), abs_tol/(10 (hi -
    lo)) and at most 60 panels. Their mean error per x node times (hi - lo) is
    added to the error; the result is converged where the outer error meets
    the spec or is within twice that inner budget."""
    inner_spec = replace(spec, rel_tol=max(spec.rel_tol / 3.0, 1e-12),
                         abs_tol=spec.abs_tol / (10.0 * (hi - lo)), max_subdivisions=60)
    inner_errors = []

    def inner(xs: np.ndarray) -> np.ndarray:
        res = _integrate_summed(lambda u: f(*np.broadcast_arrays(xs[None, :], u[:, None])),
                                0.0, 1.0, inner_spec, inner_points)
        inner_errors.append(res.error)
        return res.value

    outer = integrate_adaptive(inner, lo, hi, spec, points)
    inner_budget = (hi - lo) * float(np.mean(np.concatenate(inner_errors)))
    converged = outer.error <= max(spec.abs_tol, spec.rel_tol * abs(outer.value), 2.0 * inner_budget)
    return IntegralResult(outer.value, outer.error + inner_budget, converged, outer.subdivisions)


def paoi_objective(kind: str, cfg: NetworkConfig, spec: QuadratureSpec | None,
                   xi: float) -> tuple[float, bool]:
    """(mean peak age of the JSP lower bound at xi under the discipline of
    ``kind``, whether its bound quadrature converged); inf where the bound is 0."""
    closed = {"min_paoi_np_upper": paoi_np_closed_form, "min_paoi_p_upper": paoi_p_closed_form}[kind]
    lo = jsp_lower_bound(replace(cfg, xi=xi), spec=spec)
    if lo.value <= 0.0:
        return math.inf, lo.converged
    return closed(lo.value, cfg.p_a), lo.converged


def paoi_xi_search(kind: str, cfg: NetworkConfig, spec: QuadratureSpec | None,
                   grid_step: float = 0.02, refine_tol: float = 1e-3) -> XiOptimum:
    """The xi* minimizing ``paoi_objective``: the grid scan and golden-section
    refinement of ``optimizer.search_scalar``."""
    flags = []

    def f(t: float) -> float:
        value, ok = paoi_objective(kind, cfg, spec, t)
        flags.append(ok)
        return value

    x, fx, n_evals = search_scalar(f, grid_step, refine_tol)
    return XiOptimum(xi_star=x, value=fx, evaluations=n_evals, converged=all(flags))
