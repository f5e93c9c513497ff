import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc, gammaincc

from aoiharvest.geometry import DiscPpp, pmf_count
from aoiharvest.model import NetworkConfig
from aoiharvest.quadrature import IntegralResult, QuadratureSpec, integrate_adaptive, integrate_iterated

from oracles import DivergentIntegralError, erlang_integrand, erlang_lower, erlang_upper, poisson_series

DEFAULT_PPP = DiscPpp.from_config(NetworkConfig())


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0)
    with pytest.raises(ValueError):
        QuadratureSpec(series_mass=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_erlang_lower_basic_values():
    assert erlang_lower(1, 1.0, 1e3) == pytest.approx(1.0, rel=1e-12)
    assert erlang_lower(1, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert erlang_lower(2, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert erlang_lower(3, 2.0, 0.0) == 0.0
    assert erlang_lower(3, math.inf, 0.0) == 0.0  # an empty range, whatever the rate
    assert erlang_lower(3, 0.0, math.inf) == math.inf


def test_erlang_lower_input_validation():
    with pytest.raises(ValueError):
        erlang_lower(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_lower(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_lower(1, 1.0, -1.0)


@pytest.mark.parametrize("k,c,a", [(2, math.nan, 1.0), (2, 1.0, math.nan), (math.nan, 1.0, 1.0),
                                   (2, np.array([1.0, math.nan]), 1.0)])
def test_erlang_nan_inputs_rejected(k, c, a):
    with pytest.raises(ValueError):
        erlang_lower(k, c, a)
    with pytest.raises(ValueError):
        erlang_upper(k, c, a)


@pytest.mark.filterwarnings("error")
def test_erlang_values_past_the_double_range():
    # c * a = 1e400 overflows; both values are below the smallest double
    assert erlang_upper(2, 1e200, 1e200) == 0.0
    assert erlang_lower(2, 1e200, 1e200) == 0.0
    assert erlang_lower(3, 0.0, 1e200) == math.inf  # a^3/3! = 1.7e599


def test_erlang_upper_basic_values():
    assert erlang_upper(1, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert erlang_upper(3, math.inf, 0.0) == 0.0
    for k in (1, 5, 600):
        for c in (1.0, math.inf):
            assert erlang_upper(k, c, math.inf) == 0.0
    with pytest.raises(DivergentIntegralError):
        erlang_upper(1, 0.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        erlang_upper(2, -1.0, 1.0)


def test_gamma_complementarity_grid():
    ks = [1, 2, 5, 13, 34, 50]
    cs = [1e-3, 1e-1, 1.0, 1e1, 1e3]
    az = [0.0, 0.5, 1.0, 10.0, 1e3]
    for k in ks:
        for c in cs:
            for a in az:
                total = erlang_lower(k, c, a) + erlang_upper(k, c, a)
                assert total == pytest.approx(c ** -k, rel=1e-10), (k, c, a)


def test_erlang_against_quadrature():
    res = integrate_adaptive(erlang_integrand(3, 2.0), 0.5, 60.0, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15))
    assert erlang_upper(3, 2.0, 0.5) == pytest.approx(res.value, rel=1e-8)
    res = integrate_adaptive(erlang_integrand(5, 0.7), 0.0, 3.0, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15))
    assert erlang_lower(5, 0.7, 3.0) == pytest.approx(res.value, rel=1e-8)


def test_erlang_lower_negative_rate():
    # only decaying or flat integrands are integrated; a growing one is rejected
    with pytest.raises(ValueError, match="rate c must be >= 0"):
        erlang_lower(1, -1.0, 1.0)
    with pytest.raises(ValueError, match="rate c must be >= 0"):
        erlang_lower(2, np.array([1.0, -1e-300]), 1.0)
    assert erlang_lower(2, -0.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def _poisson_log_sum(x, js):
    """log sum_j e^{-x} x^j/j! over js, by log-sum-exp of math.lgamma terms."""
    logs = [j * math.log(x) - x - math.lgamma(j + 1) for j in js]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


@pytest.mark.parametrize("k,c,a,upper,branch", [
    (5, 0.7, 3.0, False, "direct"),
    (300, 1.0, 300.0, False, "direct"),
    (300, 1e-2, 100.0, False, "tail"),    # x = 1: P(300, 1) ~ 1e-615
    (600, 5e-3, 200.0, False, "tail"),    # x = 1
    (600, 0.05, 200.0, False, "tail"),    # x = 10
    (1, 0.0, 3.0, False, "c0"),
    (7, 0.0, 2.5, False, "c0"),
    (300, 0.0, 50.0, False, "c0"),
    (600, 0.0, 400.0, False, "c0"),
    (5, 0.7, 3.0, True, "direct"),
    (1, 1.0, 700.0, True, "tail"),        # Q(1, 700) = e^-700
    (300, 0.02, 1e5, True, "tail"),       # x = 2000: Q ~ 1e-493
    (600, 0.1, 3e4, True, "tail"),        # x = 3000: Q ~ 1e-625
])
def test_erlang_tails_match_poisson_log_sum_exp(k, c, a, upper, branch):
    # c^-k P(k, x) and c^-k Q(k, x) with x = c a are the Poisson(x) tails
    # sum_{j>=k} and sum_{j<k} of e^{-x} x^j/j!; at c = 0 the lower one is a^k/k!.
    x = c * a
    if branch == "c0":
        ref = math.exp(k * math.log(a) - math.lgamma(k + 1))
    else:
        assert ((gammaincc if upper else gammainc)(k, x) <= 1e-280) == (branch == "tail")
        js = range(k) if upper else range(k, int(max(k, x) + 40 * math.sqrt(x) + 100))
        ref = math.exp(_poisson_log_sum(x, js) - k * math.log(c))
    assert 0 < ref < math.inf
    assert (erlang_upper if upper else erlang_lower)(k, c, a) == pytest.approx(ref, rel=1e-10, abs=0)


def test_integrate_adaptive_known_integrals():
    assert integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0).value == pytest.approx(1.0, rel=1e-13)
    res = integrate_adaptive(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert res.converged


@pytest.mark.parametrize("f,lo,hi,exact", [
    (lambda x: x**3, 0.0, 2.0, 4.0),
    (lambda x: np.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    (lambda x: 1.0 / (1.0 + x**2), -4.0, 4.0, 2.0 * math.atan(4.0)),
    (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
])
def test_error_estimate_bounds_true_error(f, lo, hi, exact):
    res = integrate_adaptive(f, lo, hi)
    assert abs(res.value - exact) <= max(res.error, 1e-13)


def test_non_converged_flagging():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    res = integrate_adaptive(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, spec)
    assert not res.converged
    assert res.subdivisions == 3
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-3)  # best estimate still returned


def test_integrate_adaptive_with_points():
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    res = integrate_adaptive(f, 0.0, 1.0, points=[0.3])
    assert res.value == pytest.approx(0.3 + 1.4, rel=1e-12)


def test_integrate_adaptive_reversed_limits():
    forward = integrate_adaptive(np.sin, 0.0, math.pi, points=[1.0])
    res = integrate_adaptive(np.sin, math.pi, 0.0, points=[1.0])
    assert res.value == -forward.value == pytest.approx(-2.0, rel=1e-9)
    assert res.error == forward.error >= 0.0
    assert (res.converged, res.subdivisions) == (forward.converged, forward.subdivisions)


def test_integrate_iterated_calls_f_once_per_outer_round():
    """int_0^2 int_0^1 e^{-20u} sqrt|x - 0.7| du dx = (1 - e^-20)/20 (2/3)
    (0.7^1.5 + 1.3^1.5), with a kink in x that forces outer splits. Every outer
    Kronrod round reaches f in one call over all its x nodes (45 on the three
    initial panels, then 30 per split) and the 30 u nodes of the fixed rule,
    15 on each side of the inner point. An adaptive u drive splits on
    e^{-20u} and calls f several times per round; the fixed rule never does.
    Equal limits give 0 and reversed limits the negated value."""
    widths = []

    def f(x, u):
        assert x.shape == u.shape and np.all(u[:, :1] == u) and np.all(x[:1] == x)
        assert np.all((u[:15] < 0.5) & (u[15:] > 0.5)) and x.shape[0] == 30
        widths.append(x.shape[1])
        return np.exp(-20.0 * u) * np.sqrt(np.abs(x - 0.7))

    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
    res = integrate_iterated(f, 0.0, 2.0, spec, points=[0.3, 1.0], inner_points=[0.5])
    want = -math.expm1(-20.0) / 20.0 * (0.7**1.5 + 1.3**1.5) * 2.0 / 3.0
    assert res.converged and abs(res.value - want) <= 1e-12
    assert res.subdivisions > 3
    assert widths == [45] + [30] * (res.subdivisions - 3)
    assert integrate_iterated(f, 1.0, 1.0, spec) == IntegralResult(0.0, 0.0, True, 0)
    back = integrate_iterated(f, 2.0, 0.0, spec, points=[0.3, 1.0], inner_points=[0.5])
    assert back == IntegralResult(-res.value, res.error, res.converged, res.subdivisions)


def test_integrate_adaptive_batches_panels():
    """One call of f for the initial panels and one per split, each carrying
    whole 15-node panels, with the bits of evaluating panel by panel."""
    f = lambda x: np.sqrt(np.abs(x - 0.3)) * np.cos(7.0 * x)
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=40)
    sizes = []

    def batched(x):
        sizes.append(x.size)
        return f(x)

    def per_panel(x):
        assert x.size % 15 == 0
        return np.concatenate([f(panel) for panel in x.reshape(-1, 15)])

    res = integrate_adaptive(batched, 0.0, 2.0, spec, points=[0.3, 1.0])
    ref = integrate_adaptive(per_panel, 0.0, 2.0, spec, points=[0.3, 1.0])
    assert res.subdivisions > 3
    assert sizes == [3 * 15] + [2 * 15] * (res.subdivisions - 3)
    assert res.subdivisions == ref.subdivisions and res.converged == ref.converged
    for got, want in ((res.value, ref.value), (res.error, ref.error)):
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_poisson_series_normalization():
    res = poisson_series(lambda k: pmf_count(k, DEFAULT_PPP), DEFAULT_PPP)
    assert res.value == pytest.approx(DEFAULT_PPP.prob_at_least_two, abs=1e-8)
    assert res.k_max < 120


def test_poisson_series_mean_identity():
    m = DEFAULT_PPP.mean_count
    res = poisson_series(lambda k: k * pmf_count(k, DEFAULT_PPP), DEFAULT_PPP)
    expected = m - 1.0 * pmf_count(1, DEFAULT_PPP) - 0.0 * pmf_count(0, DEFAULT_PPP)
    # the k-weighted truncated tail is ~k_max times the dropped mass
    assert res.value == pytest.approx(expected, abs=res.k_max * 1e-8 + 1e-9)


@pytest.mark.parametrize("m", [1e-3, 0.7, 33.9, 1131.0, 5e3])
@pytest.mark.parametrize("mass", [1.0 - 1e-8, 1.0 - 1e-12])
def test_poisson_series_window_matches_scipy_stats(m, mass):
    ppp = DiscPpp(density=m / math.pi, radius=1.0)
    m = ppp.mean_count
    res = poisson_series(lambda k: np.zeros(k.shape), ppp, series_mass=mass)
    k_max = max(2, int(stats.poisson.ppf(mass, m)))
    while stats.poisson.cdf(k_max, m) < mass:
        k_max += 1
    assert res.k_max == k_max
    assert res.truncated_mass == float(stats.poisson.sf(k_max, m))
