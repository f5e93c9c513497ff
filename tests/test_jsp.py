import collections
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import chndtr

from aoiharvest import geometry, jsp
from aoiharvest.geometry import DiscPpp
from aoiharvest.jsp import (
    JspEstimate,
    jsp_lower_bound,
    jsp_monte_carlo,
    jsp_upper_bound,
    select_regime,
    wilson_halfwidth,
)
from aoiharvest.model import MAX_MEAN_COUNT, HarvesterModel, NetworkConfig, db_to_watt
from aoiharvest.quadrature import QuadratureSpec, integrate_adaptive

from oracles import (
    count_series_integrand,
    gamma_sum_integrand,
    integrate_iterated_adaptive,
    jsp_brute_force,
    placement_bound_mc,
    sample_batch_lexsort,
    saturated_integrand,
)

FAST_SPEC = QuadratureSpec(rel_tol=1e-5)


def clear_jsp_caches():
    jsp._geometry_sums.cache_clear()
    jsp._bound_integral.cache_clear()


def test_estimate_rejects_bad_probability():
    with pytest.raises(ValueError):
        JspEstimate(value=1.2)


def test_wilson_halfwidth_behaviour():
    assert wilson_halfwidth(0, 100) > 0
    assert wilson_halfwidth(100, 100) == wilson_halfwidth(0, 100)
    assert wilson_halfwidth(50, 100) > wilson_halfwidth(50, 10_000) / 2  # shrinks with n
    with pytest.raises(ValueError):
        wilson_halfwidth(0, 0)


def test_mc_degenerate_thresholds_give_certainty():
    cfg = NetworkConfig(e_th=0.0, sigma_bits=0.0)
    est = jsp_monte_carlo(cfg, trials=5000, seed=3)
    assert est.value == 1.0


def test_mc_unreachable_threshold_gives_zero():
    cfg = NetworkConfig(e_th=1e9)
    est = jsp_monte_carlo(cfg, trials=5000, seed=3)
    assert est.value == 0.0


def test_mc_matches_brute_force_oracle():
    cfg = NetworkConfig(p_t=db_to_watt(10.0))
    est = jsp_monte_carlo(cfg, trials=100_000, seed=21)
    oracle, oracle_ci = jsp_brute_force(cfg, trials=100_000, seed=99)
    assert abs(est.value - oracle) <= est.ci_halfwidth + oracle_ci


def test_mc_nonlinear_matches_brute_force_oracle():
    cfg = NetworkConfig(p_t=db_to_watt(6.0),
                        harvester=HarvesterModel(kind="nonlinear", pr_min=0.045, pr_max=10.0))
    est = jsp_monte_carlo(cfg, trials=60_000, seed=4)
    oracle, oracle_ci = jsp_brute_force(cfg, trials=60_000, seed=5)
    assert abs(est.value - oracle) <= est.ci_halfwidth + oracle_ci


def test_mc_deterministic_in_seed():
    cfg = NetworkConfig()
    a = jsp_monte_carlo(cfg, trials=20_000, seed=11)
    b = jsp_monte_carlo(cfg, trials=20_000, seed=11)
    assert a.value == b.value


def test_nonlinear_never_exceeds_linear_with_shared_seed():
    lin = NetworkConfig(p_t=db_to_watt(4.0))
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=0.045, pr_max=10.0))
    a = jsp_monte_carlo(lin, trials=30_000, seed=8)
    b = jsp_monte_carlo(nl, trials=30_000, seed=8)
    # identical draws: the nonlinear success set is a subset of the linear one
    assert b.value <= a.value


def test_select_regime():
    assert select_regime(NetworkConfig()) == "linear"
    below = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=1e6, pr_max=1e7))
    assert select_regime(below) == "case_a"
    saturated = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=1e-9))
    assert select_regime(saturated) == "case_c"
    mid = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=1e-6, pr_max=1e6))
    assert select_regime(mid) == "case_b"


def test_select_regime_rejects_zero_probes():
    mid = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=1e-6, pr_max=1e6))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        select_regime(mid, probes=0)


def test_auto_bounds_where_activation_binds():
    # no slot harvests below pr_min, so only the trivial lower bound holds; the
    # nonlinear success set lies inside the linear one, so its upper bound holds
    cfg = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=1e6, pr_max=1e7))
    lo, up = jsp_lower_bound(cfg, spec=FAST_SPEC), jsp_upper_bound(cfg, spec=FAST_SPEC)
    assert (lo.value, lo.quadrature_error) == (0.0, 0.0)
    assert up == jsp_upper_bound(NetworkConfig(), spec=FAST_SPEC)
    assert up.value > 0.5


def test_auto_bounds_zero_where_saturation_rules_out_success():
    # eta xi tau pr_max = 0.0072 J <= e_th: no slot can harvest enough
    cfg = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=0.02))
    for c in (cfg, NetworkConfig(xi=0.0), replace(cfg, xi=0.0)):  # xi = 0 meets 0 * inf
        for est in (jsp_lower_bound(c), jsp_upper_bound(c)):
            assert (est.value, est.quadrature_error) == (0.0, 0.0)


def test_bounds_vanish_as_data_phase_closes():
    cfg = NetworkConfig(xi=1 - 1e-9)  # decoding threshold is effectively infinite
    assert jsp_lower_bound(cfg, regime="linear").value == 0.0
    assert jsp_upper_bound(cfg, regime="linear").value == 0.0


def test_bound_ordering_along_power_sweep():
    for db in (0.0, 8.0, 16.0):
        cfg = NetworkConfig(p_t=db_to_watt(db))
        lo = jsp_lower_bound(cfg, regime="linear", spec=FAST_SPEC)
        up = jsp_upper_bound(cfg, regime="linear", spec=FAST_SPEC)
        assert lo.value <= up.value + 1e-9


def test_sandwich_at_defaults():
    cfg = NetworkConfig()
    mc = jsp_monte_carlo(cfg, trials=40_000, seed=17)
    lo = jsp_lower_bound(cfg, regime="linear", spec=FAST_SPEC)
    up = jsp_upper_bound(cfg, regime="linear", spec=FAST_SPEC)
    eps = mc.ci_halfwidth + max(lo.quadrature_error, up.quadrature_error)
    assert lo.value - eps <= mc.value <= up.value + eps


def test_lower_bound_matches_placement_oracle():
    cfg = NetworkConfig()
    lo = jsp_lower_bound(cfg, regime="linear", spec=FAST_SPEC)
    oracle, ci = placement_bound_mc(cfg, "lower", trials=40_000, seed=31)
    assert abs(lo.value - oracle) <= 3 * (ci + lo.quadrature_error)


def test_upper_bound_matches_placement_oracle():
    cfg = NetworkConfig()
    up = jsp_upper_bound(cfg, regime="linear", spec=FAST_SPEC)
    oracle, ci = placement_bound_mc(cfg, "upper", trials=40_000, seed=32)
    assert abs(up.value - oracle) <= 3 * (ci + up.quadrature_error)


def test_saturated_lower_bound_matches_placement_oracle():
    cfg = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=1e-9))
    lo = jsp_lower_bound(cfg, regime="case_c", spec=FAST_SPEC)
    oracle, ci = placement_bound_mc(cfg, "saturated_lower", trials=40_000, seed=33)
    assert abs(lo.value - oracle) <= 3 * (ci + lo.quadrature_error)


def test_case_c_upper_uses_general_form():
    sat = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=1e-9))
    lin = NetworkConfig()
    up_sat = jsp_upper_bound(sat, regime="case_c", spec=FAST_SPEC)
    up_lin = jsp_upper_bound(lin, regime="linear", spec=FAST_SPEC)
    assert up_sat.value == pytest.approx(up_lin.value, abs=1e-9)


# (pr_min, pr_max, p_t in dB, expected auto bounds): "linear" where the window
# never binds (eta xi tau pr_min <= e_th), "upper" where activation binds (lower
# is 0, upper the linear one), "zero" where saturation rules success out
_SANDWICH_GRID = [
    (1e-3, 10.0, 0.0, "linear"),
    (1e-3, 10.0, 10.0, "linear"),
    (0.0, 0.05, 10.0, "linear"),   # saturation clips but still clears e_th
    (0.045, 10.0, 0.0, "upper"),
    (0.045, 10.0, 10.0, "upper"),
    (0.5, 10.0, 0.0, "upper"),
    (0.5, 1.0, 20.0, "upper"),
    (0.0, 0.02, 10.0, "zero"),
]


def _fields(est):
    return est.value, est.quadrature_error, est.converged


@pytest.mark.parametrize("pr_min, pr_max, db, expected", _SANDWICH_GRID)
def test_auto_nonlinear_bounds_sandwich_monte_carlo(pr_min, pr_max, db, expected):
    lin = NetworkConfig(p_t=db_to_watt(db))
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=pr_min, pr_max=pr_max))
    mc = jsp_monte_carlo(nl, trials=20_000, seed=41)
    lo, up = jsp_lower_bound(nl, spec=FAST_SPEC), jsp_upper_bound(nl, spec=FAST_SPEC)
    assert lo.value - mc.ci_halfwidth - lo.quadrature_error <= mc.value
    assert mc.value <= up.value + mc.ci_halfwidth + up.quadrature_error
    lin_lo, lin_up = jsp_lower_bound(lin, spec=FAST_SPEC), jsp_upper_bound(lin, spec=FAST_SPEC)
    if expected == "zero":
        assert mc.value == lo.value == up.value == 0.0
    else:
        assert _fields(up) == _fields(lin_up)
        assert _fields(lo) == (_fields(lin_lo) if expected == "linear" else (0.0, 0.0, True))


def test_invalid_regime_and_mode_rejected():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        jsp_lower_bound(cfg, regime="nope")


def _oracle_nodes(radius):
    """(d1, dk) pairs with d1 from 1e-4 R to (1 - 1e-6) R and dk from the
    near-diagonal d1 (1 + 1e-9) to the rim, plus serving distances up to
    (1 - 1e-9) R for the saturated integrand."""
    fr = np.array([1e-4, 0.01, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-6])
    gap = np.array([0.0, 1e-4, 0.1, 0.5, 1.0])
    d1 = np.repeat(fr * radius, gap.size)
    dk = d1 + np.tile(gap, fr.size) * (radius - d1)
    dk = np.where(np.tile(gap, fr.size) == 0.0, d1 * (1.0 + 1e-9), dk)
    r = np.array([1e-4, 0.01, 0.2, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]) * radius
    return d1, dk, r


def _placement(problem, side, d1, dk):
    """``problem``'s integrand of the ``side`` bound at the aligned nodes (d1, dk)."""
    e, s = jsp._PLACEMENTS[side]
    return problem.placement(d1, dk, (d1, dk)[e], (d1, dk)[s])


@pytest.mark.parametrize("radius", [20.0, 60.0, 200.0])
@pytest.mark.parametrize("db", [0.0, 10.0, 20.0])
def test_closed_form_integrands_match_count_series(radius, db):
    """The saturated placement is integrated over d_K to meet the count series
    in the serving distance alone."""
    cfg = NetworkConfig(radius=radius, p_t=db_to_watt(db))
    problem = jsp._BoundProblem(cfg)
    d1, dk, r = _oracle_nodes(radius)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    u_cuts = (*jsp._INNER_U_SPLITS, 1.0 - jsp._INNER_TAIL / problem.ppp.mean_count)

    def saturated(r1):
        span = radius - r1
        f = lambda u: _placement(problem, "saturated", np.full(u.shape, r1), r1 + u * span) * span
        return integrate_adaptive(f, 0.0, 1.0, spec, u_cuts).value

    # each (d1, dk) pair a column of its own: the integrand screens a column against its peak
    pairs = [(_placement(problem, "lower", d1[None], dk[None])[0], count_series_integrand(cfg, "lower", d1, dk)),
             (_placement(problem, "upper", d1[None], dk[None])[0], count_series_integrand(cfg, "upper", d1, dk)),
             (np.array([saturated(r1) for r1 in r]), count_series_integrand(cfg, "saturated", r))]
    for got, ref in pairs:
        big = ref > 1e-60
        np.testing.assert_allclose(got[big], ref[big], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(got[~big], ref[~big], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("radius,alpha,density,xi,db", [
    (200.0, 3.0, 0.01, 0.1, 0.0),
    (20.0, 3.0, 0.003, 0.4, 10.0),
])
def test_saturated_bound_matches_nearest_distance_form(radius, alpha, density, xi, db):
    """Integrating the (d_1, d_1) placement over d_K is the old one-dimensional
    saturated bound, kept as ``oracles.saturated_integrand``. Over 324
    configurations (R in {20, 60, 100, 200} m, alpha in {2.5, 3, 4}, lambda in
    {0.001, 0.003, 0.01}, xi in {0.1, 0.5, 0.9}, 0/10/20 dB) at four specs the
    largest gap was 3.3e-12, at the first case above and at alpha = 4, 20 dB,
    with no converged flip."""
    cfg = NetworkConfig(radius=radius, alpha=alpha, density=density, xi=xi, p_t=db_to_watt(db))
    problem = jsp._BoundProblem(cfg)
    for spec in (QuadratureSpec(), XISTAR_SPEC):
        est = jsp_lower_bound(cfg, regime="case_c", spec=spec)
        want = integrate_adaptive(lambda r: saturated_integrand(problem, r), 0.0, radius, spec,
                                  jsp._near_quantiles(problem.ppp, jsp._SPLIT_QS))
        assert abs(est.value - want.value) <= 1e-11
        assert est.converged == want.converged


def _chndtr_elements(monkeypatch):
    """A counter of the elements ``jsp`` hands ``chndtr`` from now on."""
    calls = collections.Counter()

    def counted(x, df, nc, _fn=jsp.chndtr):
        calls["chndtr"] += x.size
        return _fn(x, df, nc)
    monkeypatch.setattr(jsp, "chndtr", counted)
    return calls


def test_upper_gamma_sum_matches_scipy_stats(monkeypatch):
    """Where 1 - CDF is below 1/2 the survival function is the private ufunc
    behind ``stats.ncx2.sf``; it must give the same bits (mu > 0, so nc > 0).
    Where the Chernoff bound puts the CDF below 2^-56, 1.0 stands for 1 - CDF
    without a Boost call; on this set that covers over a tenth of the elements."""
    rng = np.random.default_rng(7)
    n = 200_000
    c = 10.0 ** rng.uniform(-2.0, 1.5, n)
    mu = 10.0 ** rng.uniform(-6.0, 2.8, n) * c  # mu/c below e^709
    z = 10.0 ** rng.uniform(-6.0, 3.0, n) / c
    z[:100] = 0.0  # u = 0 and a log bound of -inf: the CDF is exactly 0
    a = mu / c
    x, nc = 2.0 * c * z, 2.0 * a
    sf = 1.0 - chndtr(x, 2.0, nc)
    direct = sf < 0.5
    sf[direct] = stats.ncx2.sf(x[direct], 2.0, nc[direct])
    assert np.count_nonzero(direct) > 50_000
    calls = _chndtr_elements(monkeypatch)
    np.testing.assert_array_equal(jsp._sir_term(mu, c, z, 0.0), np.exp(a) / c * sf)
    band = np.count_nonzero(x < 2.0 + nc)
    assert band - calls["chndtr"] > n // 10


def test_lower_gamma_sum_matches_chndtr(monkeypatch):
    """Where the Chernoff bound puts the survival function below 2^-56, 1.0
    stands for the CDF without a Boost call; it must give the bits of
    ``chndtr``. nc reaches 1,400 and x reaches 140 times that, so the skip
    covers over a quarter of the elements. Edge elements: mu = 0 and nc -> 0."""
    rng = np.random.default_rng(8)
    n = 200_000
    c = 10.0 ** rng.uniform(-2.0, 1.5, n)
    mu = 10.0 ** rng.uniform(-6.0, np.log10(700.0), n) * c  # e^{mu/c} / c below the overflow
    mu[:100], mu[100:200] = 0.0, 1e-300 * c[100:200]
    z = 10.0 ** rng.uniform(-4.0, 5.0, n) / c  # c z >= 1e-4: never the Bessel limit
    a = mu / c
    calls = _chndtr_elements(monkeypatch)
    got = jsp._energy_term(mu, c, z, 0.0)
    assert calls["chndtr"] < 0.75 * n
    np.testing.assert_array_equal(got.view(np.int64),
                                  (np.exp(a) / c * chndtr(2.0 * c * z, 2.0, 2.0 * a)).view(np.int64))



def test_sir_survival_below_half_at_the_mean():
    """``_sir_term`` calls the survival function alone at x >= 2 + nc, the mean,
    because there it is below 1/2: a noncentral chi-square's median lies below
    its mean. So is 1 - CDF, which the plain evaluator computes first, so both
    routes call the survival function there. Checked up to nc = 2
    model.MAX_MEAN_COUNT, the largest a bound reaches (nc = 2 mu/c <= 2m);
    the largest value read 0.4993, at that end."""
    nc = np.concatenate(([0.0], np.logspace(-8.0, math.log10(2.0 * MAX_MEAN_COUNT), 2000)))
    x = 2.0 + nc
    assert np.all(jsp._ncx2_sf(x, 2.0, nc) < 0.5)
    assert np.all(1.0 - chndtr(x, 2.0, nc) < 0.5)


def test_bessel_limit_ratio_matches_mpmath():
    """The energy term's Bessel limit reads 2 I_1(y)/y as 2 i1e(y)/y, scaled by
    e^-y. On 3,000 log-spaced y in [1e-8, 1e3] that lies within 4e-15 relative
    of mpmath at 40 digits: measured 1.6e-15, against 3.6e-15 for ive(1, y)."""
    mpmath = pytest.importorskip("mpmath")
    y = np.logspace(-8.0, 3.0, 3000)
    with mpmath.workdps(40):
        want = np.array([float(2 * mpmath.besseli(1, v) * mpmath.exp(-v) / v) for v in map(mpmath.mpf, y)])
    np.testing.assert_allclose(2.0 * jsp.i1e(y) / y, want, rtol=4e-15, atol=0.0)

@pytest.fixture(scope="module")
def kronrod_nodes():
    """Every call the two bound integrals make of the placement integrand for R in
    {20, 60, 200} m, p_t in {0, 10, 20} dB and xi in {0.05, 0.5, 0.95}: (problem,
    side, radius, blocks), each block the (d1, dk, value, oracle) of one call, in
    its (u x d_1) shape, with the oracle the sum of both terms on every node."""
    out = []
    for radius in (20.0, 60.0, 200.0):
        for db in (0.0, 10.0, 20.0):
            for xi in (0.05, 0.5, 0.95):
                cfg = NetworkConfig(radius=radius, p_t=db_to_watt(db), xi=xi)
                problem = jsp._BoundProblem(cfg)
                for side in ("lower", "upper"):
                    calls = []

                    def record(self, d1, dk, d_e, d_s, f=jsp._BoundProblem.placement):
                        calls.append((d1, dk, f(self, d1, dk, d_e, d_s)))
                        return calls[-1][2]

                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(jsp._BoundProblem, "placement", record)
                        jsp._bound_integral.__wrapped__(cfg, side, QuadratureSpec())
                    blocks = [(d1, dk, value, sum(gamma_sum_integrand(problem, side, d1, dk)))
                              for d1, dk, value in calls]
                    out.append((problem, side, radius, blocks))
    return out


def test_bound_integrands_match_gamma_sum_oracle(kronrod_nodes):
    """Skipping a term that cannot change its node's sum, and sending the SIR
    term to one Boost routine, leave every node the column screen keeps bit for
    bit as the sum of both terms evaluated everywhere. A node the screen drops is
    0, and its sum is below 2^-56 of the largest in its column (u down the
    rows, one column per d_1 node). The screen fires at R = 200 m, and a column
    evaluated alone, as a 1-D call, keeps the bits it has within its round."""
    dropped = collections.Counter()
    for problem, side, radius, blocks in kronrod_nodes:
        for d1, dk, value, oracle in blocks:
            same = value.view(np.int64) == oracle.view(np.int64)
            assert np.all(value[~same] == 0.0)
            assert np.all((oracle < 2.0**-56 * oracle.max(axis=0))[~same])
            dropped[radius] += np.count_nonzero(~same)
            for j in {0, int(np.argmax(np.count_nonzero(~same, axis=0)))}:
                alone = _placement(problem, side, d1[:, j], dk[:, j])
                np.testing.assert_array_equal(alone.view(np.int64), value[:, j].view(np.int64))
    assert dropped[200.0] > 0


def test_bound_integrand_branches_all_fire(kronrod_nodes, monkeypatch):
    """Over the Kronrod nodes above, terms are skipped both for underflow and
    for being below half an ulp of the other term or of their column's peak,
    both terms skip Boost where the complementary tail of their probability is
    below 2^-56, and the SIR term's survival function is called alone (x at or
    above the mean) as well as after 1 - CDF. Each evaluated term costs one Boost
    call, none where its tail is skipped; every call beyond that is the survival
    function after 1 - CDF came out below 1/2. Without the tail skip every node
    keeps its bits; without the ulp skips every node is the sum of both terms."""
    nodes = collections.Counter()

    def count(name, size_of):
        def counted(*args, _fn=getattr(jsp, name)):
            nodes[name] += size_of(args)
            return _fn(*args)
        monkeypatch.setattr(jsp, name, counted)

    for name in ("_energy_term", "_sir_term", "chndtr", "_ncx2_sf"):
        count(name, lambda args: args[0].size)
    count("i1e", lambda args: args[0].size)

    def tail(x, nc, upper, _fn=jsp._negligible_tail):
        out = _fn(x, nc, upper)
        nodes["upper_tail" if upper else "lower_tail"] += np.count_nonzero(out)
        return out
    monkeypatch.setattr(jsp, "_negligible_tail", tail)

    def evaluate(want=2):
        """Evaluated terms; every node must give the bits of its block's
        ``want`` entry (2: the recorded value, 3: the oracle)."""
        nodes.clear()
        for problem, side, _, blocks in kronrod_nodes:
            for block in blocks:
                got = _placement(problem, side, block[0], block[1])
                np.testing.assert_array_equal(got.view(np.int64), block[want].view(np.int64))
        return nodes["_energy_term"] + nodes["_sir_term"]

    n_nodes = sum(block[0].size for *_, blocks in kronrod_nodes for block in blocks)
    skipping = evaluate()
    tail_skips, chndtr_calls = nodes["upper_tail"] + nodes["lower_tail"], nodes["chndtr"]
    assert nodes["upper_tail"] > 0 and nodes["lower_tail"] > 0
    fallback = chndtr_calls + nodes["i1e"] + nodes["_ncx2_sf"] - (skipping - tail_skips)
    assert fallback > 0 and nodes["_ncx2_sf"] - fallback > 0
    with monkeypatch.context() as m:
        m.setattr(jsp, "_negligible_tail", lambda x, nc, upper: np.zeros(x.shape, bool))
        assert evaluate() == skipping
        assert nodes["chndtr"] == chndtr_calls + tail_skips
    with monkeypatch.context() as m:
        m.setattr(jsp, "_LOG_SKIP", np.inf)
        without_ulp_skip = evaluate(want=3)
    with monkeypatch.context() as m:
        m.setattr(jsp, "_LOG_UNDERFLOW", -np.inf)
        without_underflow_skip = evaluate()
    assert skipping < without_ulp_skip < 2 * n_nodes
    assert skipping < without_underflow_skip < 2 * n_nodes


@pytest.mark.parametrize("radius,density,xi,db,side", [
    (200.0, 0.01, 0.1, 0.0, "lower"),
    (200.0, 0.003, 0.5, 20.0, "upper"),
    (60.0, 0.003, 0.5, 10.0, "lower"),
    (20.0, 0.003, 0.9, 0.0, "upper"),
])
def test_column_screen_leaves_bounds_of_unscreened_integrand(monkeypatch, radius, density, xi, db, side):
    """The bound integrals of the screened integrand stay within 1e-14 relative
    of those of the oracle integrand, both terms on every node, on the same
    drive, with the same convergence flag. Over 1,296 bounds (R in {20, 60,
    100, 200} m, alpha in {2.5, 3, 4}, lambda in {0.001, 0.003, 0.01}, xi in
    {0.1, 0.5, 0.9}, 0/10/20 dB, lower and upper, at both specs below) the
    screen changed 79 values, by at most 7.8e-16 relative at the first case
    above, and no flag."""
    cfg = NetworkConfig(radius=radius, density=density, xi=xi, p_t=db_to_watt(db))
    specs = (QuadratureSpec(), XISTAR_SPEC)
    got = [jsp._bound_integral.__wrapped__(cfg, side, spec) for spec in specs]
    monkeypatch.setattr(jsp._BoundProblem, "placement",
                        lambda self, d1, dk, d_e, d_s: sum(gamma_sum_integrand(self, side, d1, dk)))
    for (value, _, ok), spec in zip(got, specs):
        want, _, want_ok = jsp._bound_integral.__wrapped__(cfg, side, spec)
        assert abs(value - want) <= 1e-14 * abs(want)
        assert ok == want_ok


COUNT_WINDOW_BOUNDS = {
    (20.0, 0.0, "lower"): 0.09709082684839719,
    (20.0, 0.0, "upper"): 0.25549826625713074,
    (20.0, 20.0, "lower"): 0.946053751552841,
    (20.0, 20.0, "upper"): 0.9731130424568513,
    (60.0, 0.0, "lower"): 0.0868604876586519,
    (60.0, 0.0, "upper"): 0.651443651281852,
    (60.0, 20.0, "lower"): 0.8527318741438753,
    (60.0, 20.0, "upper"): 0.9997428520640531,
    (200.0, 0.0, "lower"): 0.07529605761639409,
    (200.0, 0.0, "upper"): 0.9948596949654552,
    (200.0, 20.0, "lower"): 0.5934630382002885,
    (200.0, 20.0, "upper"): 0.999921081369282,
}
COUNT_WINDOW_SATURATED_LOWER = 0.9502034650313128
TIGHT_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


@pytest.mark.parametrize("key", sorted(COUNT_WINDOW_BOUNDS))
def test_bounds_agree_with_count_window_evaluator(key):
    """The pinned values are the bounds of the count-window series evaluator
    that the closed forms replaced. Reproduce them on commit 177648f with

        PYTHONPATH=src python3 -c "
        from aoiharvest.jsp import jsp_lower_bound, jsp_upper_bound
        from aoiharvest.model import HarvesterModel, NetworkConfig, db_to_watt
        from aoiharvest.quadrature import QuadratureSpec
        s = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, series_mass=1 - 1e-13)
        for r in (20.0, 60.0, 200.0):
            for db in (0.0, 20.0):
                c = NetworkConfig(radius=r, p_t=db_to_watt(db))
                print(r, db, jsp_lower_bound(c, 'linear', s).value, jsp_upper_bound(c, 'linear', s).value)
        h = HarvesterModel(kind='nonlinear', pr_min=0.0, pr_max=1e-9)
        print(jsp_lower_bound(NetworkConfig(harvester=h), 'case_c', s).value)"
    """
    radius, db, side = key
    fn = jsp_lower_bound if side == "lower" else jsp_upper_bound
    est = fn(NetworkConfig(radius=radius, p_t=db_to_watt(db)), regime="linear", spec=TIGHT_SPEC)
    assert est.converged
    assert abs(est.value - COUNT_WINDOW_BOUNDS[key]) <= 1e-8


def test_saturated_bound_agrees_with_count_window_evaluator():
    """Pinned by the last line of the command in the test above."""
    cfg = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=1e-9))
    est = jsp_lower_bound(cfg, regime="case_c", spec=TIGHT_SPEC)
    assert est.converged
    assert abs(est.value - COUNT_WINDOW_SATURATED_LOWER) <= 1e-8


XISTAR_SPEC = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)  # the spec of the xistar-vs-* sweeps
# (lower, upper) at QuadratureSpec(), then at XISTAR_SPEC, keyed (radius, xi, p_t dB).
DRIVER_BOUNDS = {
    (20.0, 0.1, 0.0): (0.03955005131764731, 0.11375239828090587,
                       0.03955005131765472, 0.11375239828090977),
    (20.0, 0.1, 20.0): (0.6710221399827677, 0.8506452702896593,
                       0.6710221399827677, 0.8506452702896593),
    (20.0, 0.55, 0.0): (0.11897567589890481, 0.30272437971672844,
                       0.1189756759139323, 0.30272437971672844),
    (20.0, 0.55, 20.0): (0.9659667260863373, 0.9833779445011781,
                       0.9659667260863373, 0.9833779445011781),
    (20.0, 0.9, 0.0): (0.16214383535493443, 0.3867030992072944,
                       0.16214383535493443, 0.3867030992072944),
    (20.0, 0.9, 20.0): (0.9666835270717402, 0.9900955537731353,
                       0.9666835270717402, 0.9900955537731353),
    (60.0, 0.1, 0.0): (0.035822206650725115, 0.34756415694474674,
                       0.035822206650948964, 0.34756415694474674),
    (60.0, 0.1, 20.0): (0.5183797250731172, 0.999057585131738,
                       0.5183797250874815, 0.9990575851319288),
    (60.0, 0.55, 0.0): (0.10570839584733713, 0.7254708505681615,
                       0.10570839584733713, 0.7254708505681615),
    (60.0, 0.55, 20.0): (0.9083291538681088, 0.9996589422385193,
                       0.9083291538681143, 0.9996589422385193),
    (60.0, 0.9, 0.0): (0.13529561609168378, 0.8284960468961436,
                       0.1352956160917897, 0.828496046896235),
    (60.0, 0.9, 20.0): (0.7952390756142851, 0.9984655073041656,
                       0.7952390756142851, 0.9984655073041656),
    (140.0, 0.1, 0.0): (0.03498936402702643, 0.7316134320979047,
                       0.034989364027027396, 0.7316134320984666),
    (140.0, 0.1, 20.0): (0.48345418909133414, 0.999925063892523,
                       0.4834541890910132, 0.999925063892523),
    (140.0, 0.55, 0.0): (0.09817908990284603, 0.9821196068830172,
                       0.09817908990284603, 0.9821196068828633),
    (140.0, 0.55, 20.0): (0.7127630547597318, 0.9998500890821168,
                       0.7127630547595014, 0.9998500890821168),
    (140.0, 0.9, 0.0): (0.07170133324974134, 0.9954514693427494,
                       0.07170133324974134, 0.9954514693427494),
    (140.0, 0.9, 20.0): (0.281013419868796, 0.9993241792628876,
                       0.2810134198752304, 0.9993241792628876),
    (200.0, 0.1, 0.0): (0.033260087902996074, 0.8796192218516694,
                       0.033260087902993965, 0.8796192218516696),
    (200.0, 0.1, 20.0): (0.44707894168394946, 0.9999473953663517,
                       0.4470789416839495, 0.9999473953663519),
    (200.0, 0.55, 0.0): (0.08480030659455194, 0.9984105306668803,
                       0.08480030659424974, 0.9984105306668807),
    (200.0, 0.55, 20.0): (0.5426253633414791, 0.9998947595829647,
                       0.5426253633414794, 0.999894759582965),
    (200.0, 0.9, 0.0): (0.024833760392104023, 0.9994002307442033,
                       0.024833760395639656, 0.9994002307442035),
    (200.0, 0.9, 20.0): (0.07448446787360745, 0.9995254358335651,
                       0.07448446787360746, 0.9995254358335653),
}


@pytest.mark.parametrize("key", sorted(DRIVER_BOUNDS))
def test_bounds_match_per_panel_driver(key):
    """The pinned values come from the driver that ran one inner drive per
    15-node outer panel, on fixed u-splits only (commit 6cc5725). Sharing one
    inner drive per outer round and splitting at u = 1 - c/m must leave every
    bound within 1e-10 relative of them."""
    radius, xi, db = key
    cfg = NetworkConfig(radius=radius, xi=xi, p_t=db_to_watt(db))
    got = [fn(cfg, spec=spec).value for spec in (QuadratureSpec(), XISTAR_SPEC)
           for fn in (jsp_lower_bound, jsp_upper_bound)]
    np.testing.assert_allclose(got, DRIVER_BOUNDS[key], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("radius", [20.0, 200.0])
@pytest.mark.parametrize("db", [0.0, 20.0])
def test_reported_error_covers_actual_error(radius, db):
    """The error estimate of the d_1 drive bounds the distance to a rel-1e-11
    evaluation on the same u rule, at both specs the sweeps use."""
    cfg = NetworkConfig(radius=radius, p_t=db_to_watt(db))
    for fn in (jsp_lower_bound, jsp_upper_bound):
        tight = fn(cfg, spec=QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14))
        assert tight.converged
        for spec in (QuadratureSpec(), XISTAR_SPEC):
            est = fn(cfg, spec=spec)
            assert est.converged
            assert est.quadrature_error >= abs(est.value - tight.value)


ORACLE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)


@pytest.mark.parametrize("radius,alpha,density,xi,db,side", [
    (20.0, 4.0, 0.001, 0.1, 0.0, "lower"),
    (200.0, 2.5, 0.01, 0.5, 0.0, "upper"),
])
def test_fixed_u_rule_matches_adaptive_u_drive(monkeypatch, radius, alpha, density, xi, db, side):
    """The fixed Kronrod rule in u stays within 3e-11 absolute of an adaptive
    u drive (the nested driver kept in tests/oracles.py), both at rel 1e-11.
    Over 648 bounds (R in {20, 60, 100, 200} m, alpha in {2.5, 3, 4}, lambda
    in {0.001, 0.003, 0.01}, xi in {0.1, 0.5, 0.9}, 0/10/20 dB, lower and
    upper) the two largest gaps were 1.33e-11 and 8.9e-12, at these cases."""
    cfg = NetworkConfig(radius=radius, alpha=alpha, density=density, xi=xi, p_t=db_to_watt(db))
    value, _, ok = jsp._bound_integral.__wrapped__(cfg, side, ORACLE_SPEC)
    monkeypatch.setattr(jsp, "integrate_iterated", integrate_iterated_adaptive)
    want, _, want_ok = jsp._bound_integral.__wrapped__(cfg, side, ORACLE_SPEC)
    assert ok and want_ok
    assert abs(value - want) <= 3e-11


def test_beta_recomputed_from_xi():
    # moving xi moves both the harvest scale and the decoding threshold:
    # starving either phase collapses the bound below the midrange value
    lo_mid = jsp_lower_bound(NetworkConfig(xi=0.4), regime="linear", spec=FAST_SPEC).value
    lo_rate_starved = jsp_lower_bound(NetworkConfig(xi=0.999), regime="linear", spec=FAST_SPEC).value
    lo_energy_starved = jsp_lower_bound(NetworkConfig(xi=0.01), regime="linear", spec=FAST_SPEC).value
    assert lo_mid > lo_rate_starved and lo_mid > lo_energy_starved


def _estimates(cfgs):
    out = []
    for cfg in cfgs:
        for est in (jsp_monte_carlo(cfg, trials=5000, seed=13),
                    jsp_lower_bound(cfg, spec=FAST_SPEC), jsp_upper_bound(cfg, spec=FAST_SPEC)):
            out.append((cfg.harvester.kind, est))
    return sorted(out, key=lambda pair: pair[0])  # stable: call order within each circuit


def test_cold_and_warm_caches_agree_in_any_order():
    lin = NetworkConfig(p_t=db_to_watt(6.0))
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=0.045, pr_max=10.0))
    clear_jsp_caches()
    cold = _estimates([lin, nl])
    warm = _estimates([lin, nl])
    clear_jsp_caches()
    nl_first = _estimates([nl, lin])
    assert cold == warm == nl_first


def test_geometry_is_sampled_once_per_sweep(monkeypatch):
    calls = []
    sample_batch = geometry.sample_batch

    def counting(*args):
        calls.append(args[1])
        return sample_batch(*args)

    monkeypatch.setattr(geometry, "sample_batch", counting)
    clear_jsp_caches()
    nl = HarvesterModel(kind="nonlinear", pr_min=0.045, pr_max=10.0)
    for db in (0.0, 10.0, 20.0):
        for harvester in (HarvesterModel(), nl):
            jsp_monte_carlo(NetworkConfig(p_t=db_to_watt(db), harvester=harvester), trials=3000, seed=2)
    assert calls == [3000]  # one Monte Carlo chunk for all six points


def test_cached_sums_are_read_only():
    cfg = NetworkConfig()
    jsp_monte_carlo(cfg, trials=2000, seed=1)
    sums = jsp._geometry_sums(DiscPpp.from_config(cfg), cfg.alpha, 2000, 1)
    with pytest.raises(ValueError):
        sums[0, 0] = 1.0



def test_geometry_sums_match_lexsort_reference(monkeypatch):
    """Chunk by chunk, the in-place power and product give the bits of
    g * d ** -alpha on the lexsort reference's draw, read as each trial's
    serving term and total. Mean count 1,257 over two chunks."""
    cfg = NetworkConfig(radius=200.0, density=0.01)
    ppp = DiscPpp.from_config(cfg)
    sizes = []
    sample_batch = geometry.sample_batch

    def recording(ppp, trials, rng):
        sizes.append(trials)
        return sample_batch(ppp, trials, rng)

    monkeypatch.setattr(geometry, "sample_batch", recording)
    got = jsp._geometry_sums.__wrapped__(ppp, cfg.alpha, 4000, 3)
    assert ppp.mean_count >= 1e3 and len(sizes) >= 2
    want = []
    for trials, child in zip(sizes, np.random.SeedSequence(3).spawn(len(sizes))):
        _, starts, d, g = sample_batch_lexsort(ppp, trials, np.random.default_rng(child))
        gw = g * d ** -cfg.alpha
        want.append(np.stack((gw[starts], np.add.reduceat(gw, starts))))
    np.testing.assert_array_equal(got.view(np.int64), np.concatenate(want, axis=1).view(np.int64))


@pytest.mark.parametrize("mean_count", [1e3, 4e3])
def test_monte_carlo_chunk_bytes_per_trial_and_mean_count(mean_count):
    """model.MAX_MEAN_COUNT rests on this: drawing one 1,024-trial chunk and
    its sums peaks below 20 bytes per trial and unit of mean count m (float64
    rows padded to the largest count and their byte mask, then the float64
    distances and gains). Measured by tracemalloc: 17.2-18.0 at m = 1e3 to
    3e4, against 25.2-26.0 with the uniform draw, its square root and its
    scaling in three buffers."""
    ppp = DiscPpp(density=mean_count / (math.pi * 200.0**2), radius=200.0)
    tracemalloc.start()
    try:
        jsp._geometry_sums.__wrapped__(ppp, 3.0, 1024, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (1024 * ppp.mean_count) < 20.0

def test_bound_cache_hit_shared_across_circuits():
    lin = NetworkConfig()
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=1e-12, pr_max=1e12))
    a = jsp_upper_bound(lin, regime="linear", spec=FAST_SPEC)
    hits = jsp._bound_integral.cache_info().hits
    b = jsp_upper_bound(nl, regime="case_b", spec=FAST_SPEC)
    assert jsp._bound_integral.cache_info().hits == hits + 1
    assert (b.value, b.quadrature_error, b.converged) == (a.value, a.quadrature_error, a.converged)
