from dataclasses import replace

import pytest

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
from aoiharvest.model import HarvesterModel, NetworkConfig, db_to_watt
from aoiharvest.quadrature import QuadratureSpec

from oracles import jsp_brute_force, placement_bound_mc

FAST_SPEC = QuadratureSpec(rel_tol=1e-5)


def clear_jsp_caches():
    jsp._geometry_sums.cache_clear()
    jsp._bound_integral.cache_clear()


def test_estimate_rejects_bad_probability():
    with pytest.raises(ValueError):
        JspEstimate(value=1.2, method="monte_carlo", regime="linear")


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


def test_bounds_zero_in_case_a():
    cfg = NetworkConfig(harvester=HarvesterModel(kind="nonlinear", pr_min=1e6, pr_max=1e7))
    assert jsp_lower_bound(cfg).value == 0.0
    assert jsp_upper_bound(cfg).value == 0.0


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


def test_factored_mode_close_at_default_geometry():
    cfg = NetworkConfig()
    for fn in (jsp_lower_bound, jsp_upper_bound):
        exact = fn(cfg, regime="linear", spec=FAST_SPEC)
        factored = fn(cfg, regime="linear", spec=FAST_SPEC, mode="factored")
        assert factored.value == pytest.approx(exact.value, abs=0.015)


def test_factored_mode_departs_on_small_discs():
    # at low counts the independence shortcuts become visible
    cfg = NetworkConfig(radius=20.0)
    exact = jsp_upper_bound(cfg, regime="linear", spec=FAST_SPEC)
    factored = jsp_upper_bound(cfg, regime="linear", spec=FAST_SPEC, mode="factored")
    assert factored.value - exact.value > 0.02


def test_invalid_regime_and_mode_rejected():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        jsp_lower_bound(cfg, regime="nope")
    with pytest.raises(ValueError):
        jsp_lower_bound(cfg, regime="linear", mode="approximate")


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
    return sorted(out, key=lambda pair: (pair[0], pair[1].method))


def test_cold_and_warm_caches_agree_in_any_order():
    lin = NetworkConfig(p_t=db_to_watt(6.0))
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=0.045, pr_max=10.0))
    clear_jsp_caches()
    cold = _estimates([lin, nl])
    warm = _estimates([lin, nl])
    clear_jsp_caches()
    nl_first = _estimates([nl, lin])
    assert cold == warm == nl_first
    assert [est.regime for _, est in cold] == ["linear"] * 3 + ["case_b"] * 3


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
    assert calls == [3000, 4096]  # one Monte Carlo chunk, one regime probe


def test_cached_sums_are_read_only():
    cfg = NetworkConfig()
    jsp_monte_carlo(cfg, trials=2000, seed=1)
    sums = jsp._geometry_sums(DiscPpp.from_config(cfg), cfg.alpha, 2000, 1, False)
    with pytest.raises(ValueError):
        sums[0, 0] = 1.0


def test_bound_cache_hit_keeps_callers_regime():
    lin = NetworkConfig()
    nl = replace(lin, harvester=HarvesterModel(kind="nonlinear", pr_min=1e-12, pr_max=1e12))
    a = jsp_upper_bound(lin, regime="linear", spec=FAST_SPEC)
    hits = jsp._bound_integral.cache_info().hits
    b = jsp_upper_bound(nl, regime="case_b", spec=FAST_SPEC)
    assert jsp._bound_integral.cache_info().hits == hits + 1
    assert (a.regime, b.regime) == ("linear", "case_b")
    assert (b.value, b.quadrature_error, b.converged) == (a.value, a.quadrature_error, a.converged)
