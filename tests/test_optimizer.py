import math
from dataclasses import replace

import pytest

from aoiharvest.aoi import paoi_np_closed_form, paoi_p_closed_form
from aoiharvest.jsp import jsp_lower_bound
from aoiharvest.model import HarvesterModel, NetworkConfig, db_to_watt
from aoiharvest.optimizer import (
    DegenerateObjectiveError,
    XiObjective,
    optimize_xi,
    search_scalar,
)
from aoiharvest.quadrature import QuadratureSpec

from oracles import paoi_objective, paoi_xi_search

FAST_SPEC = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
BASE = NetworkConfig(radius=50.0, p_t=db_to_watt(10.0))


def test_search_scalar_synthetic_stub():
    x, fx, _ = search_scalar(lambda t: (t - 0.37) ** 2, grid_step=0.05, refine_tol=1e-3)
    assert x == pytest.approx(0.37, abs=1e-3)
    assert fx <= (0.35 - 0.37) ** 2


def test_search_scalar_never_worse_than_grid():
    calls = []

    def bumpy(t):
        calls.append(t)
        return math.sin(17 * t) + 0.3 * t

    x, fx, n = search_scalar(bumpy, grid_step=0.02, refine_tol=1e-4)
    grid_vals = [bumpy(g) for g in calls[:49]]
    assert fx <= min(grid_vals) + 1e-15
    assert n >= 49


def test_search_scalar_validation():
    with pytest.raises(ValueError):
        search_scalar(lambda t: t, grid_step=0.5, refine_tol=1e-3)
    with pytest.raises(ValueError):
        search_scalar(lambda t: t, grid_step=0.05, refine_tol=0.0)
    with pytest.raises(DegenerateObjectiveError):
        search_scalar(lambda t: 0.0, grid_step=0.05, refine_tol=1e-3)
    with pytest.raises(DegenerateObjectiveError):
        search_scalar(lambda t: math.inf, grid_step=0.05, refine_tol=1e-3)


def test_objective_kind_validation():
    for kind in ("max_throughput", "min_paoi_np_upper"):
        with pytest.raises(ValueError):
            XiObjective(kind=kind, cfg=BASE)


def test_paoi_objective_is_composition_of_jsp_lower():
    for xi in (0.2, 0.4, 0.7):
        mu = jsp_lower_bound(replace(BASE, xi=xi), spec=FAST_SPEC).value
        assert paoi_objective("min_paoi_np_upper", BASE, FAST_SPEC, xi)[0] == paoi_np_closed_form(mu, BASE.p_a)
        assert paoi_objective("min_paoi_p_upper", BASE, FAST_SPEC, xi)[0] == paoi_p_closed_form(mu, BASE.p_a)


def test_jsp_objective_matches_direct_calls():
    opt = optimize_xi(XiObjective(kind="max_jsp_lower", cfg=BASE, spec=FAST_SPEC), grid_step=0.05)
    direct = jsp_lower_bound(replace(BASE, xi=opt.xi_star), spec=FAST_SPEC).value
    assert opt.value == direct


def test_grid_argmax_coincidence():
    # argmax of the success bound and argmins of both peak-age forms agree
    # exactly on a common grid, by monotone-transform invariance
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    mus = [jsp_lower_bound(replace(BASE, xi=x), spec=FAST_SPEC).value for x in grid]
    np_vals = [paoi_np_closed_form(m, BASE.p_a) if m > 0 else math.inf for m in mus]
    p_vals = [paoi_p_closed_form(m, BASE.p_a) if m > 0 else math.inf for m in mus]
    i = max(range(len(grid)), key=lambda j: mus[j])
    assert min(range(len(grid)), key=lambda j: np_vals[j]) == i
    assert min(range(len(grid)), key=lambda j: p_vals[j]) == i


def test_optimize_xi_coincidence_with_refinement():
    stars = [optimize_xi(XiObjective(kind="max_jsp_lower", cfg=BASE, spec=FAST_SPEC), grid_step=0.05).xi_star]
    stars += [paoi_xi_search(k, BASE, FAST_SPEC, grid_step=0.05).xi_star
              for k in ("min_paoi_np_upper", "min_paoi_p_upper")]
    assert abs(stars[0] - stars[1]) <= 1e-3
    assert abs(stars[0] - stars[2]) <= 1e-3


def test_degenerate_objective_reported():
    dead = replace(BASE, harvester=HarvesterModel(kind="nonlinear", pr_min=1e9, pr_max=1e10))
    with pytest.raises(DegenerateObjectiveError):
        optimize_xi(XiObjective(kind="max_jsp_lower", cfg=dead, spec=FAST_SPEC), grid_step=0.1)


def test_optimum_reports_unconverged_bounds():
    low_power = replace(BASE, p_t=1.0)
    for spec, converged in ((FAST_SPEC, True), (QuadratureSpec(max_subdivisions=1), False)):
        obj = XiObjective(kind="max_jsp_lower", cfg=low_power, spec=spec)
        assert optimize_xi(obj, grid_step=0.1, refine_tol=1e-2).converged is converged
