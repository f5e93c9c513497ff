import dataclasses
import math

import numpy as np
import pytest

from aoiharvest import jsp
from aoiharvest.model import HarvesterModel, InvalidConfigError, NetworkConfig, db_to_watt, sir_threshold


def successes(cfg, serving, total, beta=0.0):
    """Per-trial outcome of the slot event, read off ``jsp._count_events``.

    ``serving`` and ``total`` are the per-trial sums g d^-alpha of the serving
    link and of every transmitter, as the Monte Carlo stage builds them.
    """
    sums = np.array(np.broadcast_arrays(serving, total), dtype=float).reshape(2, -1)
    return [jsp._count_events(cfg, beta, sums[:, i:i + 1]) == 1 for i in range(sums.shape[1])]


def assert_harvest(cfg, total, energy):
    """The harvest at power sum ``total`` is ``energy``: the event flips at e_th = energy.

    With no interference (serving == total) and beta = 0 the SIR always
    clears, so the energy condition alone decides the slot.
    """
    def clears(e_th):
        return successes(dataclasses.replace(cfg, e_th=e_th), total, total)[0]

    if energy == 0.0:
        assert not clears(0.0)
    else:
        assert clears(energy * (1 - 1e-12)) and not clears(energy * (1 + 1e-12))


def test_defaults_match_reference_settings():
    cfg = NetworkConfig()
    assert cfg.e_th == 0.010
    assert cfg.alpha == 3.0
    assert cfg.sigma_bits == 10.0
    assert cfg.eta == 0.9
    assert cfg.xi == 0.4
    assert cfg.tau == 1.0
    assert cfg.density == 0.003
    assert cfg.radius == 60.0
    assert cfg.bandwidth == 1e4
    assert cfg.harvester.kind == "linear"


@pytest.mark.parametrize("kwargs", [
    {"xi": 1.5}, {"xi": 1.0}, {"xi": -0.1},
    {"alpha": 2.0}, {"alpha": 1.5},
    {"p_a": 0.0}, {"p_a": 1.2},
    {"eta": 0.0}, {"eta": 1.1},
    {"p_t": 0.0}, {"tau": -1.0}, {"radius": 0.0}, {"density": -1e-3},
    {"bandwidth": 0.0}, {"e_th": -1.0}, {"sigma_bits": -1.0},
])
def test_config_invariants_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        NetworkConfig(**kwargs)


def test_harvester_model_validation():
    with pytest.raises(InvalidConfigError):
        HarvesterModel(kind="other")
    with pytest.raises(InvalidConfigError):
        HarvesterModel(kind="nonlinear", pr_min=2.0, pr_max=1.0)
    with pytest.raises(InvalidConfigError):
        HarvesterModel(kind="nonlinear", pr_min=-0.5, pr_max=1.0)


def test_harvested_energy_zero_phase():
    # xi = 0 leaves no harvesting phase: not even e_th = 0 is cleared
    assert_harvest(NetworkConfig(xi=0.0, p_t=1e6), 1.0, 0.0)


def test_harvested_energy_linear_hand_value():
    # single transmitter at 2 m, unit gain: 0.9 * 0.4 * 1 * 1 * 2^-3
    assert_harvest(NetworkConfig(p_t=1.0), 2.0**-3, 0.045)


def test_harvested_energy_nonlinear_branches():
    # below the activation threshold: nothing harvested (Pr = 0.5 W)
    cfg = NetworkConfig(p_t=1.0, harvester=HarvesterModel(kind="nonlinear", pr_min=1.0, pr_max=2.0))
    assert_harvest(cfg, 0.5, 0.0)
    # saturated: eta*xi*tau*pr_max (Pr = 5 W)
    cfg = NetworkConfig(p_t=1.0, harvester=HarvesterModel(kind="nonlinear", pr_min=0.0, pr_max=1.0))
    assert_harvest(cfg, 5.0, 0.36)


def test_nonlinear_energy_trichotomy():
    # 0 below pr_min, the linear harvest inside [pr_min, pr_max], clipped above pr_max
    cfg = NetworkConfig(p_t=2.0, harvester=HarvesterModel(kind="nonlinear", pr_min=0.01, pr_max=0.05))
    per_watt = cfg.eta * cfg.xi * cfg.tau
    for pr in (0.001, 0.0099, 0.01, 0.03, 0.05):
        assert_harvest(cfg, pr / cfg.p_t, 0.0 if pr < 0.01 else per_watt * pr)
    for pr in (0.0501, 0.2, 40.0):
        assert_harvest(cfg, pr / cfg.p_t, per_watt * 0.05)


@pytest.mark.parametrize("field", ["eta", "xi", "tau", "p_t"])
def test_linear_energy_scales_in_each_factor(field):
    # scaling one factor by 1.75 scales the harvest by 1.75, so the energy
    # event at 1.75 e_th matches the base event at e_th, trial by trial
    rng = np.random.default_rng(5)
    totals = rng.exponential(0.01, 200)
    base = NetworkConfig(eta=0.5, xi=0.25, tau=2.0, p_t=3.0)
    scaled = dataclasses.replace(base, **{field: getattr(base, field) * 1.75})
    for e_th in (1e-3, 5e-3, 1e-2, 2e-2):
        before = successes(dataclasses.replace(base, e_th=e_th), totals, totals)
        after = successes(dataclasses.replace(scaled, e_th=1.75 * e_th), totals, totals)
        assert after == before
        assert 0 < sum(before) < len(before)


def test_sir_symmetric_single_interferer():
    # two links at 5 m with unit gains: SIR = 1, and the event needs SIR > beta
    cfg = NetworkConfig(e_th=0.0)
    w = 5.0**-3
    assert successes(cfg, w, 2 * w, beta=1.0 - 1e-12) == [True]
    assert successes(cfg, w, 2 * w, beta=1.0) == [False]


def test_sir_hand_value():
    # unit distances, gains (2, 1, 1): SIR = 2 / (1 + 1) = 1
    cfg = NetworkConfig(e_th=0.0)
    assert successes(cfg, 2.0, 4.0, beta=1.0 - 1e-12) == [True]
    assert successes(cfg, 2.0, 4.0, beta=1.0 + 1e-12) == [False]


def test_sir_independent_of_transmit_power():
    # the transmit power cancels in the SIR: with the energy condition
    # disabled, every SIR threshold gives the same outcome at any p_t
    rng = np.random.default_rng(3)
    serving = rng.exponential(1.0, 100) * rng.uniform(1, 50, 100) ** -3.0
    total = serving + rng.exponential(1.0, 100) * rng.uniform(1, 50, 100) ** -3.0
    for beta in (0.1, 1.0, 10.0):
        outcomes = [successes(NetworkConfig(p_t=p_t, e_th=0.0), serving, total, beta)
                    for p_t in (1e-3, 1.0, 2.0, 1e3)]
        assert all(o == outcomes[0] for o in outcomes)
        assert 0 < sum(outcomes[0]) < 100


def test_sir_threshold_values():
    assert sir_threshold(NetworkConfig(sigma_bits=0.0)) == 0.0
    beta = sir_threshold(NetworkConfig())
    assert beta == pytest.approx(2.0 ** (10.0 / 6000.0) - 1.0, rel=1e-15)
    assert beta == pytest.approx(1.1562e-3, rel=1e-3)
    assert sir_threshold(NetworkConfig(sigma_bits=6000.0)) == 1.0


def test_sir_threshold_monotone():
    betas_xi = [sir_threshold(NetworkConfig(xi=x)) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b2 > b1 for b1, b2 in zip(betas_xi, betas_xi[1:]))
    betas_sigma = [sir_threshold(NetworkConfig(sigma_bits=s)) for s in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b2 > b1 for b1, b2 in zip(betas_sigma, betas_sigma[1:]))
    assert all(b > 0 for b in betas_xi)


def test_sir_threshold_overflows_to_inf():
    assert sir_threshold(NetworkConfig(xi=1 - 1e-9)) == math.inf


def test_db_conversions():
    assert db_to_watt(10.0) == pytest.approx(10.0)
    assert db_to_watt(0.0) == 1.0
    assert db_to_watt(-3.0) == pytest.approx(0.501187, rel=1e-6)
