import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from aoiharvest.aoi import (
    InfiniteAgeError,
    PaoiStats,
    QueueParams,
    paoi_np_closed_form,
    paoi_p_closed_form,
    simulate_queue,
)

from oracles import residual_pmf, simulate_queue_loop, staircase_by_reset_count


def test_params_validation():
    with pytest.raises(ValueError):
        QueueParams(p_a=0.0, mu=0.5)
    with pytest.raises(ValueError):
        QueueParams(p_a=0.5, mu=1.5)
    with pytest.raises(ValueError):
        QueueParams(p_a=0.5, mu=0.5, discipline="lifo")
    with pytest.raises(ValueError):
        QueueParams(p_a=0.5, mu=0.5, n_slots=0)


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
def test_deterministic_link_every_peak_is_two(discipline):
    trace, stats = simulate_queue(QueueParams(p_a=1.0, mu=1.0, discipline=discipline, n_slots=50, seed=0))
    assert np.all(trace.paoi_samples == 2)
    assert np.all(trace.aoi_path == 2)
    assert stats.mean_paoi == 2.0


def test_np_mean_with_instant_service():
    _, stats = simulate_queue(QueueParams(p_a=0.5, mu=1.0, n_slots=400_000, seed=9))
    assert abs(stats.mean_paoi - 3.0) <= 3 * stats.ci_halfwidth


def test_preemptive_residual_at_saturated_arrivals():
    trace, stats = simulate_queue(
        QueueParams(p_a=1.0, mu=0.5, discipline="preemptive", n_slots=100_000, seed=2))
    assert np.all(trace.residuals == 1)  # q_s = 1: the delivered packet always has one attempt
    assert stats.mean_residual == 1.0


def test_closed_form_values():
    assert paoi_np_closed_form(1.0, 1.0) == 2.0
    assert paoi_np_closed_form(0.5, 0.5) == pytest.approx(5.0)
    assert paoi_p_closed_form(1.0, 1.0) == 2.0
    assert paoi_p_closed_form(0.5, 0.5) == pytest.approx(1.0 + 2.0 + 4.0 / 3.0)


def test_closed_form_monotone_in_mu():
    vals = [paoi_np_closed_form(mu, 0.4) for mu in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_preemptive_form_never_above_non_preemptive():
    for mu in np.linspace(0.05, 1.0, 12):
        for p_a in np.linspace(0.05, 1.0, 12):
            assert paoi_p_closed_form(mu, p_a) <= paoi_np_closed_form(mu, p_a) + 1e-12


def test_closed_form_errors():
    with pytest.raises(InfiniteAgeError):
        paoi_np_closed_form(0.0, 0.5)
    with pytest.raises(InfiniteAgeError):
        paoi_p_closed_form(0.5, 0.0)
    with pytest.raises(ValueError):
        paoi_np_closed_form(1.5, 0.5)


def test_residual_pmf_values():
    assert residual_pmf(1, 1.0, 0.7) == 1.0
    m = np.arange(1, 4000)
    assert residual_pmf(m, 0.3, 0.4).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        residual_pmf(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        residual_pmf(np.array([1.5]), 0.5, 0.5)


def _chi2_pvalue(observed, expected):
    mask = expected > 0
    stat = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum()) - 1
    return 1.0 - chi2.cdf(stat, dof)


def test_residual_distribution_fits_geometric():
    mu, p_a = 0.3, 0.4
    trace, _ = simulate_queue(
        QueueParams(p_a=p_a, mu=mu, discipline="preemptive", n_slots=300_000, seed=6))
    samples = trace.residuals
    n = samples.size
    # bins 1..m_cut with the tail merged so every expected count is >= 5
    q_s = mu + p_a * (1 - mu)
    m_cut = int(math.ceil(math.log(5.0 / (n * q_s)) / math.log(1 - q_s)))
    observed = np.array([np.sum(samples == m) for m in range(1, m_cut)] + [np.sum(samples >= m_cut)], float)
    expected = np.array([n * residual_pmf(m, mu, p_a) for m in range(1, m_cut)]
                        + [n * (1 - q_s) ** (m_cut - 1)], float)
    assert _chi2_pvalue(observed, expected) >= 0.01


def test_service_and_gap_means():
    mu, p_a = 0.35, 0.6
    trace, stats = simulate_queue(
        QueueParams(p_a=p_a, mu=mu, n_slots=400_000, seed=13))
    n = trace.service_times.size
    w = trace.service_times
    v = trace.interarrivals
    sem_w = 1.96 * w.std(ddof=1) / math.sqrt(n)
    sem_v = 1.96 * v.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - 1 / mu) <= 3 * sem_w
    assert abs(v.mean() - (1 / p_a - 1)) <= 3 * sem_v


@pytest.mark.parametrize("mu,p_a", [(0.2, 0.7), (0.6, 0.3), (0.8, 0.8)])
def test_simulated_means_converge_to_closed_forms(mu, p_a):
    for disc, closed in (("non_preemptive", paoi_np_closed_form), ("preemptive", paoi_p_closed_form)):
        _, stats = simulate_queue(QueueParams(p_a=p_a, mu=mu, discipline=disc, n_slots=400_000, seed=23))
        assert abs(stats.mean_paoi - closed(mu, p_a)) <= max(0.01 * closed(mu, p_a), 3 * stats.ci_halfwidth)


@pytest.mark.parametrize("mu,p_a", [(0.3, 0.3), (0.5, 0.8), (0.9, 0.5)])
def test_discipline_ordering_simulated(mu, p_a):
    _, np_stats = simulate_queue(QueueParams(p_a=p_a, mu=mu, n_slots=300_000, seed=37))
    _, p_stats = simulate_queue(
        QueueParams(p_a=p_a, mu=mu, discipline="preemptive", n_slots=300_000, seed=37))
    noise = 3 * (np_stats.ci_halfwidth + p_stats.ci_halfwidth)
    assert p_stats.mean_paoi <= np_stats.mean_paoi + noise


def test_staircase_structure():
    params = QueueParams(p_a=0.4, mu=0.5, discipline="preemptive", n_slots=5000, seed=77)
    trace, _ = simulate_queue(params)
    path = trace.aoi_path
    reset_after = {int(s): int(w) for s, w in zip(trace.delivery_slots, trace.residuals)}
    for s in range(1, params.n_slots):       # compare slot s+1 against slot s (1-based)
        if s in reset_after:
            # reset to the delivered packet's attempt-slot age, then +1 into the next slot
            assert path[s] == reset_after[s] + 1
        else:
            assert path[s] == path[s - 1] + 1
    peaks_from_path = path[trace.delivery_slots - 1]
    assert np.array_equal(peaks_from_path, trace.paoi_samples)


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
@pytest.mark.parametrize("case, p_a, mu, n_slots, seed", [
    ("one slot", 0.5, 0.5, 1, 0),
    ("no delivery", 0.2, 0.2, 5, 0),
    ("delivery in slot n", 0.6, 0.5, 40, 2),
    ("p_a = 1", 1.0, 0.3, 200, 1),
    ("mu = 1", 0.4, 1.0, 200, 2),
    ("long", 0.5, 0.3, 20_000, 3),
])
def test_staircase_matches_reset_count_reference(discipline, case, p_a, mu, n_slots, seed):
    trace, _ = simulate_queue(QueueParams(p_a=p_a, mu=mu, discipline=discipline, n_slots=n_slots, seed=seed))
    if case == "no delivery":
        assert trace.delivery_slots.size == 0
    if case == "delivery in slot n":
        assert trace.delivery_slots[-1] == n_slots
    ref = staircase_by_reset_count(trace, n_slots)
    assert trace.aoi_path.dtype == ref.dtype
    np.testing.assert_array_equal(trace.aoi_path, ref)


def test_peaks_match_component_identity():
    trace, _ = simulate_queue(QueueParams(p_a=0.5, mu=0.4, discipline="preemptive", n_slots=20_000, seed=5))
    prev = np.concatenate(([1], trace.residuals[:-1]))  # phantom residual is 1
    reconstructed = prev + trace.interarrivals + trace.service_times
    assert np.array_equal(trace.paoi_samples, reconstructed)


def test_trace_is_seed_reproducible():
    a, _ = simulate_queue(QueueParams(p_a=0.3, mu=0.6, n_slots=5000, seed=123))
    b, _ = simulate_queue(QueueParams(p_a=0.3, mu=0.6, n_slots=5000, seed=123))
    assert np.array_equal(a.aoi_path, b.aoi_path)
    assert np.array_equal(a.paoi_samples, b.paoi_samples)


def test_stats_fields_populated():
    _, stats = simulate_queue(QueueParams(p_a=0.9, mu=0.9, n_slots=2000, seed=1))
    assert isinstance(stats, PaoiStats)
    assert stats.count > 0
    assert stats.mean_paoi >= 1.0
    assert stats.ci_halfwidth > 0


def _assert_bit_identical(params):
    trace, stats = simulate_queue(params)
    ref_trace, ref_stats = simulate_queue_loop(params)
    for field in dataclasses.fields(trace):
        got, want = getattr(trace, field.name), getattr(ref_trace, field.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), (field.name, params)
    for field in dataclasses.fields(stats):
        got, want = getattr(stats, field.name), getattr(ref_stats, field.name)
        assert type(got) is type(want), (field.name, params)
        assert got == want or (math.isnan(got) and math.isnan(want)), (field.name, params, got, want)
    return stats


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
@pytest.mark.parametrize("n_slots", [1, 2, 200_000])
def test_vectorised_simulator_matches_slot_loop(discipline, n_slots):
    rates = (0.05, 0.3, 0.9, 1.0)
    for mu, p_a, seed in itertools.product(rates, rates, (0, 1, 7)):
        params = QueueParams(p_a=p_a, mu=mu, discipline=discipline, n_slots=n_slots, seed=seed)
        _assert_bit_identical(params)


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
def test_no_delivery_stats_match_slot_loop(discipline):
    params = QueueParams(p_a=0.05, mu=0.3, discipline=discipline, n_slots=20, seed=2)
    stats = _assert_bit_identical(params)
    assert stats.count == 0
    assert math.isnan(stats.mean_paoi) and stats.ci_halfwidth == math.inf
    assert math.isnan(stats.mean_service) and math.isnan(stats.mean_residual)
