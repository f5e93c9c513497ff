import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import pdtr

from aoiharvest.geometry import DiscPpp, _poisson_quantile, _truncated_count_table, pmf_count, sample_batch
from aoiharvest.model import NetworkConfig
from aoiharvest.quadrature import integrate_adaptive

from oracles import (
    cdf_farthest_normalized,
    cdf_nearest_normalized,
    pdf_farthest,
    pdf_farthest_normalized,
    pdf_nearest,
    pdf_nearest_normalized,
    poisson_pmf_exact,
    sample_batch_lexsort,
    truncated_mean_count,
)

DEFAULT = DiscPpp.from_config(NetworkConfig())
SPARSE = DiscPpp(density=0.5 / (math.pi * 1.0**2), radius=1.0)  # mean count 0.5: almost every K = 2


def test_mean_count_identity():
    assert DEFAULT.mean_count == 0.003 * math.pi * 60.0**2
    assert DEFAULT.mean_count == pytest.approx(33.9292, abs=1e-4)
    assert 0 < DEFAULT.prob_at_least_two <= 1


def test_sampling_always_at_least_two():
    counts, starts, d, g = sample_batch(SPARSE, 2000, np.random.default_rng(0))
    assert counts.min() >= 2
    assert d.size == g.size == counts.sum()
    assert np.array_equal(starts, np.cumsum(counts) - counts)


def test_sampled_distances_sorted_and_in_disc():
    counts, starts, d, _ = sample_batch(DEFAULT, 500, np.random.default_rng(1))
    assert np.all((0 < d) & (d <= DEFAULT.radius))
    # ascending within each trial, so index starts[i] is the serving link
    rises = np.diff(d) >= 0
    rises[starts[1:] - 1] = True  # a trial boundary may fall
    assert np.all(rises)
    assert np.array_equal(d[starts], np.minimum.reduceat(d, starts))


def test_empirical_truncated_mean_within_one_percent():
    counts, _, _, _ = sample_batch(DEFAULT, 100_000, np.random.default_rng(2))
    expected = truncated_mean_count(DEFAULT)
    assert expected == pytest.approx(33.9292, abs=1e-3)  # conditioning on K >= 2 barely moves m
    assert counts.mean() == pytest.approx(expected, rel=0.01)


def test_count_table_mean_matches_closed_form():
    ks, cdf = _truncated_count_table(DEFAULT)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
    table_mean = float(np.dot(ks, np.diff(cdf, prepend=0.0)))
    assert table_mean == pytest.approx(truncated_mean_count(DEFAULT), abs=1e-9)


@pytest.mark.parametrize("q", [0.5, 1.0 - 1e-8, 1.0 - 1e-12])
def test_poisson_quantile_matches_scipy_stats(q):
    means = np.logspace(-3, math.log10(5e3), 4001)
    got = [_poisson_quantile(q, m) for m in means]
    np.testing.assert_array_equal(got, stats.poisson.ppf(q, means))


def test_poisson_quantile_steps_down_at_cdf_values():
    """At q = P[K <= k] the inverse CDF often rounds above k; the step down returns k."""
    means = np.logspace(-3, math.log10(5e3), 4001)
    ks = np.floor(means + 3.0 * np.sqrt(means))
    qs = pdtr(ks, means)
    got = [_poisson_quantile(q, m) for q, m in zip(qs, means)]
    np.testing.assert_array_equal(got, ks)
    np.testing.assert_array_equal(got, stats.poisson.ppf(qs, means))


def test_sampling_is_seed_reproducible():
    a = sample_batch(DEFAULT, 64, np.random.default_rng(1234))
    b = sample_batch(DEFAULT, 64, np.random.default_rng(1234))
    c = sample_batch(DEFAULT, 64, np.random.default_rng(1235))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[2], c[2])


@pytest.mark.parametrize("ppp", [SPARSE, DEFAULT, DiscPpp(density=0.003, radius=200.0)],
                         ids=["sparse", "R60", "R200"])
@pytest.mark.parametrize("trials", [1, 64, 4000])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_row_sort_matches_lexsort_reference(ppp, trials, seed):
    got = sample_batch(ppp, trials, np.random.default_rng(seed))
    want = sample_batch_lexsort(ppp, trials, np.random.default_rng(seed))
    for name, a, b in zip(("counts", "starts", "distances", "gains"), got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("trials", [0, -3])
def test_sampling_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sample_batch(DEFAULT, trials, np.random.default_rng(0))


def test_pdf_values_and_domain():
    assert pdf_nearest(0.0, DEFAULT) == 0.0
    assert pdf_farthest(0.0, DEFAULT) == 0.0
    lam_pi = DEFAULT.density * math.pi
    r = 10.0
    manual = 2 * lam_pi * r * math.exp(-lam_pi * r * r) / DEFAULT.prob_at_least_two
    assert pdf_nearest(r, DEFAULT) == pytest.approx(manual, rel=1e-14)
    edge = 2 * lam_pi * DEFAULT.radius / DEFAULT.prob_at_least_two
    assert pdf_farthest(DEFAULT.radius, DEFAULT) == pytest.approx(edge, rel=1e-14)
    for bad in (-1.0, DEFAULT.radius + 1e-9):
        with pytest.raises(ValueError):
            pdf_nearest(bad, DEFAULT)
        with pytest.raises(ValueError):
            pdf_farthest(bad, DEFAULT)


@pytest.mark.parametrize("pdf", [pdf_nearest, pdf_farthest])
def test_pdf_mass_matches_antiderivative(pdf):
    # both densities carry mass (1 - e^{-m}) / P[K >= 2] on [0, R]
    ppp = DiscPpp(density=0.003, radius=20.0)  # small disc so the mass visibly exceeds 1
    res = integrate_adaptive(lambda r: pdf(r, ppp), 0.0, ppp.radius)
    expected = -math.expm1(-ppp.mean_count) / ppp.prob_at_least_two
    assert expected > 1.0
    assert res.value == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("pdf", [pdf_nearest_normalized, pdf_farthest_normalized])
def test_normalized_pdf_has_unit_mass(pdf):
    ppp = DiscPpp(density=0.003, radius=20.0)
    res = integrate_adaptive(lambda r: pdf(r, ppp), 0.0, ppp.radius)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_pdfs_nonnegative_and_continuous():
    r = np.linspace(0.0, DEFAULT.radius, 2001)
    for pdf in (pdf_nearest, pdf_farthest):
        v = pdf(r, DEFAULT)
        assert np.all(v >= 0)
        assert np.max(np.abs(np.diff(v))) < 0.05  # no jumps on a fine grid


def _ks_distance(samples, cdf):
    samples = np.sort(samples)
    n = samples.size
    grid = cdf(samples, DEFAULT)
    upper = np.abs(np.arange(1, n + 1) / n - grid)
    lower = np.abs(np.arange(0, n) / n - grid)
    return max(upper.max(), lower.max())


def test_distance_distributions_match_normalized_forms():
    counts, starts, d, _ = sample_batch(DEFAULT, 100_000, np.random.default_rng(42))
    d1 = d[starts]
    dk = d[starts + counts - 1]
    assert _ks_distance(d1, cdf_nearest_normalized) < 0.01
    assert _ks_distance(dk, cdf_farthest_normalized) < 0.01


def test_pmf_count_values():
    assert pmf_count(0, DEFAULT) == pytest.approx(math.exp(-DEFAULT.mean_count), rel=1e-12)
    assert pmf_count(34, DEFAULT) == pytest.approx(poisson_pmf_exact(34, DEFAULT.mean_count), rel=1e-10)
    ks = np.arange(0, 200)
    assert pmf_count(ks, DEFAULT).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        pmf_count(-1, DEFAULT)
    with pytest.raises(ValueError):
        pmf_count(1.5, DEFAULT)


def test_joint_product_identity():
    # The product of the two density forms is the exact joint density of
    # (nearest, farthest) given K >= 2 on the ordered region: its mass there
    # is 1 / P[K >= 2], which the Poisson-count weight (summed from k = 2)
    # turns into exactly 1 inside the bound integrals.
    ppp = DiscPpp(density=0.003, radius=20.0)

    def outer(r1s):
        r1s = np.atleast_1d(r1s)
        out = np.empty(r1s.shape)
        for i, r1 in enumerate(r1s):
            res = integrate_adaptive(lambda r2: pdf_farthest(r2, ppp), r1, ppp.radius)
            out[i] = pdf_nearest(r1, ppp) * res.value
        return out

    total = integrate_adaptive(outer, 0.0, ppp.radius)
    assert total.value == pytest.approx(1.0 / ppp.prob_at_least_two, abs=1e-6)
    assert total.value * ppp.prob_at_least_two == pytest.approx(1.0, abs=1e-6)
