"""Tests for the covariance effect-size projection and the OLS baseline."""

import csv

import numpy as np
import pytest

from ratekit.bnn import LogitPosterior
from ratekit.esa import (
    EffectSizePosterior,
    RankDeficientWarning,
    covariance_effect_sizes,
    covariance_esa,
    draw_effect_samples,
    effect_signs,
    effect_sizes_to_csv,
    ols_effect_size,
)
from ratekit.simgen import collinear_regression


def deterministic_lp(f, factors=None):
    """LogitPosterior with given mean and (optionally) zero covariance."""
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if factors is None:
        factors = np.zeros((1, n, 1))
    return LogitPosterior(
        mean=f.reshape(n, 1),
        factors=np.asarray(factors, dtype=np.float64),
    )


class TestCovarianceEsa:
    def test_self_covariance_is_variance(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(40)
        esa = covariance_esa(col[:, None], deterministic_lp(col))
        np.testing.assert_allclose(esa.mu[0, 0], np.var(col, ddof=1), rtol=1e-12)

    def test_matches_naive_covariance_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        f = rng.standard_normal(6)
        factors = rng.standard_normal((1, 6, 3))
        esa = covariance_esa(x, deterministic_lp(f, factors))
        for j in range(4):
            xj = x[:, j]
            expected = np.sum((xj - xj.mean()) * (f - f.mean())) / 5
            np.testing.assert_allclose(esa.mu[0, j], expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((15, 3))
        f = rng.standard_normal(15)
        base = covariance_esa(x, deterministic_lp(f))
        for c in (-7.3, 0.1, 1e4):
            shifted = covariance_esa(x, deterministic_lp(f + c))
            np.testing.assert_allclose(shifted.mu, base.mu, atol=1e-12)

    def test_affine_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 3))
        f = rng.standard_normal(12)
        factors = rng.standard_normal((1, 12, 2))
        base = covariance_esa(x, deterministic_lp(f, factors))
        a = 3.5
        scaled = covariance_esa(x, deterministic_lp(a * f, a * factors))
        np.testing.assert_allclose(scaled.mu, a * base.mu, rtol=1e-13)
        np.testing.assert_allclose(scaled.factors, a * base.factors, rtol=1e-13)

    def test_collinear_effects_cancel(self):
        # f = 2 x1 - 2 x2 with x1 ~ x2 leaves almost no net covariance
        for rep in range(100):
            ds = collinear_regression(200, 0.999, seed=rep)
            f = 2.0 * ds.X[:, 0] - 2.0 * ds.X[:, 1]
            esa = covariance_esa(ds.X, deterministic_lp(f))
            assert np.abs(esa.mu).max() < 0.1

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            covariance_esa(np.ones((1, 2)), deterministic_lp(np.ones(1)))

    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            covariance_esa(np.ones((4, 2)), deterministic_lp(np.ones(5)))

    def test_multiclass_one_block_per_output_node(self):
        rng = np.random.default_rng(14)
        n, p, k, c = 9, 4, 3, 3
        x = rng.standard_normal((n, p))
        mean = rng.standard_normal((n, c))
        factors = rng.standard_normal((c, n, k))
        lp = LogitPosterior(mean=mean, factors=factors)
        esa = covariance_esa(x, lp)
        assert esa.mu.shape == (c, p)
        assert esa.factors.shape == (c, p, k)
        for cls in range(c):
            for j in range(p):
                xj = x[:, j]
                f = mean[:, cls]
                expected = np.sum((xj - xj.mean()) * (f - f.mean())) / (n - 1)
                np.testing.assert_allclose(esa.mu[cls, j], expected, atol=1e-12)

    def test_correlation_ordering_on_standardized_features(self):
        # with unit-variance columns, |mu_j| orders exactly like the
        # absolute Pearson correlation with the logits
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 8))
        x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        f = x @ rng.standard_normal(8) + rng.standard_normal(200)
        esa = covariance_esa(x, deterministic_lp(f))
        corr = np.array([np.corrcoef(x[:, j], f)[0, 1] for j in range(8)])
        assert list(np.argsort(np.abs(esa.mu[0]))) == list(np.argsort(np.abs(corr)))


class TestOlsEffectSize:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 4))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        est = ols_effect_size(x, x @ beta)
        np.testing.assert_allclose(est, beta, atol=1e-8)

    def test_uncorrelated_case_recovers_truth(self):
        ds = collinear_regression(5000, 0.0, seed=0)
        est = ols_effect_size(ds.X, ds.y)
        np.testing.assert_allclose(est, [2.0, -2.0], atol=0.1)

    def test_collinear_spread_exceeds_covariance_spread(self):
        # the least-squares route is unstable at rho = 0.999 while the
        # covariance projection stays put
        ols_first, cov_first = [], []
        for rep in range(100):
            ds = collinear_regression(5000, 0.999, seed=1000 + rep)
            ols_first.append(ols_effect_size(ds.X, ds.y)[0])
            cov_first.append(covariance_effect_sizes(ds.X, ds.y)[0])
        assert np.std(ols_first, ddof=1) >= 10 * np.std(cov_first, ddof=1)

    def test_rank_deficiency_warns(self):
        x = np.ones((10, 2))
        x[:, 1] = 2 * x[:, 0]  # also collinear with the intercept
        with pytest.warns(RankDeficientWarning):
            ols_effect_size(x, np.arange(10.0))


class TestEffectSigns:
    def test_hand_case(self):
        esa = EffectSizePosterior(
            mu=np.array([[1.5, -2.0, 0.0]]),
            factors=np.zeros((1, 3, 1)),
            n_used=10,
            feature_names=("a", "b", "c"),
        )
        np.testing.assert_array_equal(effect_signs(esa), [[1, -1, 0]])

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        f = rng.standard_normal(30)
        signs = effect_signs(covariance_esa(x, deterministic_lp(f)))
        scaled = effect_signs(covariance_esa(x, deterministic_lp(42.0 * f)))
        np.testing.assert_array_equal(signs, scaled)

    def test_feature_equal_to_logits_is_positive(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(50)
        x = np.column_stack([f, rng.standard_normal(50)])
        signs = effect_signs(covariance_esa(x, deterministic_lp(f)))
        assert signs[0, 0] == 1


class TestDrawEffectSamples:
    def test_zero_factor_returns_mu(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 3))
        esa = covariance_esa(x, deterministic_lp(rng.standard_normal(20)))
        samples = draw_effect_samples(esa, 7, seed=0)
        np.testing.assert_array_equal(samples, np.tile(esa.mu[0], (7, 1)))

    def test_reproducible(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 3))
        factors = rng.standard_normal((1, 20, 2))
        esa = covariance_esa(x, deterministic_lp(rng.standard_normal(20), factors))
        a = draw_effect_samples(esa, 5, seed=123)
        b = draw_effect_samples(esa, 5, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_moments_converge(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((25, 3))
        factors = rng.standard_normal((1, 25, 4))
        esa = covariance_esa(x, deterministic_lp(rng.standard_normal(25), factors))
        samples = draw_effect_samples(esa, 50_000, seed=3)
        target = esa.factors[0] @ esa.factors[0].T
        sample_cov = np.cov(samples.T, ddof=1)
        err = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert err < 0.05
        np.testing.assert_allclose(samples.mean(axis=0), esa.mu[0], atol=0.01)


class TestCsvExport:
    def test_columns_and_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((15, 3))
        factors = rng.standard_normal((1, 15, 2))
        esa = covariance_esa(x, deterministic_lp(rng.standard_normal(15), factors))
        path = tmp_path / "effects.csv"
        effect_sizes_to_csv(esa, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "class", "mu", "omega_diag"]
        assert len(rows) == 1 + 3
        g = esa.factors[0]
        omega_diag = np.diag(g @ g.T)
        for j, row in enumerate(rows[1:]):
            assert row[0] == f"f{j + 1}"
            np.testing.assert_allclose(float(row[2]), esa.mu[0, j])
            np.testing.assert_allclose(float(row[3]), omega_diag[j])
