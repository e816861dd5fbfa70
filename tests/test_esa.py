"""Tests for the covariance effect-size projection and the OLS baseline."""

import csv
import re
import tracemalloc

import numpy as np
import pytest

from ratekit import bnn, evaluate, rate, simgen
from ratekit import esa as esa_module
from ratekit.bnn import LogitPosterior, NetworkConfig, build_network
from ratekit.core import first_non_finite
from ratekit.esa import (
    EffectSizePosterior,
    RankDeficientWarning,
    covariance_effect_sizes,
    covariance_esa,
    effect_sizes_to_csv,
    ols_effect_size,
)
from ratekit.evaluate import roc_auc
from ratekit.rate import PrecisionModel, build_precision, rate_scores
from ratekit.simgen import collinear_regression


def _check_bnn_inputs(a, tmp_path):
    net = build_network(NetworkConfig(input_dim=a.shape[1], hidden_sizes=(1,)))
    bnn._check_labelled(net, (a, np.zeros(len(a))))


def _check_esa_x(a, tmp_path):
    esa_module._checked_x(a)


def _check_rate_basis(a, tmp_path):
    PrecisionModel(mu=np.zeros(len(a)), basis=a, eigvals=np.ones(a.shape[1]))


def _check_simgen_csv(a, tmp_path):
    path = tmp_path / "data.csv"
    header = ",".join([*(f"f{j + 1}" for j in range(a.shape[1])), "y"])
    path.write_text("".join(f"{line}\n" for line in [header, *(
        ",".join([*map(repr, row), "0"]) for row in a.tolist())]))
    simgen.load_dataset_csv(path)


def _check_evaluate_scores(a, tmp_path):
    roc_auc(a.ravel(), np.arange(a.size) % 2 == 0)


#: Each input check that scans for nan and +-inf with core.first_non_finite:
#: its module, a call of it on a 2-d array, and its message for the first bad
#: cell (i, j) of a 4-column array, holding v.
FINITE_CHECKS = {
    "bnn": (bnn, _check_bnn_inputs,
            lambda i, j, v: f"inputs must be finite; row {i}, column {j} is {v}"),
    "esa": (esa_module, _check_esa_x,
            lambda i, j, v: f"x contains non-finite entries; row {i}, column {j} is {v}"),
    "rate": (rate, _check_rate_basis, lambda i, j, v: "basis must be finite"),
    "simgen": (simgen, _check_simgen_csv,
               lambda i, j, v: f"data row {i + 1}, column 'f{j + 1}' is not finite"),
    "evaluate": (evaluate, _check_evaluate_scores,
                 lambda i, j, v: f"scores must be finite; scores[{4 * i + j}] is {v!r}"),
}


def deterministic_lp(f, hidden=None):
    """Single-class LogitPosterior with mean f and covariance H H^T for the
    given H (unit variances), zero when H is omitted."""
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if hidden is None:
        hidden = np.zeros((n, 1))
    hidden = np.asarray(hidden, dtype=np.float64)
    return LogitPosterior(
        mean=f.reshape(n, 1),
        hidden=hidden,
        variances=np.ones((hidden.shape[1], 1)),
    )


def centered(x):
    """C x with the literal centering matrix C = I - 11^T/n."""
    n = x.shape[0]
    return (np.eye(n) - np.full((n, n), 1.0 / n)) @ x


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
        hidden = rng.standard_normal((6, 3))
        esa = covariance_esa(x, deterministic_lp(f, hidden))
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
        hidden = rng.standard_normal((12, 2))
        base = covariance_esa(x, deterministic_lp(f, hidden))
        a = 3.5
        scaled = covariance_esa(x, deterministic_lp(a * f, a * hidden))
        np.testing.assert_allclose(scaled.mu, a * base.mu, rtol=1e-13)
        np.testing.assert_allclose(scaled.factor(0), a * base.factor(0), rtol=1e-13)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_is_refused(self, bad):
        x = np.random.default_rng(15).standard_normal((6, 3))
        x[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            covariance_esa(x, deterministic_lp(np.arange(6.0)))

    def test_non_finite_x_names_its_first_cell(self):
        x = np.zeros((5, 4))
        x[3, 0], x[1, 2] = -np.inf, np.nan
        with pytest.raises(ValueError, match="non-finite entries; row 1, column 2 is nan"):
            covariance_effect_sizes(x, np.arange(5.0))

    @pytest.mark.parametrize("site", FINITE_CHECKS)
    def test_finite_check_holds_no_mask_of_x(self, site, tmp_path, monkeypatch):
        # each input check scans with core.first_non_finite: it names the first
        # bad cell in C order, here (1, 2) before (3, 0), and a finite array
        # costs a min and a max, where np.isfinite(x) held an n x p mask
        module, check, message = FINITE_CHECKS[site]
        for bad in (np.nan, np.inf, -np.inf):
            x = np.arange(1.0, 21.0).reshape(5, 4)
            x[3, 0], x[1, 2] = (np.inf if np.isnan(bad) else np.nan), bad
            with pytest.raises(ValueError, match=re.escape(message(1, 2, bad))):
                check(x, tmp_path)
        scanned = []
        monkeypatch.setattr(module, "first_non_finite",
                            lambda a: scanned.append(a.size) or first_non_finite(a))
        check(np.arange(1.0, 21.0).reshape(5, 4), tmp_path)
        assert max(scanned) >= 20
        x = np.random.default_rng(17).standard_normal((2000, 1000))
        tracemalloc.start()
        try:
            assert first_non_finite(x) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_x_is_checked_once_for_both_products(self, monkeypatch):
        # the check scans all n*p cells; the mean and the projection share it
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 5))
        lp = LogitPosterior(mean=rng.standard_normal((8, 2)), hidden=rng.standard_normal((8, 3)),
                            variances=np.ones((3, 2)))
        calls = []
        check = esa_module._checked_x
        monkeypatch.setattr(esa_module, "_checked_x", lambda x: calls.append(x) or check(x))
        got = covariance_esa(x, lp)
        assert len(calls) == 1
        np.testing.assert_array_equal(got.mu, covariance_effect_sizes(x, lp.mean).T)
        np.testing.assert_array_equal(got.projection, covariance_effect_sizes(x, lp.hidden))

    def test_multiclass_one_block_per_output_node(self):
        rng = np.random.default_rng(14)
        n, p, k, c = 9, 4, 3, 3
        x = rng.standard_normal((n, p))
        mean = rng.standard_normal((n, c))
        hidden = rng.standard_normal((n, k))
        variances = rng.uniform(0.1, 2.0, size=(k, c))
        lp = LogitPosterior(mean=mean, hidden=hidden, variances=variances)
        esa = covariance_esa(x, lp)
        assert esa.mu.shape == (c, p)
        assert esa.projection.shape == (p, k)
        assert esa.scales.shape == (c, k)
        for cls in range(c):
            for j in range(p):
                xj = x[:, j]
                f = mean[:, cls]
                expected = np.sum((xj - xj.mean()) * (f - f.mean())) / (n - 1)
                np.testing.assert_allclose(esa.mu[cls, j], expected, atol=1e-12)

    @pytest.mark.parametrize("p, k", [(7, 4), (4, 7)])
    def test_three_class_oracle(self, p, k):
        # every class's factor and mean against the literal per-class products
        # X_c^T (H diag sqrt(v_c)) / (n-1) and X_c^T f_c / (n-1), X_c = C X
        rng = np.random.default_rng(16)
        n, c = 11, 3
        x = rng.standard_normal((n, p))
        hidden = rng.standard_normal((n, k))
        variances = rng.uniform(0.1, 2.0, size=(k, c))
        mean = rng.standard_normal((n, c))
        esa = covariance_esa(x, LogitPosterior(mean=mean, hidden=hidden, variances=variances))
        xc = centered(x)
        for cls in range(c):
            g = xc.T @ (hidden @ np.diag(np.sqrt(variances[:, cls]))) / (n - 1)
            mu = xc.T @ mean[:, cls] / (n - 1)
            np.testing.assert_allclose(esa.factor(cls), g, rtol=1e-12, atol=0)
            np.testing.assert_allclose(esa.mu[cls], mu, rtol=1e-12, atol=0)
            literal = EffectSizePosterior(
                mu=mu[None, :],
                projection=g,
                scales=np.ones((1, k)),
                n_used=n,
                feature_names=esa.feature_names,
            )
            pm, ref = build_precision(esa, cls), build_precision(literal)
            assert pm.rank == ref.rank == min(p, k)
            scale = np.abs(ref.omega).max()
            np.testing.assert_allclose(pm.omega, ref.omega, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(rate_scores(pm).klds(), rate_scores(ref).klds(), rtol=1e-10)

    def test_mu_sign_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        f = rng.standard_normal(30)
        signs = np.sign(covariance_esa(x, deterministic_lp(f)).mu)
        scaled = np.sign(covariance_esa(x, deterministic_lp(42.0 * f)).mu)
        np.testing.assert_array_equal(signs, scaled)

    def test_feature_equal_to_logits_has_positive_mu(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(50)
        x = np.column_stack([f, rng.standard_normal(50)])
        assert np.sign(covariance_esa(x, deterministic_lp(f)).mu[0, 0]) == 1

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


class TestCsvExport:
    def test_columns_and_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((15, 3))
        hidden = rng.standard_normal((15, 2))
        esa = covariance_esa(x, deterministic_lp(rng.standard_normal(15), hidden))
        path = tmp_path / "effects.csv"
        effect_sizes_to_csv(esa, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "class", "mu", "omega_diag"]
        assert len(rows) == 1 + 3
        g = esa.factor(0)
        omega_diag = np.diag(g @ g.T)
        for j, row in enumerate(rows[1:]):
            assert row[0] == f"f{j + 1}"
            np.testing.assert_allclose(float(row[2]), esa.mu[0, j])
            np.testing.assert_allclose(float(row[3]), omega_diag[j])
