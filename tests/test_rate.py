"""Tests for the closed-form centrality scores.

The independent oracle used throughout builds the conditional Gaussian by
hand (Schur complements via plain numpy inv/slogdet) and evaluates the
textbook Gaussian KL divergence, never touching the module's own identities.
"""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ratekit import rate
from ratekit.bnn import NetworkConfig, build_network, logit_posterior
from ratekit.core import NotPositiveDefiniteError
from ratekit.esa import EffectSizePosterior, covariance_esa
from ratekit.rate import (
    GATHER_ELEMENTS,
    GroupMap,
    ImportanceItem,
    ImportanceReport,
    InconsistentPrecisionError,
    PrecisionModel,
    build_precision,
    group_rate,
    kld_group,
    kld_variable_fast,
    kld_variable_naive,
    mutual_info,
    precision_from_covariance,
    rate_scores,
    read_report,
    report_to_csv,
    report_to_json,
)
from ratekit.simgen import SynthSpec, synth_classification

# --- independent oracle -----------------------------------------------------


def gaussian_kl(mean0, cov0, mean1, cov1):
    """KL(N(mean0, cov0) || N(mean1, cov1)), textbook form."""
    d = len(mean0)
    inv1 = np.linalg.inv(cov1)
    diff = np.asarray(mean1) - np.asarray(mean0)
    _, ld0 = np.linalg.slogdet(cov0)
    _, ld1 = np.linalg.slogdet(cov1)
    return 0.5 * (np.trace(inv1 @ cov0) + diff @ inv1 @ diff - d + ld1 - ld0)


def conditional_kl_oracle(mu, omega, indices):
    """KL between the marginal of the complement block and its conditional
    distribution given the selected effects pinned to zero."""
    p = len(mu)
    idx = np.atleast_1d(np.asarray(indices, dtype=int))
    keep = np.setdiff1d(np.arange(p), idx)
    o_kk = omega[np.ix_(keep, keep)]
    o_kj = omega[np.ix_(keep, idx)]
    o_jj = omega[np.ix_(idx, idx)]
    cond_mean = mu[keep] - o_kj @ np.linalg.solve(o_jj, mu[idx])
    cond_cov = o_kk - o_kj @ np.linalg.solve(o_jj, o_kj.T)
    return gaussian_kl(mu[keep], o_kk, cond_mean, cond_cov)


def random_model(p, seed, diag_boost=0.5):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((p, p))
    omega = b @ b.T + diag_boost * p * np.eye(p)
    mu = rng.standard_normal(p)
    return precision_from_covariance(mu, omega)


def two_by_two(rho=0.5, mu=(1.0, 0.3)):
    omega = np.array([[1.0, rho], [rho, 1.0]])
    return precision_from_covariance(np.asarray(mu), omega)


def factor_esa(seed, p=60, k=20, g=None):
    """Effect sizes with Omega = G G^T for the factor ``g``, or a random p x k
    one, rank-deficient for k < p."""
    rng = np.random.default_rng(seed)
    if g is None:
        g = rng.standard_normal((p, k))
    return EffectSizePosterior(
        mu=rng.standard_normal((1, g.shape[0])),
        projection=g,
        scales=np.ones((1, g.shape[1])),
        n_used=100,
        feature_names=tuple(f"f{j}" for j in range(g.shape[0])),
    )


def limit_reference(mu, g, blocks, rank=None):
    """0.5 [tr(S_J P_J) + mu~^T P_J mu~] from a thin SVD of G truncated to
    ``rank`` columns, with the projection onto range(S_J) taken by pinv."""
    u, sv, _ = np.linalg.svd(g, full_matrices=False)
    rank = int(np.sum(sv > 0)) if rank is None else rank
    u, g = u[:, :rank], (u[:, :rank] * sv[:rank])
    out = []
    for idx in blocks:
        idx = np.asarray(idx)
        s_j = g[idx] @ g[idx].T
        p_j = np.eye(idx.size) - u[idx] @ u[idx].T
        mu_t = s_j @ np.linalg.pinv(s_j) @ mu[idx]
        out.append(0.5 * (np.sum(s_j * p_j) + mu_t @ p_j @ mu_t))
    return np.array(out)


def jittered_model(esa, tau):
    """The literal dense model of Omega + tau I, Omega = G G^T."""
    g = esa.factor(0)
    return precision_from_covariance(esa.mu[0], g @ g.T + tau * np.eye(g.shape[0]))


# --- construction -----------------------------------------------------------


class TestBuildPrecision:
    def test_one_variable_is_refused(self):
        # with one feature there is no rest to condition on; this used to be
        # scored as kld 0, rate 1
        with pytest.raises(ValueError, match="need at least 2 variables, got p = 1"):
            build_precision(factor_esa(0, p=1, k=4))

    def test_identity_factor(self):
        esa = EffectSizePosterior(
            mu=np.zeros((1, 4)),
            projection=np.eye(4),
            scales=np.ones((1, 4)),
            n_used=10,
            feature_names=tuple("abcd"),
        )
        pm = build_precision(esa)
        assert pm.rank == 4
        np.testing.assert_array_equal(pm.omega, np.eye(4))
        np.testing.assert_allclose(pm.lam, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("field", ["mu", "eigvals", "basis"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_is_refused(self, field, bad):
        # a NaN mu used to be scored as kld NaN, with a sign of -2**63
        arrays = {"mu": np.array([1.0, 0.3]), "basis": np.eye(2), "eigvals": np.array([1.0, 2.0])}
        arrays[field] = arrays[field].copy()
        arrays[field].flat[-1] = bad
        if field == "eigvals" and bad < 0:
            message = "eigvals must be positive"
        else:
            message = f"{field} must be finite"
        with pytest.raises(ValueError, match=message):
            PrecisionModel(**arrays)

    def test_rank_deficient_takes_limit_route(self):
        # p=3, k=1: h_j = g_j^2 / 14 and kld_j = 0.5 (1 - h_j)(g_j^2 + mu_j^2)
        g = np.array([[1.0], [2.0], [3.0]])
        mu = np.array([1.0, -1.0, 0.5])
        esa = EffectSizePosterior(
            mu=mu[None, :],
            projection=g,
            scales=np.ones((1, 1)),
            n_used=10,
            feature_names=("a", "b", "c"),
        )
        pm = build_precision(esa)
        assert pm.rank == 1
        h = g[:, 0] ** 2 / 14.0
        expected = 0.5 * (1 - h) * (g[:, 0] ** 2 + mu**2)
        report = rate_scores(pm)
        np.testing.assert_allclose(report.klds(), expected, rtol=1e-14)
        assert all(item.mi is None for item in report.items)
        np.testing.assert_allclose(pm.omega, g @ g.T, rtol=1e-14)
        for undefined in (
            lambda: pm.lam,
            lambda: kld_variable_naive(pm, 0),
            lambda: rate_scores(pm, path="naive"),
        ):
            with pytest.raises(ValueError, match=r"Lambda does not exist: Omega has rank 1 < p = 3"):
                undefined()
        with pytest.raises(ValueError, match="mutual information is undefined"):
            mutual_info(pm, 0)

    def test_full_rank_route_matches_conditional_gaussian_oracle(self):
        # k > p: U and lambda come from the eigh of G G^T, and both scoring routes read them
        rng = np.random.default_rng(32)
        p = 12
        g = rng.standard_normal((p, 30))
        esa = factor_esa(32, g=g)
        mu, omega = esa.mu[0], g @ g.T
        pm = build_precision(esa)
        assert pm.rank == p
        assert np.abs(pm.omega - omega).max() <= 1e-12 * np.abs(omega).max()
        for j in range(p):
            assert kld_variable_fast(pm, j) == pytest.approx(
                conditional_kl_oracle(mu, omega, j), rel=1e-9
            )
        for idx in ([0, 5], [1, 4, 6, 11], list(range(0, p, 2))):
            assert kld_group(pm, idx) == pytest.approx(
                conditional_kl_oracle(mu, omega, idx), rel=1e-9
            )

    def test_two_by_two_adjugate(self):
        pm = two_by_two()
        expected = (4.0 / 3.0) * np.array([[1.0, -0.5], [-0.5, 1.0]])
        np.testing.assert_allclose(pm.lam, expected, rtol=1e-12)

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            precision_from_covariance([1.0], [[1.0]])

    def test_class_index_out_of_range(self):
        esa = factor_esa(0, p=6, k=3)  # one class
        for class_index in (1, 5, -1):
            with pytest.raises(ValueError, match=r"outside \[0, 1\).* 1 class"):
                build_precision(esa, class_index=class_index)

    def test_rejects_invalid_covariance(self):
        g = np.array([[1.0], [2.0], [3.0]])
        for singular in (g @ g.T, -np.eye(3), np.diag([1.0, 1.0, 1e-15])):
            with pytest.raises(NotPositiveDefiniteError):
                precision_from_covariance(np.ones(3), singular)
        for malformed in ([[1.0, 0.5], [0.0, 1.0]], np.eye(2)[:1], [[1.0, np.nan], [np.nan, 1.0]]):
            with pytest.raises(ValueError):
                precision_from_covariance(np.ones(2), malformed)


# --- per-variable divergence ------------------------------------------------


class TestKldVariable:
    def test_diagonal_covariance_scores_zero(self):
        pm = precision_from_covariance([5.0, -3.0, 0.7], np.diag([1.0, 2.0, 0.5]))
        for j in range(3):
            assert kld_variable_naive(pm, j) == pytest.approx(0.0, abs=1e-12)
            assert kld_variable_fast(pm, j) == pytest.approx(0.0, abs=1e-12)

    def test_symbolic_two_by_two_value(self):
        # 0.5 [ 1/0.75 + ln 0.75 - 1 + (0.25/0.75) * mu_1^2 ]
        pm = two_by_two(rho=0.5, mu=(1.0, 0.3))
        expected = 0.5 * (1 / 0.75 + math.log(0.75) - 1 + (0.25 / 0.75) * 1.0)
        assert kld_variable_naive(pm, 0) == pytest.approx(expected, abs=1e-12)
        assert kld_variable_fast(pm, 0) == pytest.approx(expected, abs=1e-12)
        assert abs(kld_variable_naive(pm, 0) - 0.189493) < 1e-6

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_naive_matches_conditional_gaussian_oracle(self, p):
        pm = random_model(p, seed=p)
        for j in range(p):
            oracle = conditional_kl_oracle(pm.mu, pm.omega, j)
            assert kld_variable_naive(pm, j) == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_fast_matches_naive_p30(self):
        pm = random_model(30, seed=123)
        for j in range(30):
            naive = kld_variable_naive(pm, j)
            fast = kld_variable_fast(pm, j)
            assert abs(fast - naive) <= 1e-8 * (1 + naive)

    def test_naive_refuses_a_singular_submatrix(self):
        # full rank, but Omega = diag(3, 3, 0) once U is not orthonormal: the
        # submatrix Omega_-0 = diag(3, 0) has no Cholesky factor
        pm = PrecisionModel(
            mu=np.zeros(3),
            basis=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            eigvals=np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(NotPositiveDefiniteError):
            kld_variable_naive(pm, 0)

    def test_fast_detects_inconsistent_inputs(self):
        pm = PrecisionModel(
            mu=np.zeros(3),
            basis=np.sqrt(0.5) * np.eye(3),  # not orthonormal: Omega = Lambda = I / 2
            eigvals=np.ones(3),
            feature_names=("a", "b", "c"),
        )
        with pytest.raises(InconsistentPrecisionError):
            kld_variable_fast(pm, 0)
        with pytest.raises(InconsistentPrecisionError):
            mutual_info(pm, 0)
        with pytest.raises(InconsistentPrecisionError):
            kld_group(pm, [0, 1])
        # rank 1: U must have unit norm; h_2 = 1.21 and the [0, 1] block has eigenvalue 1.62
        limit = PrecisionModel(
            mu=np.zeros(3),
            basis=np.array([[0.9], [0.9], [1.1]]),
            eigvals=np.ones(1),
            feature_names=("a", "b", "c"),
        )
        kld_variable_fast(limit, 0)
        with pytest.raises(InconsistentPrecisionError):
            kld_variable_fast(limit, 2)
        with pytest.raises(InconsistentPrecisionError):
            kld_group(limit, [0, 1])

    def test_index_bounds(self):
        pm = two_by_two()
        for score in (kld_variable_naive, kld_variable_fast, mutual_info):
            for j in (-1, 2):
                with pytest.raises(IndexError, match=r"variable index .* out of range \[0, 2\)"):
                    score(pm, j)


class TestRankDeficient:
    def test_identities_hold_under_jitter(self):
        # a jittered singular covariance is an ordinary dense model: the
        # identities hold, also for groups wider than G's rank
        esa = factor_esa(26)
        p = esa.n_features
        g = esa.factor(0)
        pm = jittered_model(esa, 1e-3 * np.sum(g**2) / p)
        assert pm.rank == p
        for j in range(p):
            naive = kld_variable_naive(pm, j)
            assert abs(kld_variable_fast(pm, j) - naive) <= 1e-8 * (1 + naive)
            assert abs(kld_group(pm, [j]) - naive) <= 1e-8 * (1 + naive)
        for size in (5, 30):
            groups = GroupMap.from_indices(
                {f"g{i}": range(i, p, p // size) for i in range(p // size)}, p=p
            )
            rates = group_rate(pm, groups).rates()
            assert np.all(np.isfinite(rates))
            assert abs(rates.sum() - 1.0) <= 1e-12

    def test_factor_route_matches_thin_svd(self):
        # k = 20 < p, and k = 80 > p with rank 20 (fewer rows than features)
        rng = np.random.default_rng(27)
        p, r = 60, 20
        singles = [[j] for j in range(p)]
        blocks = [[3, 11, 25, 40, 58], list(range(0, 50, 2))]  # m = 5 and m = 25 > r
        for k in (20, 80):
            g = rng.standard_normal((p, r)) @ rng.standard_normal((r, k))
            esa = factor_esa(27, g=g)
            mu = esa.mu[0]
            pm = build_precision(esa)
            assert pm.rank == r
            u = np.linalg.svd(g, full_matrices=False)[0][:, :r]
            np.testing.assert_allclose(pm.basis @ pm.basis.T, u @ u.T, atol=1e-12)
            fast = np.array([kld_variable_fast(pm, j) for j in range(p)])
            groups = np.array([kld_group(pm, idx) for idx in blocks])
            for got, ref in ((fast, limit_reference(mu, g, singles, r)),
                             (groups, limit_reference(mu, g, blocks, r))):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            np.testing.assert_allclose(rate_scores(pm).klds(), fast, rtol=1e-14)

    def test_factor_route_storage(self):
        # both routes keep mu, one p x r basis and r eigenvalues: k = 20 < p = 60
        # takes the limit route, k = 80 the full-rank one
        for k in (20, 80):
            esa = factor_esa(28, k=k)
            p, r = esa.n_features, min(esa.n_features, k)
            pm = build_precision(esa)
            shapes = {name: v.shape for name, v in vars(pm).items() if isinstance(v, np.ndarray)}
            assert shapes == {"mu": (p,), "basis": (p, r), "eigvals": (r,)}

    def test_zero_factor_is_degenerate(self):
        # Omega_tau = tau I leaves the effects independent, so every limit kld is 0
        for k in (2, 8):
            pm = build_precision(factor_esa(29, g=np.zeros((6, k))))
            assert pm.rank == 0
            report = rate_scores(pm)
            assert report.degenerate
            np.testing.assert_array_equal(report.klds(), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_rates_are_jitter_invariant(self, seed):
        # the raw klds of a jittered model scale like 1/tau, but their shares
        # approach the limit's
        esa = factor_esa(seed)
        limit = rate_scores(build_precision(esa)).rates()
        g = esa.factor(0)
        for tau in (1e-4, 1e-6):
            rates = rate_scores(jittered_model(esa, tau * np.sum(g**2) / g.shape[0])).rates()
            np.testing.assert_array_equal(np.argsort(rates), np.argsort(limit))
            np.testing.assert_allclose(rates, limit, rtol=1e-2)

    def test_jittered_model_converges_to_limit(self):
        # tau kld_J of the literal Omega + tau I model approaches the limit with a
        # gap of O(tau log(1/tau)): each 100x smaller tau cuts it by well over 30x
        esa = factor_esa(30)
        mu, g = esa.mu[0], esa.factor(0)
        p = g.shape[0]
        pm = build_precision(esa)
        block_sets = {
            "singles": [[j] for j in range(p)],
            "groups of 5": [list(range(i, i + 5)) for i in range(0, p, 5)],
            "m > r": [list(range(0, 50, 2))],
        }
        scale = np.sum(g**2) / p
        for name, blocks in block_sets.items():
            limit = np.array([kld_group(pm, idx) for idx in blocks])
            np.testing.assert_allclose(limit, limit_reference(mu, g, blocks), rtol=1e-10)
            gaps = []
            for rel in (1e-2, 1e-4, 1e-6):
                tau = rel * scale
                jittered = jittered_model(esa, tau)
                klds = np.array([kld_group(jittered, idx) for idx in blocks])
                gaps.append(np.abs(tau * klds - limit).max() / limit.max())
            assert gaps[-1] < 1e-4, name
            for coarse, fine in zip(gaps, gaps[1:]):
                assert coarse / fine > 30, (name, gaps)

    def test_eigenvalues_straddling_the_rank_tolerance(self):
        # Gram eigenvalues of about 3e-13 and 3e-17 times the trace sit either
        # side of RANK_RTOL = 1e-14: the first counts toward the rank, the
        # second not. The Gram eigh leaves U's columns about 1e-4 off
        # orthonormal here, so U needs its Cholesky QR pass
        rng = np.random.default_rng(31)
        p, k = 30, 8
        left = np.linalg.qr(rng.standard_normal((p, k)))[0]
        right = np.linalg.qr(rng.standard_normal((k, k)))[0]
        sv2 = np.array([1.0, 0.8, 0.5, 0.3, 0.2, 0.1, 1e-12, 1e-16])
        g = (left * np.sqrt(sv2 / sv2.sum())) @ right.T
        esa = factor_esa(31, g=g)
        pm = build_precision(esa)
        assert pm.rank == 7
        u = pm.basis
        np.testing.assert_allclose(u.T @ u, np.eye(7), atol=1e-12)
        ref = limit_reference(esa.mu[0], g, [[j] for j in range(p)], rank=7)
        fast = rate_scores(pm).klds()
        assert np.abs(fast - ref).max() <= 1e-6 * ref.max()
        groups = GroupMap.from_indices({f"g{i}": range(10 * i, 10 * i + 10) for i in range(3)}, p=p)
        rates = group_rate(pm, groups).rates()
        assert np.all(np.isfinite(rates)) and abs(rates.sum() - 1.0) <= 1e-12

    def test_groups_wider_than_the_network(self):
        # last hidden width 8 < p = 100 and ten groups of 10 features each
        ds = synth_classification(SynthSpec(n=300, p=100, seed=3))
        net = build_network(NetworkConfig(100, (8,)), seed=3)
        effect = covariance_esa(ds.X, logit_posterior(net, ds.X))
        pm = build_precision(effect)
        assert pm.rank == 8
        groups = GroupMap.from_indices({f"g{i}": range(10 * i, 10 * i + 10) for i in range(10)}, p=100)
        rates = group_rate(pm, groups).rates()
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
        assert abs(rates.sum() - 1.0) <= 1e-12


def traced_peak(fn, *args):
    """``fn(*args)``, the bytes it allocated at its peak beyond what it
    retains, and the bytes it retains."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - retained, retained - base


def orthonormal_model(p, r, seed):
    rng = np.random.default_rng(seed)
    return PrecisionModel(
        mu=rng.standard_normal(p),
        basis=np.linalg.qr(rng.standard_normal((p, r)))[0],
        eigvals=rng.uniform(0.5, 2.0, r),
    )


class TestScoringMemory:
    """Scoring holds no p x k or p x r array beyond the ones it returns."""

    def test_build_precision_copies_no_factor(self, monkeypatch):
        # p = 3000, k = 64: the basis takes 1.5 MB and a second p x k array as
        # much again, while the Gram work is O(k^2) and the finiteness mask of
        # A takes one byte per entry
        rng = np.random.default_rng(40)
        p, k = 3000, 64
        a = rng.standard_normal((p, k))
        scales = rng.uniform(0.1, 3.0, (1, k))
        esa = EffectSizePosterior(
            mu=rng.standard_normal((1, p)), projection=a, scales=scales, n_used=100,
            feature_names=tuple(f"f{j}" for j in range(p)),
        )
        with monkeypatch.context() as patch:
            patch.setattr(EffectSizePosterior, "factor", None)  # the k < p route never calls it
            pm, transient, retained = traced_peak(build_precision, esa)
        assert pm.rank == k
        assert retained <= pm.basis.nbytes + 64 * k
        assert transient <= 8 * 8 * k * k + p * k + pm.basis.nbytes // 8, transient
        # the scales folded into the k x r factor give the model of G = A diag(s)
        ref = build_precision(EffectSizePosterior(
            mu=esa.mu, projection=a * scales, scales=np.ones((1, k)), n_used=100,
            feature_names=esa.feature_names,
        ))
        np.testing.assert_allclose(pm.eigvals, ref.eigvals, rtol=1e-12)
        np.testing.assert_allclose(rate_scores(pm).klds(), rate_scores(ref).klds(), rtol=1e-10)

    @pytest.mark.parametrize("p, r", [(1500, 256), (3000, 256), (600, 600)])
    def test_rate_scores_gathers_a_bounded_batch(self, p, r):
        # r < p scores the tau -> 0 limit, r = p the dense identity; at the
        # same bound for every p, though one gather of all p rows of U takes
        # 3 to 6 MB
        pm = orthonormal_model(p, r, seed=41)
        report, transient, _ = traced_peak(rate_scores, pm)
        assert (report.items[0].mi is None) == (r < p)
        assert transient <= 8 * GATHER_ELEMENTS + 256 * 1024, transient

    @pytest.mark.parametrize("r", [64, 200])
    def test_batches_agree_with_one_pass(self, monkeypatch, r):
        # p = 200: r = 64 takes the limit route, r = 200 the dense one
        pm = orthonormal_model(200, r, seed=42)
        one_pass = rate_scores(pm)
        with monkeypatch.context() as patch:
            patch.setattr(rate, "GATHER_ELEMENTS", 3 * r)  # batches of 3, the last of 2
            batched = rate_scores(pm)
        np.testing.assert_allclose(batched.klds(), one_pass.klds(), rtol=1e-13)
        if r == 200:
            mis = [it.mi for it in one_pass.items]
            np.testing.assert_allclose([it.mi for it in batched.items], mis, rtol=1e-13)

    def test_group_wider_than_the_gather_budget(self):
        # r = 64 and a group of m = 1100 > GATHER_ELEMENTS / r members is one
        # block gathered on its own; it still matches the thin-SVD limit
        p, k = 2000, 64
        esa = factor_esa(43, p=p, k=k)
        g, mu = esa.factor(0), esa.mu[0]
        pm = build_precision(esa)
        wide = list(range(1100))
        assert len(wide) * pm.rank > GATHER_ELEMENTS
        groups = GroupMap.from_indices({"wide": wide, "pair": [1500, 1700]}, p=p)
        rates = group_rate(pm, groups).rates()
        assert np.all(rates > 0) and abs(rates.sum() - 1.0) <= 1e-12
        ref = limit_reference(mu, g, [wide])[0]
        assert abs(kld_group(pm, wide) - ref) <= 1e-8 * ref
        for j in (0, 999, 1999):
            single = kld_variable_fast(pm, j)
            assert abs(kld_group(pm, [j]) - single) <= 1e-8 * single


class TestInvariances:
    def test_affine_invariance(self):
        base = random_model(8, seed=42)
        base_klds = [kld_variable_fast(base, j) for j in range(8)]
        base_mis = [mutual_info(base, j) for j in range(8)]
        for a in (0.1, 3.0, -2.0):
            scaled = precision_from_covariance(a * base.mu, a * a * base.omega)
            for j in range(8):
                kld = kld_variable_fast(scaled, j)
                assert abs(kld - base_klds[j]) <= 1e-10 * (1 + abs(base_klds[j]))
                mi = mutual_info(scaled, j)
                assert abs(mi - base_mis[j]) <= 1e-10 * (1 + abs(base_mis[j]))

    def test_independent_block_scores_zero_regardless_of_mu(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 3))
        block = b @ b.T + np.eye(3)
        omega = np.zeros((6, 6))
        omega[:3, :3] = block
        omega[3:, 3:] = np.eye(3)
        mu = np.array([1.0, -2.0, 0.5, 100.0, -50.0, 7.0])
        pm = precision_from_covariance(mu, omega)
        for j in range(3, 6):
            assert abs(kld_variable_naive(pm, j)) <= 1e-10
            assert abs(kld_variable_fast(pm, j)) <= 1e-10
        assert abs(kld_group(pm, [3, 4])) <= 1e-10

    def test_zero_mean_kld_and_mi_formulas(self):
        pm = random_model(7, seed=9)
        zero_mu = precision_from_covariance(np.zeros(7), pm.omega)
        for j in range(7):
            a = zero_mu.omega[j, j] * zero_mu.lam[j, j]
            expected = 0.5 * (a - 1 - math.log(a))
            assert kld_variable_fast(zero_mu, j) == pytest.approx(expected, rel=1e-12)
            assert expected >= 0
            assert mutual_info(zero_mu, j) == pytest.approx(0.5 * math.log(a), rel=1e-12)
            assert mutual_info(zero_mu, j) >= 0


# --- reports ----------------------------------------------------------------


class TestRateScores:
    def test_exchangeable_pair_splits_evenly(self):
        pm = two_by_two(rho=0.5, mu=(1.2, -1.2))
        report = rate_scores(pm)
        np.testing.assert_allclose(report.rates(), [0.5, 0.5], atol=1e-12)

    def test_rates_sum_to_one(self):
        pm = random_model(12, seed=5)
        for path in ("fast", "naive"):
            report = rate_scores(pm, path=path)
            assert abs(report.rates().sum() - 1.0) <= 1e-12
            assert np.all(report.rates() >= 0) and np.all(report.rates() <= 1)

    def test_paths_agree(self):
        pm = random_model(15, seed=6)
        fast = rate_scores(pm, path="fast")
        naive = rate_scores(pm, path="naive")
        np.testing.assert_allclose(fast.rates(), naive.rates(), rtol=1e-8)

    def test_naive_path_runs_without_the_fast_one(self, monkeypatch):
        # the reference reads mi = 0.5 log(omega_jj lambda_jj) off the dense
        # Omega and Lambda, so it never calls the block code it checks
        pm = random_model(10, seed=23)
        fast = rate_scores(pm)

        def refuse(*args):
            raise AssertionError("the naive path ran the block identity")

        monkeypatch.setattr(rate, "_block_kl", refuse)
        naive = rate_scores(pm, path="naive")
        mis = np.array([it.mi for it in fast.items])
        assert np.all(mis > 1e-3)
        np.testing.assert_allclose([it.mi for it in naive.items], mis, rtol=1e-12)
        np.testing.assert_allclose(naive.klds(), fast.klds(), rtol=1e-8)

    def test_degenerate_uniform(self):
        pm = precision_from_covariance([0.0, 0.0, 0.0], np.eye(3))
        report = rate_scores(pm)
        assert report.degenerate
        np.testing.assert_allclose(report.rates(), 1 / 3)
        assert not any(item.significant for item in report.items)

    def test_significance_threshold(self):
        pm = random_model(9, seed=7)
        report = rate_scores(pm)
        for item in report.items:
            assert item.significant == (item.rate > 1 / 9)

    def test_signs_follow_mu(self):
        pm = random_model(6, seed=8)
        report = rate_scores(pm)
        np.testing.assert_array_equal(
            [item.sign for item in report.items], np.sign(pm.mu).astype(int)
        )

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            rate_scores(two_by_two(), path="magic")

    @pytest.mark.parametrize("route", ["dense", "naive", "limit", "group"])
    def test_item_fields_are_python_values(self, route):
        # reports are compared with == and written as JSON and CSV, so no
        # numpy scalar may stand in for a field
        pm = build_precision(factor_esa(31, p=12, k=5 if route == "limit" else 20))
        if route == "group":
            report = group_rate(pm, GroupMap.from_indices({"a": [0, 3], "b": [1], "c": [4, 5]}, 12))
        else:
            report = rate_scores(pm, path="naive" if route == "naive" else "fast")
        kinds = {"name": str, "kld": float, "rate": float, "sign": int, "significant": bool,
                 "mi": float if route in ("dense", "naive") else type(None),
                 "members": tuple if route == "group" else type(None)}
        for item in report.items:
            assert {field: type(value) for field, value in vars(item).items()} == kinds
            assert all(type(name) is str for name in item.members or ())
        assert type(report.threshold) is float and type(report.degenerate) is bool


def test_ranked_orders_by_rate_with_ties_in_feature_order():
    rates = [0.1, 0.3, 0.1, 0.3, 0.2]
    items = tuple(ImportanceItem(f"f{j}", r, r, 1, r > 0.2) for j, r in enumerate(rates))
    report = ImportanceReport(items=items, threshold=0.2)
    assert [item.name for item in report.ranked()] == ["f1", "f3", "f4", "f0", "f2"]
    assert report.items == items  # ranking leaves the report in feature order


def test_readme_quickstart_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library in five lines", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("[ImportanceItem(name='f") and printed.count("ImportanceItem(") == 5


class TestKldGroup:
    def test_singleton_reduces_to_variable_kld(self):
        pm = random_model(6, seed=10)
        for j in range(6):
            assert kld_group(pm, [j]) == pytest.approx(
                kld_variable_naive(pm, j), abs=1e-10
            )

    def test_block_diagonal_group_scores_zero(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((3, 3))
        omega = np.zeros((6, 6))
        omega[:3, :3] = b @ b.T + np.eye(3)
        omega[3:, 3:] = np.diag([2.0, 1.0, 0.5])
        mu = rng.standard_normal(6)
        pm = precision_from_covariance(mu, omega)
        assert abs(kld_group(pm, [0, 1, 2])) <= 1e-10

    def test_matches_conditional_gaussian_oracle(self):
        pm = random_model(8, seed=14)
        indices = [1, 4, 6]
        oracle = conditional_kl_oracle(pm.mu, pm.omega, indices)
        assert kld_group(pm, indices) == pytest.approx(oracle, rel=1e-9)

    def test_empty_complement_rejected(self):
        pm = two_by_two()
        with pytest.raises(ValueError):
            kld_group(pm, [0, 1])

    @pytest.mark.parametrize("indices, message", [
        ([], "is empty"),
        ([4], r"has indices outside \[0, 4\)"),
        ([-1, 0], r"has indices outside \[0, 4\)"),
        ([0, 1, 2, 3, 3], "has an empty complement"),
        ([0.7, 2.2], "has an entry that is not an integer: 0.7"),
        ([1.5], "has an entry that is not an integer: 1.5"),
        ([1, np.float64(2.0)], r"has an entry that is not an integer: np.float64\(2.0\)"),
        ([True], "has an entry that is not an integer: True"),
        ([np.True_], "has an entry that is not an integer: np.True_"),
        (["1"], "has an entry that is not an integer: '1'"),
    ], ids=["empty", "above-p", "negative", "full-cover", "floats", "float", "numpy-float",
            "bool", "numpy-bool", "string"])
    def test_index_set_is_checked_as_group_map_checks_it(self, indices, message):
        pm = random_model(4, seed=15)
        with pytest.raises(ValueError, match=f"^group {message}"):
            kld_group(pm, indices)
        with pytest.raises(ValueError, match=f"^group 'a' {message}"):
            GroupMap.from_indices({"a": indices}, p=4)

    def test_numpy_integer_indices_are_index_sets(self):
        pm = random_model(4, seed=15)
        for kind in (np.int64, np.int32, np.uint8):
            indices = np.array([2, 0], dtype=kind)
            assert kld_group(pm, indices) == kld_group(pm, [0, 2])
            assert GroupMap.from_indices({"a": indices}, p=4).groups == {"a": (0, 2)}


class TestGroupRate:
    def test_singleton_partition_matches_variable_ranking(self):
        pm = random_model(7, seed=15)
        groups = GroupMap.from_indices({f"g{j}": [j] for j in range(7)}, p=7)
        group_report = group_rate(pm, groups)
        var_report = rate_scores(pm, path="naive")
        np.testing.assert_allclose(
            group_report.rates(), var_report.rates(), rtol=1e-9
        )

    def test_rates_sum_to_one(self):
        pm = random_model(9, seed=16)
        groups = GroupMap.from_indices({"a": [0, 1, 2], "b": [3, 4], "c": [5, 6, 7]}, p=9)
        report = group_rate(pm, groups)
        assert abs(report.rates().sum() - 1.0) <= 1e-12

    def test_signal_block_outranks_null_block(self):
        # both blocks share the same cross-correlations but only block A has
        # nonzero mean effects, so its conditioning KL picks up the quadratic
        # term; ranked against the first-principles oracle
        rng = np.random.default_rng(17)
        b = rng.standard_normal((6, 6))
        omega = b @ b.T + 3 * np.eye(6)
        mu = np.array([2.0, -1.5, 1.0, 0.0, 0.0, 0.0])
        pm = precision_from_covariance(mu, omega)
        a_idx, b_idx = [0, 1, 2], [3, 4, 5]
        oracle_a = conditional_kl_oracle(mu, omega, a_idx)
        oracle_b = conditional_kl_oracle(mu, omega, b_idx)
        assert oracle_a > oracle_b
        groups = GroupMap.from_indices({"A": a_idx, "B": b_idx}, p=6)
        report = group_rate(pm, groups)
        rates = {item.name: item.rate for item in report.items}
        assert rates["A"] > rates["B"]
        assert rates["A"] == pytest.approx(oracle_a / (oracle_a + oracle_b), rel=1e-9)

    def test_overlap_warns(self):
        pm = random_model(5, seed=18)
        groups = GroupMap.from_indices({"a": [0, 1], "b": [1, 2]}, p=5)
        with pytest.warns(UserWarning, match="overlap"):
            group_rate(pm, groups)

    def test_requires_two_groups(self):
        pm = random_model(5, seed=19)
        with pytest.raises(ValueError):
            group_rate(pm, GroupMap.from_indices({"a": [0]}, p=5))

    def test_scores_each_group_as_kld_group_does(self):
        pm = random_model(9, seed=21)
        groups = GroupMap.from_indices({"a": [4, 0, 2], "b": [5], "c": [8, 7, 6, 1]}, p=9)
        klds = group_rate(pm, groups).klds()
        assert klds.tolist() == [kld_group(pm, groups.groups[name]) for name in "abc"]

    def test_groups_checked_against_another_p_are_refused(self):
        pm = random_model(5, seed=22)
        groups = GroupMap.from_indices({"a": [0, 1], "b": [2, 3, 4]}, p=6)
        with pytest.raises(ValueError, match="the groups index 6 features, the model has 5"):
            group_rate(pm, groups)

    def test_members_recorded(self):
        pm = random_model(5, seed=20)
        groups = GroupMap.from_indices({"a": [0, 2], "b": [1, 3]}, p=5)
        report = group_rate(pm, groups)
        by_name = {item.name: item for item in report.items}
        assert by_name["a"].members == (pm.feature_names[0], pm.feature_names[2])


class TestGroupMap:
    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            GroupMap.from_indices({"a": []}, p=4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GroupMap.from_indices({"a": [4]}, p=4)

    def test_rejects_full_cover(self):
        with pytest.raises(ValueError):
            GroupMap.from_indices({"a": [0, 1, 2, 3]}, p=4)

    def test_unknown_feature_name_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown feature"):
            GroupMap.from_names({"a": ["x", "zzz"]}, feature_names=("x", "y", "z"))

    def test_name_resolution(self):
        gm = GroupMap.from_names({"a": ["z", "x"]}, feature_names=("x", "y", "z"))
        assert gm.groups["a"] == (0, 2)

    def test_repeated_names_still_count_toward_p(self):
        # p is 3 here; counting distinct names made it 2, and index 2 out of range
        gm = GroupMap.from_names({"g1": ["b"]}, feature_names=("a", "a", "b"))
        assert gm.groups["g1"] == (2,)

    def test_repeated_name_as_a_member_is_hard_error(self):
        with pytest.raises(ValueError, match="feature 'a', which appears more than once"):
            GroupMap.from_names({"g1": ["a"]}, feature_names=("a", "a", "b"))

    def test_csv_reader_resolves_rows_as_from_names(self, tmp_path):
        # blank rows and a literal header row are skipped; cells are stripped
        path = tmp_path / "groups.csv"
        path.write_text("group_name,feature_name\na, z\n\nb,y\na,x\n", encoding="utf-8")
        names = ("x", "y", "z", "w")
        assert GroupMap.from_csv(path, names) == GroupMap.from_names(
            {"a": ["z", "x"], "b": ["y"]}, names)

    @pytest.mark.parametrize("content, message", [
        (b"a,x,extra\n", "group file row must be group_name,feature_name: ['a', 'x', 'extra']"),
        (b"group,feature\n\n", "no groups found"),
        (b"a,zzz\n", "group 'a' names unknown feature 'zzz'"),
        (b"a,x\na,y\na,z\n", "group 'a' has an empty complement"),
        (b"a,\xf6\n", "'utf-8' codec can't decode byte 0xf6"),
    ])
    def test_csv_refusal_names_the_file_first(self, tmp_path, content, message):
        path = tmp_path / "groups.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            GroupMap.from_csv(path, ("x", "y", "z"))
        assert str(info.value).startswith(f"{path}: {message}"), info.value


class TestMutualInfo:
    def test_diagonal_covariance_gives_zero(self):
        pm = precision_from_covariance([1.0, 2.0], np.diag([3.0, 4.0]))
        assert mutual_info(pm, 0) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_value(self):
        pm = two_by_two(rho=0.5)
        expected = -0.5 * math.log(0.75)
        assert mutual_info(pm, 0) == pytest.approx(expected, abs=1e-12)
        assert abs(mutual_info(pm, 0) - 0.143841) < 1e-6

    def test_matches_determinant_ratio(self):
        pm = random_model(12, seed=21)
        _, ld_full = np.linalg.slogdet(pm.omega)
        for j in range(12):
            keep = np.arange(12) != j
            _, ld_minor = np.linalg.slogdet(pm.omega[np.ix_(keep, keep)])
            expected = 0.5 * (math.log(pm.omega[j, j]) + ld_minor - ld_full)
            assert mutual_info(pm, j) == pytest.approx(expected, abs=1e-8)

    def test_nonnegative(self):
        pm = random_model(10, seed=22)
        assert all(mutual_info(pm, j) >= 0 for j in range(10))


class TestReportExports:
    def test_json_fields(self, tmp_path):
        pm = random_model(4, seed=23)
        report = rate_scores(pm)
        report_to_json(report, tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"items", "threshold", "degenerate"}
        assert (doc["threshold"], doc["degenerate"]) == (report.threshold, report.degenerate)
        assert len(doc["items"]) == 4
        for item, it in zip(doc["items"], report.items):
            assert item == {"name": it.name, "kld": it.kld, "rate": it.rate, "sign": it.sign,
                            "mi": it.mi, "significant": it.significant}

    def test_group_json_includes_members(self, tmp_path):
        pm = random_model(5, seed=24)
        groups = GroupMap.from_indices({"a": [0, 1], "b": [2, 3]}, p=5)
        report_to_json(group_rate(pm, groups), tmp_path / "group_report.json")
        doc = json.loads((tmp_path / "group_report.json").read_text())
        assert [item["members"] for item in doc["items"]] == [["f1", "f2"], ["f3", "f4"]]

    def test_csv_round_trip_values(self, tmp_path):
        pm = random_model(4, seed=25)
        report = rate_scores(pm)
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "kld", "rate", "sign", "mi", "significant"]
        for row, item in zip(rows[1:], report.items):
            assert row[0] == item.name
            assert float(row[1]) == item.kld
            assert float(row[2]) == item.rate

    def test_reader_gives_the_names_and_rates_written(self, tmp_path):
        report = rate_scores(random_model(6, seed=26))
        report_to_json(report, tmp_path / "report.json")
        names, rates = read_report(tmp_path / "report.json")
        assert names == [it.name for it in report.items]
        assert rates.dtype == np.float64 and rates.tobytes() == report.rates().tobytes()

    def test_reader_needs_only_names_and_rates(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"items": [{"name": "a", "rate": 1}, {"name": "b", "rate": 0.5}]}')
        names, rates = read_report(path)
        assert names == ["a", "b"] and rates.tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("content, message", [
        ('{"items": {}}', "items must be a list, got an object"),
        ('{"items": [{"name": "a"}]}', "report item 0 has no 'rate' key"),
        ('{"items": [{"name": 1, "rate": 0.5}]}', "items[0].name must be a string, got an integer"),
        ('{"items": [{"name": "a", "rate": NaN}]}',
         "report item 0 has a 'rate' that is not a finite number: NaN"),
        ("[]", "the document must be an object, got a list"),
    ])
    def test_reader_refusal_names_the_file_first(self, tmp_path, content, message):
        path = tmp_path / "report.json"
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            read_report(path)
        assert str(info.value).startswith(f"{path}: {message}"), info.value
