"""Tests for the dense linear algebra kernel."""

import numpy as np
import pytest

from ratekit.core import (
    NotPositiveDefiniteError,
    center_columns,
    chol_spd,
    gram,
)


class TestCenterColumns:
    def test_constant_column_becomes_zero(self):
        m = np.full((5, 1), 3.7)
        np.testing.assert_array_equal(center_columns(m), np.zeros((5, 1)))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 4))
        once = center_columns(m)
        np.testing.assert_allclose(center_columns(once), once, atol=1e-12)

    def test_hand_example(self):
        # subtract the mean 2 by hand
        m = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(center_columns(m), [[-1.0], [0.0], [1.0]])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            center_columns(np.empty((0, 3)))

    def test_column_means_vanish(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-5, 5, size=(31, 7))
        means = center_columns(m).mean(axis=0)
        np.testing.assert_allclose(means, 0.0, atol=1e-13)


class TestCholSpd:
    def test_identity(self):
        f = chol_spd(np.eye(2))
        np.testing.assert_array_equal(f.lower, np.eye(2))
        assert f.log_det == 0.0

    def test_diagonal(self):
        f = chol_spd(np.diag([4.0, 4.0]))
        np.testing.assert_allclose(f.lower, np.diag([2.0, 2.0]))
        np.testing.assert_allclose(f.log_det, 2 * np.log(4.0))

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((10, 10))
        a = b @ b.T + np.eye(10)
        f = chol_spd(a)
        recon = f.lower @ f.lower.T
        err = np.linalg.norm(recon - a) / np.linalg.norm(a)
        assert err < 1e-8

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((6, 6))
        a = b @ b.T + np.eye(6)
        f = chol_spd(a)
        _, ref = np.linalg.slogdet(a)
        np.testing.assert_allclose(f.log_det, ref, rtol=1e-12)

    def test_singular_matrix_rejected(self):
        g = np.array([[1.0], [2.0], [3.0]])
        a = g @ g.T  # rank 1, p = 3
        with pytest.raises(NotPositiveDefiniteError):
            chol_spd(a)

    def test_negative_definite_fails(self):
        with pytest.raises(NotPositiveDefiniteError):
            chol_spd(-np.eye(3))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            chol_spd(a)

    def test_solve_consistent_with_factor(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((5, 5))
        a = b @ b.T + np.eye(5)
        f = chol_spd(a)
        x = f.solve(np.ones(5))
        np.testing.assert_allclose(a @ x, np.ones(5), atol=1e-10)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(4)), np.eye(4))

    def test_outer_product(self):
        g = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(gram(g), [[1.0, 2.0], [2.0, 4.0]])

    def test_psd_cholesky_pivots(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 3))
        a = gram(g)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10 * np.trace(a)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((12, 5))
        a = gram(g)
        assert np.array_equal(a, a.T)
