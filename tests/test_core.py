"""Tests for the dense linear algebra kernel."""

import numpy as np
import pytest

from ratekit.core import center_columns, gram


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
