"""Tests for the dense linear algebra kernel."""

import numpy as np

from ratekit.core import gram


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
