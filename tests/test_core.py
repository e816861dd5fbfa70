"""Tests for the dense linear algebra kernel."""

import numpy as np
import pytest

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
        # tall, transposed (Fortran-ordered) and wide inputs alike
        rng = np.random.default_rng(9)
        for g in (
            rng.standard_normal((12, 5)),
            rng.standard_normal((300, 40)).T,
            rng.standard_normal((40, 300)),
        ):
            a = gram(g)
            assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_row(self, bad):
        g = np.ones((4, 3))
        g[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite row"):
            gram(g)

    def test_refuses_an_overflowing_row(self):
        # every entry is finite, but the row's squared norm is not
        g = np.ones((3, 2))
        g[1] = 1e200
        with pytest.raises(ValueError, match="squared norm overflows"):
            gram(g)
