"""Dense symmetric linear algebra shared by the posterior-projection code.

Everything here operates on plain float64 ndarrays. Factorizations carry
their log-determinant so downstream KL computations never form a raw
determinant (which overflows long before p ~ 2000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpdFactor",
    "NotPositiveDefiniteError",
    "center_columns",
    "checked_symmetric",
    "chol_spd",
    "gram",
]

#: An eigenvalue, or squared Cholesky pivot, of a symmetric positive
#: semidefinite S at or below ``RANK_RTOL * trace(S)`` counts as zero.
RANK_RTOL = 1e-14

#: Relative asymmetry beyond which an input is rejected instead of symmetrized.
ASYMMETRY_TOL = 1e-6


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix has no Cholesky factor with a nonzero pivot."""


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of ``S``.

    ``lower @ lower.T`` reconstructs the input and ``log_det`` is its
    log-determinant.
    """

    lower: np.ndarray
    log_det: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve S x = b using the triangular factor.

        numpy has no triangular solver; its general solve on the factor
        agrees with a triangular one to round-off.
        """
        y = np.linalg.solve(self.lower, b)
        return np.linalg.solve(self.lower.T, y)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def center_columns(m) -> np.ndarray:
    """Subtract the column means, i.e. apply C = I - 11^T/n from the left."""
    m = _as_matrix(m)
    return m - m.mean(axis=0, keepdims=True)


def checked_symmetric(s, name: str = "S") -> np.ndarray:
    """The symmetric part of a finite square matrix; an asymmetry beyond
    ``ASYMMETRY_TOL`` relative to its largest entry raises ``ValueError``."""
    s = _as_matrix(s, name)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be square, got shape {s.shape}")
    scale = np.abs(s).max()
    asym = np.abs(s - s.T).max()
    if scale > 0 and asym > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"{name} is asymmetric beyond tolerance "
            f"(relative asymmetry {asym / scale:.3e})"
        )
    return 0.5 * (s + s.T)


def chol_spd(s) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    A singular or indefinite input raises ``NotPositiveDefiniteError``.
    """
    s = checked_symmetric(s)
    p = s.shape[0]
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix of size {p} is not positive definite") from exc
    # LAPACK accepts some numerically singular inputs; a collapsed pivot
    # would poison every downstream solve, so reject it too.
    if np.min(np.diagonal(lower)) ** 2 <= RANK_RTOL * np.trace(s):
        raise NotPositiveDefiniteError(f"matrix of size {p} is singular (a pivot collapsed)")
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
    return SpdFactor(lower=lower, log_det=log_det)


def gram(g) -> np.ndarray:
    """Form G G^T, symmetrized so the result is exactly symmetric."""
    g = _as_matrix(g, "G")
    prod = g @ g.T
    return 0.5 * (prod + prod.T)
