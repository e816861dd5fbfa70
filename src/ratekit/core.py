"""Dense symmetric helpers shared by the precision code.

Everything here operates on plain float64 ndarrays: the exactly symmetric
Gram matrix G G^T, the checked symmetric part of an input matrix, and the one
relative bound below which an eigenvalue or a squared Cholesky pivot counts
as zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "checked_symmetric",
    "gram",
]

#: An eigenvalue, or squared Cholesky pivot, of a symmetric positive
#: semidefinite S at or below ``RANK_RTOL * trace(S)`` counts as zero.
RANK_RTOL = 1e-14

#: Relative asymmetry beyond which an input is rejected instead of symmetrized.
ASYMMETRY_TOL = 1e-6


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix has no Cholesky factor with a nonzero pivot."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return m


def checked_symmetric(s, name: str = "S") -> np.ndarray:
    """The symmetric part of a finite square matrix; an asymmetry beyond
    ``ASYMMETRY_TOL`` relative to its largest entry raises ``ValueError``."""
    s = _as_matrix(s, name)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{name} contains non-finite entries")
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


def gram(g) -> np.ndarray:
    """G G^T, exactly symmetric as numpy forms ``g @ g.T`` (a symmetric
    rank-k update). A row that is not finite, or whose squared norm on the
    diagonal overflows, raises ``ValueError``."""
    g = _as_matrix(g, "G")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        prod = g @ g.T
    if not np.all(np.isfinite(np.diagonal(prod))):
        raise ValueError("G has a non-finite row or one whose squared norm overflows")
    return prod
