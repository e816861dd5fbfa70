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
    "chol_spd",
    "chol_jittered",
    "spd_inverse",
    "gram",
]

#: Default relative jitter scale for near-singular covariance matrices.
DEFAULT_JITTER = 1e-8

#: Maximum number of x10 jitter escalations before giving up.
MAX_JITTER_ESCALATIONS = 6

#: Relative asymmetry beyond which an input is rejected instead of symmetrized.
ASYMMETRY_TOL = 1e-6


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factored even with maximal jitter."""


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of ``S + jitter_used * I``.

    ``lower @ lower.T`` reconstructs the jittered input and ``log_det`` is
    the log-determinant of the jittered matrix.
    """

    lower: np.ndarray
    log_det: float
    jitter_used: float

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (S + jitter*I) x = b using the triangular factor.

        numpy has no triangular solver; its general solve on the factor
        agrees with a triangular one to round-off.
        """
        y = np.linalg.solve(self.lower, b)
        return np.linalg.solve(self.lower.T, y)

    def inverse(self) -> np.ndarray:
        """Materialize (S + jitter*I)^{-1}, symmetrized to round-off."""
        inv = self.solve(np.eye(self.dim))
        return 0.5 * (inv + inv.T)


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


def _symmetrize_checked(s: np.ndarray, name: str) -> np.ndarray:
    scale = np.abs(s).max()
    asym = np.abs(s - s.T).max()
    if scale > 0 and asym > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"{name} is asymmetric beyond tolerance "
            f"(relative asymmetry {asym / scale:.3e})"
        )
    return 0.5 * (s + s.T)


def _try_cholesky(s: np.ndarray) -> np.ndarray | None:
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    # LAPACK accepts some numerically singular inputs; a collapsed pivot
    # would poison every downstream solve, so treat it as a failure too.
    diag = np.diagonal(lower)
    if np.min(diag) ** 2 <= 1e-14 * np.trace(s):
        return None
    return lower


def chol_spd(s, base_jitter: float = DEFAULT_JITTER) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating diagonal jitter on failure.

    The factorization is attempted on the raw (symmetrized) input first;
    on failure, jitter starts at ``base_jitter * trace(S)/p`` and grows by
    x10 up to ``MAX_JITTER_ESCALATIONS`` times.
    """
    s = _symmetrize_checked(_as_matrix(s, "S"), "S")
    p = s.shape[0]
    if s.shape[1] != p:
        raise ValueError(f"S must be square, got shape {s.shape}")

    lower = _try_cholesky(s)
    if lower is not None:
        log_det = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
        return SpdFactor(lower=lower, log_det=log_det, jitter_used=0.0)
    return chol_jittered(s, base_jitter * np.trace(s) / p)


def chol_jittered(s: np.ndarray, tau: float) -> SpdFactor:
    """Cholesky-factor ``S + tau * I`` for a symmetric ``S``, growing ``tau``
    by x10 up to ``MAX_JITTER_ESCALATIONS`` times until it succeeds.

    ``S`` is taken as given (no symmetry or finiteness checks); a ``tau`` of
    zero never succeeds.
    """
    p = s.shape[0]
    eye = np.eye(p)
    for _ in range(MAX_JITTER_ESCALATIONS):
        if tau > 0:
            lower = _try_cholesky(s + tau * eye)
            if lower is not None:
                log_det = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
                return SpdFactor(lower=lower, log_det=log_det, jitter_used=float(tau))
        tau *= 10.0
    raise NotPositiveDefiniteError(
        f"matrix of size {p} is not positive definite even with jitter"
    )


def spd_inverse(s, base_jitter: float = DEFAULT_JITTER) -> np.ndarray:
    """Invert a symmetric positive definite matrix through its Cholesky factor."""
    return chol_spd(s, base_jitter).inverse()


def gram(g) -> np.ndarray:
    """Form G G^T, symmetrized so the result is exactly symmetric."""
    g = _as_matrix(g, "G")
    prod = g @ g.T
    return 0.5 * (prod + prod.T)
