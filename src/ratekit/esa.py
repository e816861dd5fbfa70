"""Project a logit posterior onto the input features.

The projection is the per-feature sample covariance between a feature column
and the latent outputs: mu = X^T C f / (n-1) with C the centering matrix.
Because the logit posterior is Gaussian with a low-rank covariance factor,
the projected effect sizes are Gaussian too, and their covariance factor is
just the same linear map applied to the logit factor. An ordinary
least-squares baseline is kept around for comparison; unlike the covariance
projection it becomes unstable when features are nearly collinear.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit.bnn import LogitPosterior
from ratekit.core import center_columns

__all__ = [
    "EffectSizePosterior",
    "RankDeficientWarning",
    "covariance_esa",
    "covariance_effect_sizes",
    "ols_effect_size",
    "effect_signs",
    "draw_effect_samples",
    "effect_sizes_to_csv",
]


class RankDeficientWarning(UserWarning):
    """The least-squares design was rank deficient; the minimum-norm solution
    was returned."""


@dataclass(frozen=True)
class EffectSizePosterior:
    """Gaussian over projected effect sizes, one block per output class.

    ``mu[c]`` is the length-p posterior mean for class c and ``factors[c]``
    the p-by-k factor G with covariance Omega = G G^T.
    """

    mu: np.ndarray  # (c, p)
    factors: np.ndarray  # (c, p, k)
    n_used: int
    feature_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return self.mu.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]


def _default_names(p: int) -> tuple[str, ...]:
    return tuple(f"f{j + 1}" for j in range(p))


def covariance_effect_sizes(x, f) -> np.ndarray:
    """Sample covariance of each column of x with the vector f."""
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations for a sample covariance")
    xc = center_columns(x)
    fc = f - f.mean()
    return xc.T @ fc / (n - 1)


def covariance_esa(x, lp: LogitPosterior, feature_names=None) -> EffectSizePosterior:
    """Project the logit posterior onto the features of x.

    Both the mean and the covariance factor go through the same centered
    cross-product, so any constant shift of the logits (the trained bias in
    particular) drops out exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-dimensional, got shape {x.shape}")
    n, p = x.shape
    if n != lp.n:
        raise ValueError(f"x has {n} rows but the logit posterior covers {lp.n}")
    if n < 2:
        raise ValueError("need at least 2 observations for a sample covariance")
    names = _default_names(p) if feature_names is None else tuple(feature_names)
    if len(names) != p:
        raise ValueError("feature_names length does not match x")

    xc = center_columns(x)
    mu = (xc.T @ lp.mean).T / (n - 1)  # (c, p)
    factors = np.stack([xc.T @ lp.factors[c] / (n - 1) for c in range(lp.n_classes)])
    return EffectSizePosterior(mu=mu, factors=factors, n_used=n, feature_names=names)


def ols_effect_size(x, y) -> np.ndarray:
    """Least-squares coefficients of y on x (intercept added internally).

    Rank-deficient designs produce the minimum-norm solution and a
    ``RankDeficientWarning``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        warnings.warn(
            f"design matrix is rank deficient (rank {rank} < {p + 1}); "
            "returning the minimum-norm solution",
            RankDeficientWarning,
            stacklevel=2,
        )
    return beta[1:]


def effect_signs(esa: EffectSizePosterior) -> np.ndarray:
    """Per-feature direction of effect: sign of the posterior mean, (c, p)."""
    return np.sign(esa.mu).astype(int)


def draw_effect_samples(
    esa: EffectSizePosterior, n_samples: int, seed: int = 0, class_index: int = 0
) -> np.ndarray:
    """Draw n_samples from N(mu, G G^T) for one output class."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    g = esa.factors[class_index]
    z = rng.standard_normal(size=(n_samples, g.shape[1]))
    return esa.mu[class_index] + z @ g.T


def effect_sizes_to_csv(esa: EffectSizePosterior, path) -> None:
    """Write (feature, class, mu, omega_diag) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "class", "mu", "omega_diag"])
        for c in range(esa.n_classes):
            omega_diag = np.sum(esa.factors[c] ** 2, axis=1)
            for j, name in enumerate(esa.feature_names):
                writer.writerow([name, c, repr(float(esa.mu[c, j])), repr(float(omega_diag[j]))])
