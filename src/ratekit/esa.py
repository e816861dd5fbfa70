"""Project a logit posterior onto the input features.

The projection is the per-feature sample covariance between a feature column
and the latent outputs: mu = X^T C f / (n-1) with C the centering matrix.
Because the logit posterior is Gaussian with covariance H diag(v_c) H^T for
class c, the projected effect sizes are Gaussian too, with covariance factor
G_c = A diag(sqrt(v_c)) for the one p-by-k projection A = X^T C H / (n-1)
that every class shares. An ordinary least-squares baseline is kept around
for comparison; unlike the covariance projection it becomes unstable when
features are nearly collinear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ratekit.bnn import LogitPosterior
from ratekit.core import default_names, write_csv

__all__ = [
    "EffectSizePosterior",
    "RankDeficientWarning",
    "covariance_esa",
    "covariance_effect_sizes",
    "ols_effect_size",
    "effect_sizes_to_csv",
]


#: Rows of the projection that ``effect_sizes_to_csv`` scales at once.
_CSV_ROWS = 256


class RankDeficientWarning(UserWarning):
    """The least-squares design was rank deficient; the minimum-norm solution
    was returned."""


@dataclass(frozen=True)
class EffectSizePosterior:
    """Gaussian over projected effect sizes, one block per output class.

    ``mu[c]`` is the length-p posterior mean for class c. Its covariance is
    Omega = G G^T with the p-by-k factor ``factor(c)`` = A diag(scales[c]),
    where the ``projection`` A is shared by every class. ``factor`` copies
    p x k values; ``rate.build_precision`` forms G only when k >= p and
    otherwise reads A and ``scales[c]`` directly.
    """

    mu: np.ndarray  # (c, p)
    projection: np.ndarray  # (p, k)
    scales: np.ndarray  # (c, k)
    n_used: int
    feature_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return self.mu.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]

    def factor(self, class_index: int) -> np.ndarray:
        """The p-by-k covariance factor G of class ``class_index``."""
        return self.projection * self.scales[class_index]


def covariance_effect_sizes(x, f) -> np.ndarray:
    """Sample covariance of each column of x with each column of f.

    ``f`` is a length-n vector or an (n, m) matrix; the result is X^T C f /
    (n-1) of shape (p,) or (p, m). Centering f instead of x is the same in
    exact arithmetic and copies n*m values instead of the n*p data.
    """
    return _centered_cross(_checked_x(x), f)


def _checked_x(x) -> np.ndarray:
    """``x`` as a float64 array, refused unless it is 2-dimensional, has at
    least 2 rows and is finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-dimensional, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations for a sample covariance")
    # min and max reach nan and +-inf without an n x p temporary
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"x contains non-finite entries; row {i}, column {j} is {float(x[i, j])}")
    return x


def _centered_cross(x: np.ndarray, f) -> np.ndarray:
    """``covariance_effect_sizes`` of an ``x`` that ``_checked_x`` has passed."""
    f = np.asarray(f, dtype=np.float64)
    return x.T @ (f - f.mean(axis=0)) / (x.shape[0] - 1)


def covariance_esa(x, lp: LogitPosterior, feature_names=None) -> EffectSizePosterior:
    """Project the logit posterior onto the features of x.

    Both the mean and the shared projection go through the same centered
    cross-product, so any constant shift of the logits (the trained bias in
    particular) drops out exactly.
    """
    x = _checked_x(x)
    n, p = x.shape
    if n != lp.n:
        raise ValueError(f"x has {n} rows but the logit posterior covers {lp.n}")
    names = default_names(p, feature_names)
    return EffectSizePosterior(
        mu=_centered_cross(x, lp.mean).T,
        projection=_centered_cross(x, lp.hidden),
        scales=np.sqrt(lp.variances).T,
        n_used=n,
        feature_names=names,
    )


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


def effect_sizes_to_csv(esa: EffectSizePosterior, path) -> None:
    """Write (feature, class, mu, omega_diag) rows."""
    rows = []
    for c in range(esa.n_classes):
        # row by row this is np.sum(esa.factor(c) ** 2, axis=1), the same
        # bits, without that p x k temporary
        omega_diag = np.concatenate([
            np.sum((esa.projection[i : i + _CSV_ROWS] * esa.scales[c]) ** 2, axis=1)
            for i in range(0, esa.n_features, _CSV_ROWS)
        ])
        rows += [(name, c, mu, omega) for name, mu, omega in
                 zip(esa.feature_names, esa.mu[c].tolist(), omega_diag.tolist())]
    write_csv(path, ["feature", "class", "mu", "omega_diag"], rows)
