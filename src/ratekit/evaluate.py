"""Scoring harness: ROC/AUC for importance rankings, shuffle-degradation
curves and the feature rankings they compare, the collinearity study of the
effect-size estimators, and the marginal correlation / t-test baselines.

The Student-t tail probability is evaluated in-repo through the regularized
incomplete beta function (continued fraction), checked against a quadrature
oracle in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit import bnn, esa, simgen
from ratekit.bnn import Network, _check_labelled
from ratekit.core import first_non_finite, permutation, write_csv

__all__ = [
    "RocCurve",
    "DegradationCurve",
    "CollinearityStudy",
    "RANKINGS",
    "roc_auc",
    "rank_features",
    "shuffle_degradation",
    "check_degradation_settings",
    "collinearity_study",
    "marginal_correlation",
    "ttest_stats",
    "student_t_sf_two_sided",
    "roc_curve_to_csv",
    "degradation_curve_to_csv",
]

#: Undecided rows of shuffle-degradation passes that wait before the float64
#: route classifies them together. One batch per curve would do at paper
#: scale (about 1% of 400 rows in each of 101 passes), but its float64
#: activations would double the stage's peak memory; a pass's own undecided
#: rows always go in one batch.
FALLBACK_ROWS = 64

#: The default degradation curve of ``shuffle_degradation`` and the CLI:
#: 0, 0.05, ..., 0.5 of the features shuffled, ``DEGRADATION_REPEATS`` times each.
DEGRADATION_FRACTIONS = tuple(np.round(np.arange(0.0, 0.5001, 0.05), 10).tolist())
DEGRADATION_REPEATS = 10

#: The feature orders ``rank_features`` makes for a degradation curve.
RANKINGS = ("rate", "random")


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over score thresholds; first point is (0, 0)."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class DegradationCurve:
    """Test accuracy as growing top-ranked feature sets are shuffled."""

    fractions: np.ndarray
    mean_accuracy: np.ndarray
    std_accuracy: np.ndarray
    repeats: int


def roc_auc(scores, mask) -> RocCurve:
    """ROC of scores against a boolean ground-truth mask.

    Equal scores collapse into a single threshold, so the curve (and its
    trapezoidal area) is invariant under strictly monotone transforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if scores.shape != mask.shape or scores.ndim != 1:
        raise ValueError("scores and mask must be 1-d arrays of equal length")
    if (at := first_non_finite(scores)) is not None:
        raise ValueError(f"scores must be finite; scores[{at[0]}] is {float(scores[at])!r}")
    n_pos = int(mask.sum())
    n_neg = int((~mask).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("mask must contain at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = mask[order].astype(np.float64)
    # indices where the threshold changes (last element of each tie block)
    distinct = np.nonzero(np.r_[np.diff(sorted_scores) != 0, True])[0]
    tp = np.cumsum(sorted_pos)[distinct]
    fp = (distinct + 1) - tp
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    thresholds = np.r_[np.inf, sorted_scores[distinct]]
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def rank_features(ranking: str, scores, seed: int = 0) -> np.ndarray:
    """The feature indices in the order ``shuffle_degradation`` shuffles them:
    by decreasing score, ties in feature order, for ``"rate"``; that of
    ``default_rng(seed).permutation(p)``, whatever the scores, for ``"random"``."""
    if ranking == "rate":
        return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    if ranking == "random":
        return np.random.default_rng(seed).permutation(len(scores))
    choices = ", ".join(map(repr, RANKINGS))
    raise ValueError(f"ranking must be one of {choices}, got {ranking!r}")


def check_degradation_settings(fractions, repeats: int) -> np.ndarray:
    """``fractions`` as a float64 array, once it is checked to be a non-empty
    list of values in [0, 1] and ``repeats`` to be at least 1."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("fractions must be a non-empty list of values in [0, 1]")
    for frac in fractions.tolist():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"fraction {frac!r} is not in [0, 1]")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return fractions


#: Unit roundoff of IEEE float32 (round to nearest).
_U32 = 2.0**-24


class _Float32Classifier:
    """Counts the rows of ``x`` that the network classifies as their labels
    ``y``, over passes that each permute some of the input columns: each
    pass runs in float32, and the rows whose class a per-row error bound
    leaves open run through the float64 route (``bnn._predict_classes``).

    The hidden stack and the output mean run in float32, each layer's bias
    folded into its product as one more weight row against a column of ones.
    With the output layer as layer L+1 (weights m, bias b), w̄_{L+1} = I and
    w̄_{l-1} = |W_l| w̄_l, the componentwise bound
    |fl(AB) - AB| <= γ_n |A||B|, γ_n = n u / (1 - n u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §3.5), carried through the
    1-Lipschitz ReLU gives, per row and class,

        |f̂ - f| <= E = 2 Σ_l γ_{k_{l-1}+3} (|â_{l-1}| w̄_{l-1} + |c_l| w̄_l)
                       + 1e-12 (1 + |b|),

    with â_0 the float32 input and â_l the float32 activations. The factor
    2 covers the bound's own float32 arithmetic and the float64 route's
    rounding; the floor covers the float64 bias add. (γ_n assumes no
    underflow: a float32 result below 1.2e-38 is off by up to 2^-149
    absolute, which the floor covers while the entries of w̄ stay below
    about 1e25.) A row is decided when the bound fixes its class:
    f̂_top - f̂_j > E_top + E_j for every j != top, a sigmoid net counting
    as two classes whose first has the exact logit 0; a non-finite f̂
    (float32 overflow, or an input beyond float32's range) never decides
    one. A decided row gets the float64 route's class.

    Each pass adds its hits to its cells of ``correct``, one count per
    (fraction, repeat). The undecided rows (about 1% on a trained network)
    are rebuilt from the float64 input and classified in batches gathered
    across passes, each hit going to its pass's cells: a batch goes once
    ``FALLBACK_ROWS`` rows wait, and the last at ``settle()``. So the
    counts are those of all-float64 passes, except where an undecided
    row's float64 logit, computed in its batch rather than with the rest
    of its pass, rounds differently in its last bits (BLAS blocks the rows
    differently) and sits that close to the decision boundary.
    """

    def __init__(self, net: Network, x: np.ndarray, y: np.ndarray, cells=(1, 1)):
        n, p = x.shape
        layers = [*zip(net.hidden_weights, net.hidden_biases), (net.m, net.b)]
        self._weights = []
        for w, c in layers:
            w32 = np.empty((w.shape[0] + 1, w.shape[1]), np.float32)
            w32[:-1], w32[-1] = w, c
            self._weights.append(w32)
        # layer l's input with a trailing column of ones, which the ReLU keeps;
        # each product writes the columns before it
        self._inputs = [np.ones((n, w.shape[0]), np.float32) for w in self._weights]
        logits = np.empty((n, net.config.n_classes), np.float32)
        self._outputs = [a[:, :-1] for a in self._inputs[1:]] + [logits]
        self._mask = np.empty((n, max(net.config.hidden_sizes) + 1), bool)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan decide no row
            self._inputs[0][:, :p] = x
            # layer l's term of E is |â_{l-1}, 1| (2 γ_{k_{l-1}+3} |W_l; c_l| w̄_l);
            # the +3 covers rounding the input and [W_l; c_l] to float32 and
            # the bias as one more term of the sum
            wbar = np.eye(net.config.n_classes)
            scaled = []
            for w, c in reversed(layers):
                gamma = (w.shape[0] + 3) * _U32 / (1.0 - (w.shape[0] + 3) * _U32)
                # |W_l| w̄_l in row blocks, so no copy of |W_l| is made
                wbar_c = np.abs(c) @ wbar
                wbar = np.vstack([np.abs(w[i : i + 64]) @ wbar for i in range(0, len(w), 64)])
                scaled.append((2.0 * gamma * np.vstack([wbar, wbar_c])).astype(np.float32))
            self._floor = (1e-12 * (1.0 + np.abs(net.b))).astype(np.float32)
        self._scaled = scaled[::-1]
        #: The (n, p) float32 input rows, a view into the first layer's input.
        self.inputs = self._inputs[0][:, :p]
        self._net, self._x, self._y = net, x, y
        self.correct = np.zeros(cells, np.intp)  # complete once settle() has run
        self._pending = []  # per pass with undecided rows: (cell, row indices, float64 rows)

    def logits_and_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The float32 posterior-mean logits f̂ of ``inputs`` and their bounds
        E, both (n, c); f̂ is a buffer that the next call overwrites."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self._floor + np.abs(self._inputs[0]) @ self._scaled[0]
            for l, (w, z) in enumerate(zip(self._weights, self._outputs)):
                np.matmul(self._inputs[l], w, out=z)
                if l + 1 < len(self._weights):
                    # ReLU as a * (a > 0), not max(a, 0): a pre-activation that
                    # overflowed to -inf becomes nan, which reaches f̂, where
                    # max would leave a finite activation E does not cover
                    a = self._inputs[l + 1]
                    mask = self._mask[:, : a.shape[1]]
                    np.greater(a, 0, out=mask)
                    np.multiply(a, mask, out=a)
                    bound += a @ self._scaled[l + 1]
        return self._outputs[-1], bound

    def predict_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The class of each row of ``inputs``, as the float64 route gives
        it, and the indices of the rows the bound leaves undecided, whose
        entries hold the float32 guess."""
        f, bound = self.logits_and_bounds()
        if f.shape[1] == 1:
            f = np.hstack([np.zeros_like(f), f])
            bound = np.hstack([np.zeros_like(bound), bound])
        pred = f.argmax(axis=1)
        rows = np.arange(f.shape[0])
        with np.errstate(invalid="ignore"):
            upper = f + bound
            upper[rows, pred] = -np.inf
            decided = f[rows, pred] - bound[rows, pred] > upper.max(axis=1)
        decided &= np.isfinite(f).all(axis=1)
        return pred, np.flatnonzero(~decided)

    def add_pass(self, top: np.ndarray, perms: np.ndarray, cell) -> None:
        """Add to ``correct[cell]`` the rows classified right with column
        ``top[j]`` of ``x`` replaced by ``x[perms[j], top[j]]``."""
        x32 = self.inputs
        unshuffled = x32[:, top]
        x32[:, top] = x32[perms, top[:, None]].T
        pred, undecided = self.predict_classes()
        x32[:, top] = unshuffled
        hit = pred == self._y
        hit[undecided] = False
        self.correct[cell] += np.count_nonzero(hit)
        if undecided.size:
            rows = self._x[undecided]
            rows[:, top] = self._x[perms[:, undecided], top[:, None]].T
            self._pending.append((cell, undecided, rows))
            if sum(len(i) for _, i, _ in self._pending) >= FALLBACK_ROWS:
                self.settle()

    def settle(self) -> None:
        """Classify the pending undecided rows in one float64 batch."""
        if not self._pending:
            return
        cells, idx, rows = zip(*self._pending)
        right = bnn._predict_classes(self._net, np.vstack(rows)) == self._y[np.concatenate(idx)]
        for cell, hits in zip(cells, np.split(right, np.cumsum([len(i) for i in idx[:-1]]))):
            self.correct[cell] += np.count_nonzero(hits)
        self._pending.clear()


def shuffle_degradation(
    net: Network,
    test,
    ranking,
    fractions=DEGRADATION_FRACTIONS,
    repeats: int = DEGRADATION_REPEATS,
    seed: int = 0,
) -> DegradationCurve:
    """Accuracy drop as the top-ranked feature columns are permuted.

    For each fraction, the rows of each of the top ceil(fraction * p) ranked
    columns are permuted independently (de-correlating those features from
    the labels), the test accuracy is recomputed, and the whole procedure is
    repeated ``repeats`` times with independent permutations. ``fractions``
    must be non-empty and lie in [0, 1], and the test labels must be ones
    the network outputs (0/1 for the sigmoid, [0, c) for softmax). Each pass
    runs in float32, and the rows its error bound leaves undecided run in
    float64 (``_Float32Classifier``).
    """
    if net.config.link == "identity":
        raise ValueError("shuffle degradation requires a classification network")
    # finite inputs, and the labels the network can output, as training
    # requires them
    x, y = _check_labelled(net, test)
    y = y.astype(int)
    n, p = x.shape
    if n == 0:
        raise ValueError("test set is empty")
    ranking = permutation(ranking, p, "ranking")
    fractions = check_degradation_settings(fractions, repeats)

    classifier = _Float32Classifier(net, x, y, (len(fractions), repeats))
    n_cols = [int(math.ceil(frac * p)) for frac in fractions]
    # the unshuffled input draws no permutation, so its accuracy is the same
    # in every repeat: one pass serves them all
    unshuffled = [i for i, cols in enumerate(n_cols) if cols == 0]
    if unshuffled:
        classifier.add_pass(ranking[:0], np.empty((0, n), np.intp), (unshuffled, slice(None)))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(child)
        for i, cols in enumerate(n_cols):
            if cols:
                # row j is the permutation of column ranking[j]: the same
                # arrays, and the same generator state after, as cols
                # rng.permutation(n)
                perms = rng.permuted(np.broadcast_to(np.arange(n), (cols, n)), axis=1)
                classifier.add_pass(ranking[:cols], perms, (i, r))
    classifier.settle()
    acc = classifier.correct / n
    if repeats > 1:
        std = acc.std(axis=1, ddof=1)
        # identical repeats (e.g. fraction 0) must report exactly zero spread
        std[acc.max(axis=1) == acc.min(axis=1)] = 0.0
    else:
        std = np.zeros(len(fractions))
    return DegradationCurve(
        fractions=fractions,
        mean_accuracy=acc.mean(axis=1),
        std_accuracy=std,
        repeats=repeats,
    )


@dataclass(frozen=True)
class CollinearityStudy:
    """The settings of ``collinearity_study``: ``reps`` replicates of
    ``simgen.collinear_regression(n, rho)``, seeded from ``seed``. Settings that
    a replicate would refuse, or that give no standard deviation, raise ``ValueError``."""

    rho: float = 0.999
    n: int = 5000
    reps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError(f"reps must be >= 2 to estimate a standard deviation, got {self.reps}")
        if self.n < 3:
            raise ValueError(
                f"n must be >= 3 for least squares to fit 3 coefficients, got {self.n}"
            )
        if not abs(self.rho) < 1:
            raise ValueError(f"|rho| must be < 1, got {self.rho}")


def collinearity_study(study: CollinearityStudy) -> np.ndarray:
    """The (reps, 4) effect sizes of the study's replicates: the covariance
    estimates of the two features, then the least-squares ones. Replicate r
    draws its data with seed r of ``SeedSequence(seed).generate_state(reps)``."""
    seeds = np.random.SeedSequence(study.seed).generate_state(study.reps)
    estimates = np.empty((study.reps, 4))
    for r, seed in enumerate(seeds.tolist()):
        ds = simgen.collinear_regression(study.n, study.rho, seed=seed)
        estimates[r, :2] = esa.covariance_effect_sizes(ds.X, ds.y)
        estimates[r, 2:] = esa.ols_effect_size(ds.X, ds.y)
    return estimates


def marginal_correlation(x, y) -> np.ndarray:
    """Pearson correlation of every feature column with y; constant columns,
    or every column when y is constant, score 0 (with a warning)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 observations")
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc**2, axis=0))
    sy = math.sqrt(float(np.sum(yc**2)))
    denom = sx * sy
    bad = denom == 0
    if sy == 0:
        warnings.warn("zero-variance response y; every correlation set to 0", stacklevel=2)
    elif np.any(bad):
        warnings.warn("zero-variance column(s) encountered; correlation set to 0", stacklevel=2)
    return np.divide(xc.T @ yc, denom, out=np.zeros(x.shape[1]), where=~bad)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    max_iter = 300
    eps = 1e-15
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and then the odd coefficient of step m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc_regularized(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for T Student-t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    return _betainc_regularized(0.5 * df, 0.5, df / (df + t * t))


def ttest_stats(x, y):
    """Two-sided marginal t-statistics and p-values for each feature column.

    T_j = rho_j sqrt((n-2)/(1-rho_j^2)) with n-2 degrees of freedom; columns
    perfectly correlated with y get t = +/-inf and p = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n <= 2:
        raise ValueError("need more than 2 observations")
    rho = marginal_correlation(x, y)
    df = n - 2
    one_minus = 1.0 - rho**2
    perfect = one_minus <= 0.0
    t = rho * np.sqrt(df / np.where(perfect, 1.0, one_minus))
    t[perfect] = np.sign(rho[perfect]) * np.inf
    pvals = np.array([student_t_sf_two_sided(abs(tj), df) for tj in t])
    return t, pvals


def roc_curve_to_csv(curve: RocCurve, path) -> None:
    rows = np.column_stack((curve.thresholds, curve.fpr, curve.tpr))
    write_csv(path, ["threshold", "fpr", "tpr"], rows.astype(float).tolist())


def degradation_curve_to_csv(curve: DegradationCurve, path) -> None:
    rows = np.column_stack((curve.fractions, curve.mean_accuracy, curve.std_accuracy))
    write_csv(path, ["fraction", "mean_accuracy", "std_accuracy"], rows.astype(float).tolist())
