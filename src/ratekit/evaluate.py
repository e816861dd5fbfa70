"""Scoring harness: ROC/AUC for importance rankings, shuffle-degradation
curves, and the marginal correlation / t-test baselines.

A shuffle-degradation pass needs each test row's predicted class, not its
logits' last bits. So every pass runs the network in float32 and bounds, per
row, how far the float32 logits can be from the exact ones
(``bnn._Float32Classifier``, from the componentwise error bound of a matrix
product). A row whose class that bound fixes provably gets the class the
float64 route gives it; the rest (about 1% on a trained network) are rebuilt
from the float64 input and run through the float64 route in batches
gathered across passes: a batch goes once ``FALLBACK_ROWS`` rows wait, and
the last after the final pass. The curves are thus those of all-float64
passes, except where an undecided row's float64 logit, computed in its batch
rather than with the rest of its pass, rounds differently in its last bits
and sits that close to the decision boundary.

The Student-t tail probability is evaluated in-repo through the regularized
incomplete beta function (continued fraction), checked against a quadrature
oracle in the tests.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit import bnn
from ratekit.bnn import Network, _check_labelled, _Float32Classifier

__all__ = [
    "RocCurve",
    "DegradationCurve",
    "roc_auc",
    "shuffle_degradation",
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
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"scores must be finite; scores[{bad[0]}] is {float(scores[bad[0]])!r}")
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


def shuffle_degradation(
    net: Network,
    test,
    ranking,
    fractions=None,
    repeats: int = 10,
    seed: int = 0,
) -> DegradationCurve:
    """Accuracy drop as the top-ranked feature columns are permuted.

    For each fraction, the rows of each of the top ceil(fraction * p) ranked
    columns are permuted independently (de-correlating those features from
    the labels), the test accuracy is recomputed, and the whole procedure is
    repeated ``repeats`` times with independent permutations. ``fractions``
    must be non-empty and lie in [0, 1], and the test labels must be ones
    the network outputs (0/1 for the sigmoid, [0, c) for softmax). Each pass
    runs in float32; the rows its error bound cannot decide are recomputed
    in float64, batched across passes (see the module docstring).
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
    ranking = np.asarray(ranking, dtype=int)
    if sorted(ranking.tolist()) != list(range(p)):
        raise ValueError("ranking must be a permutation of the feature indices")
    if fractions is None:
        fractions = np.round(np.arange(0.0, 0.5001, 0.05), 10)
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("fractions must be a non-empty list of values in [0, 1]")
    for frac in fractions.tolist():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"fraction {frac!r} is not in [0, 1]")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    classifier = _Float32Classifier(net, x)
    x32 = classifier.inputs  # a pass shuffles its top columns in place
    # per pass, at i * repeats + r: the rows classified right, first those the
    # float32 bound decides, then those recomputed in float64
    correct = np.zeros(len(fractions) * repeats, np.intp)
    pending = []  # per pass with undecided rows: (pass, row indices, float64 rows)

    def settle():
        """Classify the pending undecided rows in one float64 batch."""
        passes, idx, rows = zip(*pending)
        right = bnn._predict_classes(net, np.vstack(rows)) == y[np.concatenate(idx)]
        np.add.at(correct, np.repeat(passes, [len(i) for i in idx]), right)
        pending.clear()

    def run_pass(at: int, perms: np.ndarray) -> None:
        """Classify x with column ranking[j] replaced by x[perms[j], ranking[j]]."""
        top = ranking[: perms.shape[0]]
        unshuffled = x32[:, top]
        x32[:, top] = x32[perms, top[:, None]].T
        pred, undecided = classifier.predict_classes()
        x32[:, top] = unshuffled
        hit = pred == y
        hit[undecided] = False
        correct[at] = np.count_nonzero(hit)
        if undecided.size:
            rows = x[undecided]
            rows[:, top] = x[perms[:, undecided], top[:, None]].T
            pending.append((at, undecided, rows))
            if sum(len(i) for _, i, _ in pending) >= FALLBACK_ROWS:
                settle()

    n_cols = [int(math.ceil(frac * p)) for frac in fractions]
    # the unshuffled input draws no permutation, so its accuracy is the same
    # in every repeat: one pass serves them all
    baseline = [
        i * repeats + r for i, cols in enumerate(n_cols) if cols == 0 for r in range(repeats)
    ]
    if baseline:
        run_pass(baseline[0], np.empty((0, n), dtype=np.intp))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(child)
        for i, cols in enumerate(n_cols):
            if cols:
                # row j is the permutation of column ranking[j]: the same
                # arrays, and the same generator state after, as cols
                # rng.permutation(n)
                perms = rng.permuted(np.broadcast_to(np.arange(n), (cols, n)), axis=1)
                run_pass(i * repeats + r, perms)
    if pending:
        settle()
    if baseline:
        correct[baseline] = correct[baseline[0]]
    acc = (correct / n).reshape(len(fractions), repeats)
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


def marginal_correlation(x, y) -> np.ndarray:
    """Pearson correlation of every feature column with y; constant columns
    score 0 (with a warning)."""
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
    if np.any(bad):
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "fpr", "tpr"])
        for thr, fp, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
            writer.writerow([repr(float(thr)), repr(float(fp)), repr(float(tp))])


def degradation_curve_to_csv(curve: DegradationCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fraction", "mean_accuracy", "std_accuracy"])
        for frac, mean, std in zip(curve.fractions, curve.mean_accuracy, curve.std_accuracy):
            writer.writerow([repr(float(frac)), repr(float(mean)), repr(float(std))])
