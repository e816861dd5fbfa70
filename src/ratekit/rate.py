"""Closed-form relative-centrality scores over a Gaussian effect-size posterior.

For an index set J (a single variable or a named group of m features), the
score is the KL divergence between the marginal posterior of the remaining
effects and their conditional posterior given the J-effects pinned to zero.
With Lambda = Omega^{-1}, that divergence depends only on the m x m blocks
Omega_JJ and Lambda_JJ:

    kld_J = 0.5 [ sum_i (a_i - 1 - log a_i) + mu_J^T (Lambda_JJ - Omega_JJ^{-1}) mu_J ],

where the a_i >= 1 are the eigenvalues of Omega_JJ Lambda_JJ, and
0.5 sum_i log a_i is the mutual information between the J-effects and the
rest. One function evaluates this identity for single features (m = 1,
batched over all p of them) and for groups alike, so once Lambda is known a
group costs O(m^3). A naive route built literally from the (p-1) x (p-1)
submatrices (one dense factorization per variable, O(p^4) total) is kept as
the reference the identity is tested against.

The effect-size posterior has a p x k factor G with Omega = G G^T, and only
m x m blocks of Omega and Lambda are ever read, so ``build_precision`` picks
its storage from the factor's shape:

* k >= p: Omega = G G^T is formed and inverted densely (two p x p arrays,
  no larger than G itself);
* k < p: Omega is singular and gets the jitter tau = base_jitter ||G||_F^2 / p.
  With C C^T = tau I_k + G^T G and W = G C^{-T}, Woodbury gives
  Omega_JJ = G_J G_J^T + tau I and Lambda_JJ = (I - W_J W_J^T) / tau, and
  log|Omega| = (p - k) log tau + 2 sum log diag C. Only G and W (p x k) are
  kept, and building them costs O(p k^2).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit.core import (
    DEFAULT_JITTER,
    NotPositiveDefiniteError,
    chol_jittered,
    chol_spd,
    gram,
)
from ratekit.esa import EffectSizePosterior

__all__ = [
    "PrecisionModel",
    "GroupMap",
    "ImportanceItem",
    "ImportanceReport",
    "InconsistentPrecisionError",
    "build_precision",
    "precision_from_covariance",
    "kld_variable_naive",
    "kld_variable_fast",
    "rate_scores",
    "kld_group",
    "group_rate",
    "mutual_info",
    "report_to_json",
    "report_to_csv",
]


class InconsistentPrecisionError(ArithmeticError):
    """An eigenvalue of Omega_JJ Lambda_JJ below 1 (omega_j * lambda_j < 1 for
    a single variable) signals a covariance/precision pair that is not an
    inverse pair (impossible in exact arithmetic)."""


@dataclass
class PrecisionModel:
    """Jittered effect-size covariance Omega, its inverse Lambda, and the
    posterior mean.

    Row j of ``omega_rows`` and ``lam_rows`` belongs to variable j, in one of
    two forms (see the module docstring), told apart by their width.
    ``build_precision`` uses the factor form when the effect-size factor is
    p x k with k < p, and the dense form otherwise, as does
    ``precision_from_covariance``:

    * dense, p x p: ``omega_rows`` is Omega and ``lam_rows`` is Lambda;
    * factor, p x k with k < p: ``omega_rows`` is G and ``lam_rows`` is W, so
      Omega = G G^T + jitter I and Lambda = (I - W W^T) / jitter.

    Scores read the two matrices only through ``omega_block`` and
    ``lam_block``, so the naive and fast routes see identical inputs.
    """

    mu: np.ndarray  # (p,)
    omega_rows: np.ndarray  # (p, p) Omega, or (p, k) G
    lam_rows: np.ndarray  # (p, p) Lambda, or (p, k) W
    jitter: float
    log_det_omega: float
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        p, width = self.omega_rows.shape
        if p != self.p or self.lam_rows.shape != (p, width) or width > p:
            raise ValueError(
                f"omega_rows {self.omega_rows.shape} and lam_rows {self.lam_rows.shape} "
                f"must share one shape (p, k) with k <= p = {self.p}"
            )

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def factored(self) -> bool:
        return self.omega_rows.shape[1] < self.p

    def omega_block(self, blocks: np.ndarray) -> np.ndarray:
        """Omega_JJ for each row J of the (b, m) index array ``blocks``."""
        if not self.factored:
            return self.omega_rows[blocks[:, :, None], blocks[:, None, :]]
        g = self.omega_rows[blocks]
        return g @ g.mT + self.jitter * np.eye(blocks.shape[1])

    def lam_block(self, blocks: np.ndarray) -> np.ndarray:
        """Lambda_JJ for each row J of the (b, m) index array ``blocks``."""
        if not self.factored:
            return self.lam_rows[blocks[:, :, None], blocks[:, None, :]]
        w = self.lam_rows[blocks]
        return (np.eye(blocks.shape[1]) - w @ w.mT) / self.jitter

    @property
    def omega(self) -> np.ndarray:
        """Dense p x p Omega, built afresh on every access."""
        return self.omega_block(np.arange(self.p)[None, :])[0]

    @property
    def lam(self) -> np.ndarray:
        """Dense p x p Lambda, built afresh on every access."""
        return self.lam_block(np.arange(self.p)[None, :])[0]


@dataclass(frozen=True)
class GroupMap:
    """Named, non-empty index sets over the p features."""

    groups: dict[str, tuple[int, ...]]

    @staticmethod
    def from_indices(groups: dict, p: int) -> "GroupMap":
        clean: dict[str, tuple[int, ...]] = {}
        for name, idx in groups.items():
            members = tuple(sorted(set(int(j) for j in idx)))
            if not members:
                raise ValueError(f"group {name!r} is empty")
            if members[0] < 0 or members[-1] >= p:
                raise ValueError(f"group {name!r} has indices outside [0, {p})")
            if len(members) >= p:
                raise ValueError(f"group {name!r} has an empty complement")
            clean[name] = members
        return GroupMap(groups=clean)

    @staticmethod
    def from_names(groups: dict, feature_names) -> "GroupMap":
        """Resolve feature names to indices; unknown names are hard errors."""
        positions = {name: j for j, name in enumerate(feature_names)}
        resolved = {}
        for gname, members in groups.items():
            idx = []
            for feat in members:
                if feat not in positions:
                    raise ValueError(f"group {gname!r} names unknown feature {feat!r}")
                idx.append(positions[feat])
            resolved[gname] = idx
        return GroupMap.from_indices(resolved, len(positions))


@dataclass(frozen=True)
class ImportanceItem:
    name: str
    kld: float
    rate: float
    sign: int
    significant: bool
    mi: float | None = None
    members: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ImportanceReport:
    items: tuple[ImportanceItem, ...]
    threshold: float
    degenerate: bool = False

    def ranked(self) -> list[ImportanceItem]:
        return sorted(self.items, key=lambda it: it.rate, reverse=True)

    def rates(self) -> np.ndarray:
        return np.array([it.rate for it in self.items])

    def klds(self) -> np.ndarray:
        return np.array([it.kld for it in self.items])


def _checked_model(mu, omega_rows, lam_rows, jitter, log_det, feature_names) -> PrecisionModel:
    p = mu.shape[0]
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{j + 1}" for j in range(p)
    )
    if len(names) != p:
        raise ValueError("feature_names length does not match mu")
    model = PrecisionModel(
        mu=mu,
        omega_rows=omega_rows,
        lam_rows=lam_rows,
        jitter=jitter,
        log_det_omega=log_det,
        feature_names=names,
    )
    diagonal = np.arange(p)[:, None]
    if np.any(model.omega_block(diagonal) <= 0) or np.any(model.lam_block(diagonal) <= 0):
        raise InconsistentPrecisionError("covariance or precision has a nonpositive diagonal")
    return model


def precision_from_covariance(
    mu, omega, base_jitter: float = DEFAULT_JITTER, feature_names=None
) -> PrecisionModel:
    """Build the dense jittered covariance/precision pair from raw moments."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    p = mu.shape[0]
    if p < 2:
        raise ValueError("need at least 2 variables")
    factor = chol_spd(omega, base_jitter)
    omega_t = np.asarray(omega, dtype=np.float64)
    omega_t = 0.5 * (omega_t + omega_t.T) + factor.jitter_used * np.eye(p)
    return _checked_model(
        mu, omega_t, factor.inverse(), factor.jitter_used, factor.log_det, feature_names
    )


def build_precision(
    esa: EffectSizePosterior, base_jitter: float = DEFAULT_JITTER, class_index: int = 0
) -> PrecisionModel:
    """Precision model of Omega = G G^T (+ jitter if singular).

    With G of shape p x k, k >= p builds the dense pair; k < p keeps G and
    the Woodbury factor W instead (see the module docstring), with the jitter
    ``chol_spd`` would start from, base_jitter * ||G||_F^2 / p, escalated x10
    the same way if the k x k factorization fails.
    """
    mu = esa.mu[class_index]
    g = np.asarray(esa.factors[class_index], dtype=np.float64)
    p, k = g.shape
    if k >= p:
        return precision_from_covariance(
            mu, gram(g), base_jitter=base_jitter, feature_names=esa.feature_names
        )
    gtg = gram(g.T)
    tau = base_jitter * np.trace(gtg) / p
    if not tau > 0:
        raise NotPositiveDefiniteError(
            f"Omega = G G^T ({p} x {p}, rank <= {k}) is singular and the jitter is {tau}"
        )
    factor = chol_jittered(gtg, tau)
    tau = factor.jitter_used
    w = np.linalg.solve(factor.lower, g.T).T
    log_det = factor.log_det + (p - k) * float(np.log(tau))
    return _checked_model(
        np.asarray(mu, dtype=np.float64), g, w, tau, log_det, esa.feature_names
    )


def _check_index(pm: PrecisionModel, j: int) -> None:
    if not 0 <= j < pm.p:
        raise IndexError(f"variable index {j} out of range [0, {pm.p})")


def kld_variable_naive(pm: PrecisionModel, j: int) -> float:
    """Centrality of variable j built literally from submatrices.

    0.5 [ tr(Omega_-j Lambda_-j) - log|Omega_-j Lambda_-j| - (p-1)
          + delta_j mu_j^2 ],   delta_j = lambda_-j^T Lambda_-j^{-1} lambda_-j,
    the effect of variable j being conditioned to zero. Builds the dense
    Omega and Lambda, so it is the reference, not a route for large p.
    """
    if pm.p < 2:
        raise ValueError("need at least 2 variables")
    _check_index(pm, j)
    return _kld_naive(pm.mu, pm.omega, pm.lam, j)


def _kld_naive(mu: np.ndarray, omega: np.ndarray, lam: np.ndarray, j: int) -> float:
    p = mu.shape[0]
    keep = np.arange(p) != j
    omega_mj = omega[np.ix_(keep, keep)]
    lam_mj = lam[np.ix_(keep, keep)]
    lam_off = lam[keep, j]

    trace = float(np.sum(omega_mj * lam_mj))  # both symmetric
    f_omega = chol_spd(omega_mj, 0.0)
    f_lam = chol_spd(lam_mj, 0.0)
    log_det = f_omega.log_det + f_lam.log_det
    delta = float(lam_off @ f_lam.solve(lam_off))
    kld = 0.5 * (trace - log_det - (p - 1) + delta * mu[j] ** 2)
    return max(kld, 0.0)


def _block_kl(pm: PrecisionModel, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL divergence and mutual information for a batch of index blocks.

    ``blocks`` is a (b, m) integer array whose rows are the index sets J;
    returns the two (b,) arrays described in the module docstring. Only the
    m x m blocks of Omega and Lambda are read. Exactly, every a_i >= 1; a
    smaller one means Omega and Lambda are not an inverse pair.
    """
    omega_jj = pm.omega_block(blocks)
    lam_jj = pm.lam_block(blocks)
    # the a_i are the eigenvalues of the symmetric L^T Lambda_JJ L, L L^T = Omega_JJ
    lower = np.linalg.cholesky(omega_jj)
    a = np.linalg.eigvalsh(lower.mT @ lam_jj @ lower)
    smallest = a.min(axis=1)
    worst = int(np.argmin(smallest))
    if smallest[worst] < 1.0 - 1e-9:
        raise InconsistentPrecisionError(
            f"smallest eigenvalue of Omega_JJ Lambda_JJ = {smallest[worst]:.12f} < 1 "
            f"at indices {blocks[worst].tolist()}; covariance and precision are not "
            "an inverse pair"
        )
    a = np.maximum(a, 1.0)
    mu_j = pm.mu[blocks]
    delta = lam_jj - np.linalg.inv(omega_jj)
    quad = np.maximum(np.einsum("bi,bij,bj->b", mu_j, delta, mu_j), 0.0)
    kld = 0.5 * (np.sum(a - 1.0 - np.log(a), axis=1) + quad)
    return np.maximum(kld, 0.0), 0.5 * np.sum(np.log(a), axis=1)


def kld_variable_fast(pm: PrecisionModel, j: int) -> float:
    """Same divergence via the block identity with J = {j}: O(1) once Lambda
    is known, 0.5 [ a - 1 - log a + (lambda_j - 1/omega_j) mu_j^2 ] with
    a = omega_j lambda_j."""
    _check_index(pm, j)
    return float(_block_kl(pm, np.array([[j]]))[0][0])


def mutual_info(pm: PrecisionModel, j: int) -> float:
    """Gaussian mutual information between effect j and the remaining effects,
    0.5 log(omega_j |Omega_-j| / |Omega|) = 0.5 log(omega_j lambda_j)."""
    _check_index(pm, j)
    return float(_block_kl(pm, np.array([[j]]))[1][0])


def _normalize(names, klds, signs, mis, members=None):
    klds = np.asarray(klds, dtype=np.float64)
    total = float(klds.sum())
    n_items = len(klds)
    threshold = 1.0 / n_items
    degenerate = total <= 0.0
    rates = np.full(n_items, threshold) if degenerate else klds / total
    items = []
    for i, name in enumerate(names):
        items.append(
            ImportanceItem(
                name=name,
                kld=float(klds[i]),
                rate=float(rates[i]),
                sign=int(signs[i]),
                significant=bool(rates[i] > threshold),
                mi=None if mis is None else float(mis[i]),
                members=None if members is None else tuple(members[i]),
            )
        )
    return ImportanceReport(items=tuple(items), threshold=threshold, degenerate=degenerate)


def rate_scores(pm: PrecisionModel, path: str = "fast") -> ImportanceReport:
    """Per-variable normalized centrality, plus sign and mutual information.

    ``path`` selects the naive or fast route; the two agree to round-off and
    the tests hold them to 1e-8 relative. If every divergence is zero the
    report is flagged degenerate and scores are uniform.
    """
    if path not in ("naive", "fast"):
        raise ValueError(f"unknown path: {path!r}")
    klds, mis = _block_kl(pm, np.arange(pm.p)[:, None])
    if path == "naive":
        omega, lam = pm.omega, pm.lam
        klds = [_kld_naive(pm.mu, omega, lam, j) for j in range(pm.p)]
    signs = np.sign(pm.mu).astype(int)
    return _normalize(pm.feature_names, klds, signs, mis)


def kld_group(pm: PrecisionModel, indices) -> float:
    """Centrality of an index set J: KL between the marginal posterior of the
    complement and its conditional given the J-effects pinned to zero.

    Evaluated from the m x m blocks Omega_JJ and Lambda_JJ alone (see the
    module docstring); it equals the submatrix form
    0.5 [ tr(Omega_-J Lambda_-J) - log|Omega_-J Lambda_-J| - (p-m)
          + mu_J^T Delta_J mu_J ],
    Delta_J = Lambda_{J,-J} Lambda_-J^{-1} Lambda_{-J,J}.
    """
    p = pm.p
    idx = np.asarray(sorted(set(int(j) for j in indices)), dtype=int)
    if idx.size == 0:
        raise ValueError("group is empty")
    if idx[0] < 0 or idx[-1] >= p:
        raise IndexError(f"group indices outside [0, {p})")
    if idx.size >= p:
        raise ValueError("group complement is empty")
    return float(_block_kl(pm, idx[None, :])[0][0])


def group_rate(pm: PrecisionModel, groups: GroupMap) -> ImportanceReport:
    """Normalized centrality over the provided groups only.

    Overlapping groups are allowed (with a warning); the group sign is the
    direction of the summed mean effect over its members.
    """
    if len(groups.groups) < 2:
        raise ValueError("need at least 2 groups to rank")
    seen: set[int] = set()
    overlapping = False
    for members in groups.groups.values():
        if seen.intersection(members):
            overlapping = True
        seen.update(members)
    if overlapping:
        warnings.warn("groups overlap; scores are normalized as provided", stacklevel=2)

    names = list(groups.groups)
    klds = [kld_group(pm, groups.groups[name]) for name in names]
    signs = [int(np.sign(np.sum(pm.mu[list(groups.groups[name])]))) for name in names]
    members = [
        tuple(pm.feature_names[j] for j in groups.groups[name]) for name in names
    ]
    return _normalize(names, klds, signs, mis=None, members=members)


def report_to_json(report: ImportanceReport) -> str:
    items = []
    for it in report.items:
        entry = {
            "name": it.name,
            "kld": it.kld,
            "rate": it.rate,
            "sign": it.sign,
            "mi": it.mi,
            "significant": it.significant,
        }
        if it.members is not None:
            entry["members"] = list(it.members)
        items.append(entry)
    doc = {
        "items": items,
        "threshold": report.threshold,
        "degenerate": report.degenerate,
    }
    return json.dumps(doc, sort_keys=True)


def report_to_csv(report: ImportanceReport, path) -> None:
    has_members = any(it.members is not None for it in report.items)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["name", "kld", "rate", "sign", "mi", "significant"]
        if has_members:
            header.append("members")
        writer.writerow(header)
        for it in report.items:
            row = [
                it.name,
                repr(it.kld),
                repr(it.rate),
                it.sign,
                "" if it.mi is None else repr(it.mi),
                int(it.significant),
            ]
            if has_members:
                row.append("" if it.members is None else ";".join(it.members))
            writer.writerow(row)
