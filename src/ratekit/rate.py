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
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit.core import DEFAULT_JITTER, chol_spd, gram
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
    """Jittered effect-size covariance, its inverse, and the posterior mean.

    Every downstream score is computed against the same jittered ``omega``
    so the naive and fast routes see identical inputs.
    """

    mu: np.ndarray  # (p,)
    omega: np.ndarray  # (p, p), includes the jitter
    lam: np.ndarray  # (p, p) = omega^{-1}
    jitter: float
    log_det_omega: float
    feature_names: tuple[str, ...] = ()

    @property
    def p(self) -> int:
        return self.mu.shape[0]


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


def precision_from_covariance(
    mu, omega, base_jitter: float = DEFAULT_JITTER, feature_names=None
) -> PrecisionModel:
    """Build the jittered covariance/precision pair from raw moments."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    p = mu.shape[0]
    if p < 2:
        raise ValueError("need at least 2 variables")
    factor = chol_spd(omega, base_jitter)
    omega_t = np.asarray(omega, dtype=np.float64)
    omega_t = 0.5 * (omega_t + omega_t.T) + factor.jitter_used * np.eye(p)
    lam = factor.inverse()
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{j + 1}" for j in range(p)
    )
    if len(names) != p:
        raise ValueError("feature_names length does not match mu")
    model = PrecisionModel(
        mu=mu,
        omega=omega_t,
        lam=lam,
        jitter=factor.jitter_used,
        log_det_omega=factor.log_det,
        feature_names=names,
    )
    if np.any(np.diagonal(model.omega) <= 0) or np.any(np.diagonal(model.lam) <= 0):
        raise InconsistentPrecisionError("covariance or precision has a nonpositive diagonal")
    return model


def build_precision(
    esa: EffectSizePosterior, base_jitter: float = DEFAULT_JITTER, class_index: int = 0
) -> PrecisionModel:
    """Materialize Omega = G G^T (+ jitter if singular) and its inverse."""
    return precision_from_covariance(
        esa.mu[class_index],
        gram(esa.factors[class_index]),
        base_jitter=base_jitter,
        feature_names=esa.feature_names,
    )


def kld_variable_naive(pm: PrecisionModel, j: int) -> float:
    """Centrality of variable j built literally from submatrices.

    0.5 [ tr(Omega_-j Lambda_-j) - log|Omega_-j Lambda_-j| - (p-1)
          + delta_j mu_j^2 ],   delta_j = lambda_-j^T Lambda_-j^{-1} lambda_-j,
    the effect of variable j being conditioned to zero.
    """
    p = pm.p
    if p < 2:
        raise ValueError("need at least 2 variables")
    if not 0 <= j < p:
        raise IndexError(f"variable index {j} out of range [0, {p})")
    keep = np.arange(p) != j
    omega_mj = pm.omega[np.ix_(keep, keep)]
    lam_mj = pm.lam[np.ix_(keep, keep)]
    lam_off = pm.lam[keep, j]

    trace = float(np.sum(omega_mj * lam_mj))  # both symmetric
    f_omega = chol_spd(omega_mj, 0.0)
    f_lam = chol_spd(lam_mj, 0.0)
    log_det = f_omega.log_det + f_lam.log_det
    delta = float(lam_off @ f_lam.solve(lam_off))
    kld = 0.5 * (trace - log_det - (p - 1) + delta * pm.mu[j] ** 2)
    return max(kld, 0.0)


def _block_kl(pm: PrecisionModel, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL divergence and mutual information for a batch of index blocks.

    ``blocks`` is a (b, m) integer array whose rows are the index sets J;
    returns the two (b,) arrays described in the module docstring. Only the
    m x m blocks of omega and lam are read. Exactly, every a_i >= 1; a
    smaller one means omega and lam are not an inverse pair.
    """
    rows, cols = blocks[:, :, None], blocks[:, None, :]
    omega_jj = pm.omega[rows, cols]
    lam_jj = pm.lam[rows, cols]
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
    return float(_block_kl(pm, np.array([[j]]))[0][0])


def mutual_info(pm: PrecisionModel, j: int) -> float:
    """Gaussian mutual information between effect j and the remaining effects,
    0.5 log(omega_j |Omega_-j| / |Omega|) = 0.5 log(omega_j lambda_j)."""
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
        klds = [kld_variable_naive(pm, j) for j in range(pm.p)]
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
