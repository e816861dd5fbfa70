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
batched over all p of them) and for groups alike, so once the model is built a
group costs O(m^2 r + m^3). A naive route built literally from the (p-1) x (p-1)
submatrices (one dense factorization per variable, O(p^4) total) is kept as
the reference the identity is tested against.

The effect-size posterior has a p x k factor G with Omega = G G^T. Its rank r
is below p when the last hidden layer is narrower than p or when there are
fewer evaluation rows than features; then Lambda does not exist. Take
Omega_tau = Omega + tau I and let tau -> 0. With U (p x r) an orthonormal
basis of range(G), Lambda_tau = (I - U U^T) / tau + O(1). For a block J let
S_J = G_J G_J^T, P_J = I - U_J U_J^T and Pi_J the projector onto
range(S_J); then (S_J + tau I)^{-1} = (I - Pi_J) / tau + O(1), and

    Omega_JJ Lambda_JJ        = S_J P_J / tau + O(1),
    Lambda_JJ - Omega_JJ^{-1} = (Pi_J - U_J U_J^T) / tau + O(1)
                              = Pi_J P_J Pi_J / tau + O(1),

the last step because range(U_J) lies in range(G_J) = range(S_J). The a_i
grow like 1/tau while the log a_i grow only like log(1/tau), so

    tau kld_J -> 0.5 [ tr(S_J P_J) + mu~_J^T P_J mu~_J ],   mu~_J = Pi_J mu_J,

with a gap of O(tau log(1/tau)). For one feature with omega_j > 0 this is
0.5 (1 - h_j)(omega_j + mu_j^2), where h_j = ||u_j||^2 is the leverage of
feature j. The projection matters when S_J is singular, as it is for every
group of m > r features: mu_J's component in the null space of S_J carries
no 1/tau term. The common factor 1/tau cancels from the rates, so a
rank-deficient model is scored by this limit, with no jitter to pick. The
mutual information has no such limit: each a_i that grows like 1/tau adds
0.5 log(1/tau), so it diverges and is reported as null.

``build_precision`` takes one ``eigh`` of the smaller Gram matrix of G
(G^T G when k < p, G G^T otherwise); its eigenvalues lambda above
``RANK_RTOL`` times its trace count toward r. On both routes the model keeps
Omega in eigen form, Omega = U diag(lambda) U^T with U p x r and orthonormal:
for k >= p, U holds the kept eigenvectors of G G^T. For k < p, G is never
formed: with G = A diag(sqrt(v)) for the shared projection A and the class's
output variances v (see ``ratekit.esa``), the Gram matrix is
diag(sqrt(v)) A^T A diag(sqrt(v)) = V diag(lambda) V^T and
U = A (diag(sqrt(v)) V lambda^{-1/2}), O(p k^2), the scaling applied to the
k x r factor. Every block is U_J diag(lambda^s) U_J^T: Omega_JJ = S_J at
s = 1, Lambda_JJ at s = -1 (when r = p) and U_J U_J^T at s = 0. Blocks are
scored in batches whose gathered rows of U hold at most ``GATHER_ELEMENTS``
values, so scoring all p features copies no p x r array. A zero G scores 0
everywhere.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from ratekit.core import RANK_RTOL, NotPositiveDefiniteError, checked_symmetric, gram
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

#: Round-off allowed on the identities a_i >= 1 (dense) and P_J >= 0 (rank-deficient).
CONSISTENCY_TOL = 1e-9

#: Most values of U that block scoring gathers at once (512 KiB of float64).
GATHER_ELEMENTS = 1 << 16


class InconsistentPrecisionError(ArithmeticError):
    """An eigenvalue of Omega_JJ Lambda_JJ below 1 (omega_j * lambda_j < 1 for
    a single variable), or of I - U_J U_J^T below 0, signals a basis U whose
    columns are not orthonormal (impossible in exact arithmetic)."""


@dataclass
class PrecisionModel:
    """Posterior mean and effect-size covariance Omega in eigen form,
    Omega = U diag(lambda) U^T (see the module docstring).

    Row j of ``basis`` (U, p x r with orthonormal columns) belongs to
    variable j, and ``eigvals`` holds the r eigenvalues lambda > 0. At r = p,
    Lambda = Omega^{-1} = U diag(1/lambda) U^T. At r < p Lambda does not
    exist: scores come from the tau -> 0 limit and the mutual information
    and the naive route are undefined.
    """

    mu: np.ndarray  # (p,)
    basis: np.ndarray  # (p, r) U
    eigvals: np.ndarray  # (r,) lambda
    feature_names: tuple[str, ...] = ()  # f1, f2, ... when empty or None

    def __post_init__(self):
        if self.eigvals.ndim != 1 or self.basis.shape != (self.p, self.rank) or self.rank > self.p:
            raise ValueError(
                f"basis {self.basis.shape} and eigvals {self.eigvals.shape} must have "
                f"shapes (p, r) and (r,) with r <= p = {self.p}"
            )
        if np.any(self.eigvals <= 0):
            raise ValueError("eigvals must be positive")
        self.feature_names = tuple(self.feature_names or (f"f{j + 1}" for j in range(self.p)))
        if len(self.feature_names) != self.p:
            raise ValueError("feature_names length does not match mu")

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def rank(self) -> int:
        """Rank r of Omega."""
        return self.eigvals.shape[0]

    @property
    def omega(self) -> np.ndarray:
        """Dense p x p Omega, built afresh on every access."""
        return _block_gram(self, np.arange(self.p)[None, :], 1)[0]

    @property
    def lam(self) -> np.ndarray:
        """Dense p x p Lambda, built afresh on every access."""
        if self.rank < self.p:
            raise ValueError(
                f"Lambda does not exist: Omega has rank {self.rank} < p = {self.p}"
            )
        return _block_gram(self, np.arange(self.p)[None, :], -1)[0]


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
        """Resolve feature names to indices; an unknown name, or one that
        appears more than once in ``feature_names``, is a hard error."""
        positions = {}
        for j, name in enumerate(feature_names):
            positions[name] = None if name in positions else j  # None: repeated
        resolved = {}
        for gname, members in groups.items():
            idx = []
            for feat in members:
                if feat not in positions:
                    raise ValueError(f"group {gname!r} names unknown feature {feat!r}")
                if positions[feat] is None:
                    raise ValueError(
                        f"group {gname!r} names feature {feat!r}, which appears more "
                        "than once in the feature names"
                    )
                idx.append(positions[feat])
            resolved[gname] = idx
        return GroupMap.from_indices(resolved, len(feature_names))


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


def _eigen_form(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the symmetric positive semidefinite ``s`` above
    ``RANK_RTOL`` times its trace, and their eigenvectors."""
    eigvals, eigvecs = np.linalg.eigh(s)
    kept = eigvals > RANK_RTOL * np.trace(s)
    if kept.all():  # spare a copy of the eigenvectors
        return eigvals, eigvecs
    return eigvals[kept], eigvecs[:, kept]


def precision_from_covariance(mu, omega, feature_names=None) -> PrecisionModel:
    """Build the model from raw moments; a singular or indefinite ``omega``
    raises ``NotPositiveDefiniteError``."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    if mu.shape[0] < 2:
        raise ValueError("need at least 2 variables")
    omega = checked_symmetric(omega, "Omega")
    eigvals, basis = _eigen_form(omega)
    if eigvals.shape[0] < omega.shape[0]:
        raise NotPositiveDefiniteError(
            f"Omega of size {omega.shape[0]} has only {eigvals.shape[0]} eigenvalues "
            "above the rank tolerance"
        )
    return PrecisionModel(mu=mu, basis=basis, eigvals=eigvals, feature_names=feature_names)


def build_precision(esa: EffectSizePosterior, class_index: int = 0) -> PrecisionModel:
    """Eigen-form model of Omega = G G^T, scored densely when Omega has full
    rank and from its tau -> 0 limit otherwise (see the module docstring)."""
    if not 0 <= class_index < esa.n_classes:
        raise ValueError(
            f"class index {class_index} is outside [0, {esa.n_classes}): "
            f"the effect-size posterior has {esa.n_classes} class(es)"
        )
    mu = np.asarray(esa.mu[class_index], dtype=np.float64)
    a = esa.projection
    p, k = a.shape
    if k >= p:
        eigvals, basis = _eigen_form(gram(esa.factor(class_index)))
        return PrecisionModel(mu=mu, basis=basis, eigvals=eigvals, feature_names=esa.feature_names)
    # G = A diag(s) is never formed: G^T G = diag(s) A^T A diag(s), and
    # U = G V lambda^{-1/2} = A (diag(s) V lambda^{-1/2}) scales k x r values
    s = esa.scales[class_index]
    eigvals, vecs = _eigen_form(gram(a.T) * np.outer(s, s))  # k x k, freed before U
    vecs *= s[:, None]
    vecs /= np.sqrt(eigvals)
    basis = a @ vecs
    # the columns drift from orthonormal by about eps * lambda_max / lambda_min;
    # when that shows, one Cholesky QR pass on them restores it
    gram_u = basis.T @ basis
    diagonal = gram_u.reshape(-1)[:: eigvals.shape[0] + 1]
    diagonal -= 1.0  # U^T U - I in place; adding 1.0 back is exact on [0.5, 2]
    if np.linalg.norm(gram_u) > CONSISTENCY_TOL:
        diagonal += 1.0
        basis = np.linalg.solve(np.linalg.cholesky(gram_u), basis.T).T
    return PrecisionModel(mu=mu, basis=basis, eigvals=eigvals, feature_names=esa.feature_names)


def _check_index(pm: PrecisionModel, j: int) -> None:
    if not 0 <= j < pm.p:
        raise IndexError(f"variable index {j} out of range [0, {pm.p})")


def kld_variable_naive(pm: PrecisionModel, j: int) -> float:
    """Centrality of variable j built literally from submatrices.

    0.5 [ tr(Omega_-j Lambda_-j) - log|Omega_-j Lambda_-j| - (p-1)
          + delta_j mu_j^2 ],   delta_j = lambda_-j^T Lambda_-j^{-1} lambda_-j,
    the effect of variable j being conditioned to zero. Builds the dense
    Omega and Lambda, so it is the reference, not a route for large p; a
    rank-deficient model has no Lambda and raises ``ValueError``.
    """
    if pm.p < 2:
        raise ValueError("need at least 2 variables")
    _check_index(pm, j)
    lam = pm.lam
    return _kld_naive(pm.mu, pm.omega, lam, j)


def _kld_naive(mu: np.ndarray, omega: np.ndarray, lam: np.ndarray, j: int) -> float:
    p = mu.shape[0]
    keep = np.arange(p) != j
    omega_mj = omega[np.ix_(keep, keep)]
    lam_mj = lam[np.ix_(keep, keep)]
    lam_off = lam[keep, j]

    trace = float(np.sum(omega_mj * lam_mj))  # both symmetric
    l_omega, log_det_omega = _cholesky(omega_mj)
    l_lam, log_det_lam = _cholesky(lam_mj)
    log_det = log_det_omega + log_det_lam
    # numpy has no triangular solver; its general solve on the factor
    # agrees with a triangular one to round-off
    delta = float(lam_off @ np.linalg.solve(l_lam.T, np.linalg.solve(l_lam, lam_off)))
    kld = 0.5 * (trace - log_det - (p - 1) + delta * mu[j] ** 2)
    return max(kld, 0.0)


def _cholesky(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the symmetric part of ``s`` and its
    log-determinant. An indefinite input, or one whose smallest squared pivot
    is at or below ``RANK_RTOL`` times its trace, raises
    ``NotPositiveDefiniteError``."""
    s = checked_symmetric(s)
    p = s.shape[0]
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix of size {p} is not positive definite") from exc
    # LAPACK accepts some numerically singular inputs; a collapsed pivot
    # would poison the log-determinant and the solve, so reject it too
    if np.min(np.diagonal(lower)) ** 2 <= RANK_RTOL * np.trace(s):
        raise NotPositiveDefiniteError(f"matrix of size {p} is singular (a pivot collapsed)")
    return lower, 2.0 * float(np.sum(np.log(np.diagonal(lower))))


def _block_kl(pm: PrecisionModel, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """KL divergence and mutual information for each of a set of index blocks.

    ``blocks`` is a (b, m) integer array whose rows are the index sets J;
    returns the two (b,) arrays described in the module docstring, or the
    limit KL and None on a rank-deficient model. The blocks are scored in
    batches whose gathered rows of U hold at most ``GATHER_ELEMENTS`` values
    (one block at a time when a single block holds more), so scoring all p
    features needs no p x r copy of U.
    """
    step = max(1, GATHER_ELEMENTS // max(1, blocks.shape[1] * pm.rank))
    batches = [blocks[i : i + step] for i in range(0, blocks.shape[0], step)]
    if pm.rank < pm.p:
        return np.concatenate([_limit_kl(pm, batch) for batch in batches]), None
    kld, mi = zip(*(_dense_kl(pm, batch) for batch in batches))
    return np.concatenate(kld), np.concatenate(mi)


def _dense_kl(pm: PrecisionModel, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL divergence and mutual information of each row J of ``blocks`` on a
    full-rank model. Only the m x m blocks of Omega and Lambda are formed,
    from the rows J of U. Exactly, every a_i >= 1; a smaller one means U is
    not orthonormal."""
    omega_jj = _block_gram(pm, blocks, 1)
    lam_jj = _block_gram(pm, blocks, -1)
    # the a_i are the eigenvalues of the symmetric L^T Lambda_JJ L, L L^T = Omega_JJ
    lower = np.linalg.cholesky(omega_jj)
    a = np.linalg.eigvalsh(lower.mT @ lam_jj @ lower)
    smallest = a.min(axis=1)
    worst = int(np.argmin(smallest))
    if smallest[worst] < 1.0 - CONSISTENCY_TOL:
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


def _limit_kl(pm: PrecisionModel, blocks: np.ndarray) -> np.ndarray:
    """0.5 [ tr(S_J P_J) + mu~_J^T P_J mu~_J ] for each row J of ``blocks``,
    the tau -> 0 limit of tau kld_J (see the module docstring). Exactly,
    P_J = I - U_J U_J^T has no eigenvalue below 0; one below it means U is
    not an orthonormal basis."""
    s = _block_gram(pm, blocks, 1)
    u_uT = _block_gram(pm, blocks, 0)
    largest = np.linalg.eigvalsh(u_uT)[:, -1]
    worst = int(np.argmax(largest))
    if largest[worst] > 1.0 + CONSISTENCY_TOL:
        raise InconsistentPrecisionError(
            f"largest eigenvalue of U_J U_J^T = {largest[worst]:.12f} > 1 at indices "
            f"{blocks[worst].tolist()}; U is not an orthonormal basis"
        )
    p_j = np.eye(blocks.shape[1]) - u_uT
    # mu~_J drops mu_J's components along the null eigenvectors of S_J
    sig, q = np.linalg.eigh(s)
    coef = np.einsum("bim,bi->bm", q, pm.mu[blocks])
    coef[sig <= RANK_RTOL * np.trace(s, axis1=1, axis2=2)[:, None]] = 0.0
    mu_t = np.einsum("bim,bm->bi", q, coef)
    kld = 0.5 * (np.einsum("bij,bij->b", s, p_j) + np.einsum("bi,bij,bj->b", mu_t, p_j, mu_t))
    return np.maximum(kld, 0.0)


def _block_gram(pm: PrecisionModel, blocks: np.ndarray, power: int) -> np.ndarray:
    """U_J diag(lambda^power) U_J^T for each row J of ``blocks``: Omega_JJ at
    power 1, Lambda_JJ at -1 and U_J U_J^T at 0."""
    rows = pm.basis[blocks]  # a gathered copy, scaled in place to spare a second one
    if power:
        rows *= pm.eigvals ** (0.5 * power)
    return rows @ rows.mT


def kld_variable_fast(pm: PrecisionModel, j: int) -> float:
    """Same divergence via the block identity with J = {j}: O(r) from row j
    of U, 0.5 [ a - 1 - log a + (lambda_j - 1/omega_j) mu_j^2 ] with
    a = omega_j lambda_j; on a rank-deficient model, its limit
    0.5 (1 - h_j)(omega_j + mu_j^2)."""
    _check_index(pm, j)
    return float(_block_kl(pm, np.array([[j]]))[0][0])


def mutual_info(pm: PrecisionModel, j: int) -> float:
    """Gaussian mutual information between effect j and the remaining effects,
    0.5 log(omega_j |Omega_-j| / |Omega|) = 0.5 log(omega_j lambda_j). It
    diverges on a rank-deficient model, which raises ``ValueError``."""
    _check_index(pm, j)
    mi = _block_kl(pm, np.array([[j]]))[1]
    if mi is None:
        raise ValueError(
            f"mutual information is undefined: Omega has rank {pm.rank} < p = {pm.p}"
        )
    return float(mi[0])


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
    the tests hold them to 1e-8 relative. The naive route takes ``mi`` =
    0.5 log(omega_jj lambda_jj) from the dense Omega and Lambda it builds.
    A rank-deficient model has only the fast route and reports ``mi`` as
    None. If every divergence is zero the report is flagged degenerate and
    scores are uniform.
    """
    if path not in ("naive", "fast"):
        raise ValueError(f"unknown path: {path!r}")
    if path == "naive":
        lam, omega = pm.lam, pm.omega
        klds = [_kld_naive(pm.mu, omega, lam, j) for j in range(pm.p)]
        mis = 0.5 * np.log(np.diagonal(omega) * np.diagonal(lam))
    else:
        klds, mis = _block_kl(pm, np.arange(pm.p)[:, None])
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
