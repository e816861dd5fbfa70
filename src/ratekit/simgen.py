"""Synthetic datasets with known ground truth.

Two generators: a binary classification benchmark where a chosen fraction of
features carries the class signal (Gaussian clusters on hypercube vertices,
optional redundant linear combinations, the rest pure noise), and a tiny
two-feature regression pair with tunable collinearity for stress-testing
effect-size estimators.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SynthSpec",
    "Dataset",
    "synth_classification",
    "collinear_regression",
    "save_dataset_csv",
    "load_dataset_csv",
]


@dataclass(frozen=True)
class SynthSpec:
    n: int
    p: int
    frac_causal: float = 0.1
    frac_redundant: float = 0.0
    n_clusters_per_class: int = 2
    class_sep: float = 2.0
    flip_y: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n < 10:
            raise ValueError("n must be >= 10")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0 <= self.frac_causal <= 1 or not 0 <= self.frac_redundant <= 1:
            raise ValueError("feature fractions must lie in [0, 1]")
        if self.frac_causal + self.frac_redundant > 1:
            raise ValueError("frac_causal + frac_redundant must be <= 1")
        if self.n_causal < 1:
            raise ValueError("spec yields no causal features")
        if self.n_clusters_per_class < 1:
            raise ValueError("n_clusters_per_class must be >= 1")
        if not 0 <= self.flip_y < 1:
            raise ValueError("flip_y must lie in [0, 1)")
        if not (math.isfinite(self.class_sep) and self.class_sep > 0):
            raise ValueError(f"class_sep must be finite and > 0, got {self.class_sep}")

    @property
    def n_causal(self) -> int:
        return int(round(self.frac_causal * self.p))

    @property
    def n_redundant(self) -> int:
        return int(round(self.frac_redundant * self.p))


@dataclass
class Dataset:
    """Feature matrix with labels/responses and optional ground-truth mask.

    ``column_permutation`` maps output column i to its pre-shuffle block
    position; ``X[:, np.argsort(column_permutation)]`` restores the
    causal | redundant | noise block order.
    """

    X: np.ndarray
    y: np.ndarray
    causal_mask: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()
    column_permutation: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError("X and y disagree on the number of rows")
        if self.causal_mask is not None:
            self.causal_mask = np.asarray(self.causal_mask, dtype=bool)
            if self.causal_mask.shape[0] != self.X.shape[1]:
                raise ValueError("causal_mask length must equal the feature count")
        if not self.feature_names:
            self.feature_names = tuple(f"f{j + 1}" for j in range(self.X.shape[1]))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _distinct_vertices(rng, n_clusters: int, dim: int) -> np.ndarray:
    if dim < 31 and n_clusters > 2**dim:
        raise ValueError(
            f"cannot place {n_clusters} distinct cluster centers on a {dim}-cube"
        )
    seen: set[tuple[int, ...]] = set()
    vertices = []
    while len(vertices) < n_clusters:
        v = rng.integers(0, 2, size=dim) * 2 - 1
        key = tuple(int(e) for e in v)
        if key not in seen:
            seen.add(key)
            vertices.append(v.astype(np.float64))
    return np.stack(vertices)


def synth_classification(spec: SynthSpec) -> Dataset:
    """Binary classification with clustered causal features.

    Cluster centers sit on random distinct vertices of a hypercube with
    half-width ``class_sep`` and alternate between the two classes, so part
    of the signal is marginal and part is interaction-only. Redundant
    features are random linear mixes of the causal block, the remainder is
    i.i.d. noise, and columns are shuffled with the shuffle recorded.
    """
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    n_causal, n_redundant = spec.n_causal, spec.n_redundant
    n_noise = p - n_causal - n_redundant
    n_clusters = 2 * spec.n_clusters_per_class

    vertices = _distinct_vertices(rng, n_clusters, n_causal) * spec.class_sep
    cluster = rng.integers(0, n_clusters, size=n)
    y = (cluster % 2).astype(np.int64)
    x_causal = vertices[cluster] + rng.standard_normal((n, n_causal))

    blocks = [x_causal]
    if n_redundant:
        mix = rng.uniform(-1.0, 1.0, size=(n_causal, n_redundant))
        blocks.append(x_causal @ mix / np.sqrt(n_causal))
    if n_noise:
        blocks.append(rng.standard_normal((n, n_noise)))
    x = np.hstack(blocks)
    mask = np.zeros(p, dtype=bool)
    mask[:n_causal] = True

    n_flip = int(round(spec.flip_y * n))
    if n_flip:
        flip_idx = rng.choice(n, size=n_flip, replace=False)
        y[flip_idx] = 1 - y[flip_idx]

    perm = rng.permutation(p)
    return Dataset(
        X=x[:, perm],
        y=y,
        causal_mask=mask[perm],
        column_permutation=perm,
        seed=spec.seed,
    )


def collinear_regression(n: int, rho: float, seed: int = 0) -> Dataset:
    """Two standard-normal features with correlation rho and the linear
    response y = 2 x1 - 2 x2 + noise, whose total effect cancels as the
    features become collinear."""
    if not abs(rho) < 1:
        raise ValueError("|rho| must be < 1")
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    x2 = rho * x1 + np.sqrt(1.0 - rho**2) * rng.standard_normal(n)
    y = 2.0 * x1 - 2.0 * x2 + rng.standard_normal(n)
    return Dataset(
        X=np.column_stack([x1, x2]),
        y=y,
        causal_mask=np.array([True, True]),
        seed=seed,
    )


def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".mask.json")


def save_dataset_csv(ds: Dataset, csv_path) -> Path:
    """Write features-then-y CSV plus a JSON sidecar with mask and seed."""
    csv_path = Path(csv_path)
    integer_labels = np.issubdtype(ds.y.dtype, np.integer)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*ds.feature_names, "y"])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]]
            row.append(str(int(ds.y[i])) if integer_labels else repr(float(ds.y[i])))
            writer.writerow(row)
    sidecar = _sidecar_path(csv_path)
    meta = {
        "causal_mask": None if ds.causal_mask is None else ds.causal_mask.astype(int).tolist(),
        "column_permutation": (
            None if ds.column_permutation is None else np.asarray(ds.column_permutation).tolist()
        ),
        "seed": ds.seed,
        "integer_labels": bool(integer_labels),
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    return sidecar


def load_dataset_csv(csv_path) -> Dataset:
    """Read a dataset CSV and its sidecar; a NaN or infinite feature or label
    raises ``ValueError`` naming the data row and the column."""
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "y":
            raise ValueError(f"{csv_path}: expected feature columns followed by 'y'")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    names = tuple(header[:-1])
    x = np.array([[float(v) for v in row[:-1]] for row in rows])
    y_raw = [row[-1] for row in rows]

    mask = None
    perm = None
    seed = None
    integer_labels = all("." not in v and "e" not in v.lower() for v in y_raw)
    sidecar = _sidecar_path(csv_path)
    if sidecar.exists():
        with open(sidecar) as fh:
            meta = json.load(fh)
        if meta.get("causal_mask") is not None:
            mask = np.asarray(meta["causal_mask"], dtype=bool)
        if meta.get("column_permutation") is not None:
            perm = np.asarray(meta["column_permutation"], dtype=int)
        seed = meta.get("seed")
        integer_labels = bool(meta.get("integer_labels", integer_labels))
    y = np.array([int(v) for v in y_raw]) if integer_labels else np.array(
        [float(v) for v in y_raw]
    )
    bad = np.argwhere(~np.isfinite(np.column_stack([x, y.astype(np.float64)])))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{csv_path}: data row {row + 1}, column {header[col]!r} is not finite")
    return Dataset(
        X=x,
        y=y,
        causal_mask=mask,
        feature_names=names,
        column_permutation=perm,
        seed=seed,
    )
