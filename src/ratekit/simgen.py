"""Synthetic datasets with known ground truth.

Two generators: a binary classification benchmark where a chosen fraction of
features carries the class signal (Gaussian clusters on hypercube vertices,
optional redundant linear combinations, the rest pure noise), and a tiny
two-feature regression pair with tunable collinearity for stress-testing
effect-size estimators; ``train_test_split`` holds out the evaluation rows.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ratekit.core import ENCODING, checked, default_names, in_file, permutation, read_json
from ratekit.core import text_file, write_json

__all__ = [
    "SynthSpec",
    "Dataset",
    "synth_classification",
    "collinear_regression",
    "held_out_rows",
    "train_test_split",
    "save_dataset_csv",
    "load_dataset_csv",
    "read_sidecar",
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


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with labels/responses and optional ground-truth mask.

    ``column_permutation`` maps output column i to its pre-shuffle block
    position; ``X[:, np.argsort(column_permutation)]`` restores the
    causal | redundant | noise block order. Frozen, so every field keeps
    the checks ``__post_init__`` makes; ``dataclasses.replace`` checks anew.
    """

    X: np.ndarray
    y: np.ndarray
    causal_mask: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()
    column_permutation: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y))
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.ndim != 1:
            raise ValueError(f"y must be 1-dimensional, got shape {self.y.shape}")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError("X and y disagree on the number of rows")
        if self.causal_mask is not None:
            object.__setattr__(self, "causal_mask", np.asarray(self.causal_mask, dtype=bool))
            if self.causal_mask.shape != (self.X.shape[1],):
                raise ValueError(
                    f"causal_mask must be 1-d with one entry per feature ({self.X.shape[1]}), "
                    f"got shape {self.causal_mask.shape}"
                )
        object.__setattr__(self, "feature_names",
                           default_names(self.X.shape[1], self.feature_names))
        if self.column_permutation is not None:
            object.__setattr__(self, "column_permutation", permutation(
                self.column_permutation, self.X.shape[1], "column_permutation"))
        if self.seed is not None:
            # a numpy integer is stored as the int the sidecar records
            if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
                raise ValueError(f"seed must be None or an integer, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))

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
        # x[:, perm]'s values, in rows as a loaded X holds them, and gathered
        # about 5x faster
        X=np.take(x, perm, axis=1),
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


def held_out_rows(n: int, test_fraction: float) -> int:
    """The number of n rows a ``test_fraction`` split holds out, round(test_fraction * n),
    or 0 for a fraction of 0: no split. One leaving a part empty raises ``ValueError``."""
    n_test = int(round(test_fraction * n)) if 0 < test_fraction < 1 else 0
    if test_fraction != 0 and not 0 < n_test < n:
        raise ValueError(
            f"test_fraction {test_fraction} must be 0 (no split) or leave both the "
            f"train and test parts of n = {n} rows non-empty"
        )
    return n_test


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """The train and held-out test parts of ``ds``, the first ``held_out_rows(ds.n,
    test_fraction)`` rows of ``default_rng(seed).permutation(ds.n)`` held out, each part
    in that order and keeping the mask, names, column permutation and seed of ``ds``."""
    n_test = held_out_rows(ds.n, test_fraction)
    if n_test == 0:
        raise ValueError(f"test_fraction {test_fraction} holds out no rows")
    order = np.random.default_rng(seed).permutation(ds.n)
    return tuple(replace(ds, X=ds.X[idx], y=ds.y[idx]) for idx in (order[n_test:], order[:n_test]))


def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".mask.json")


def save_dataset_csv(ds: Dataset, csv_path) -> Path:
    """Write features-then-y CSV plus a JSON sidecar with mask and seed.

    Cells are ``repr`` of each float64 and the integer or float label, one
    line per row. Only the header, whose names may need quoting, goes through
    ``csv.writer``: on 300 x 2000 data rows it wrote the same bytes 1.5x slower."""
    csv_path = Path(csv_path)
    integer_labels = np.issubdtype(ds.y.dtype, np.integer)
    labels = [str(int(v)) if integer_labels else repr(float(v)) for v in ds.y.tolist()]
    with text_file(csv_path, "w") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*ds.feature_names, "y"])
        for row, label in zip(ds.X, labels):
            fh.write(",".join(map(repr, row.tolist())) + "," + label + "\n")
    sidecar = _sidecar_path(csv_path)
    write_json(sidecar, {
        "causal_mask": None if ds.causal_mask is None else ds.causal_mask.astype(int).tolist(),
        "column_permutation": (
            None if ds.column_permutation is None else ds.column_permutation.tolist()
        ),
        "seed": ds.seed,
        "integer_labels": bool(integer_labels),
    })
    return sidecar


def read_sidecar(path, p: int) -> dict:
    """The sidecar at ``path`` for ``p`` features, each key the loader reads
    checked: ``causal_mask`` (null, or one 0/1 or true/false entry per
    feature, returned as bools), ``column_permutation`` (null, or a
    permutation of range(p), returned as ints), ``seed`` (null or an
    integer) and ``integer_labels`` (true or false). A key left out is
    returned as None; a value of the wrong form is refused, naming the file
    and the key."""
    meta = read_json(path)
    mask, perm = meta.get("causal_mask"), meta.get("column_permutation")
    with in_file(path):
        if mask is not None:
            shape = np.asarray(mask, dtype=object).shape
            if shape != (p,):
                raise ValueError(f"causal_mask must be a list with one entry per feature ({p}), "
                                 f"got shape {shape}")
            for j, entry in enumerate(mask):
                if type(entry) not in (int, bool) or entry not in (0, 1):
                    raise ValueError(f"causal_mask entry {j} must be 0, 1, true or false, "
                                     f"got {json.dumps(entry)}")
            mask = np.array(mask, dtype=bool)
        if perm is not None:
            perm = permutation(perm, p, "column_permutation")
        seed = checked(meta.get("seed"), "seed", None, int)
        if "integer_labels" in meta:
            checked(meta["integer_labels"], "integer_labels", bool)
    return {"causal_mask": mask, "column_permutation": perm, "seed": seed,
            "integer_labels": meta.get("integer_labels")}


def _data_row_error(header: list[str], exc: ValueError) -> ValueError:
    """``np.loadtxt``'s error, naming the data row (from 1, blank lines not
    counted) and the column; numpy counts a cell's row from 0 and a
    column-count change's from 1."""
    text = str(exc)
    cell = re.search(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)", text)
    if cell:
        row, name = int(cell[2]) + 1, header[int(cell[3]) - 1]
        return ValueError(f"data row {row}, column {name!r}: {cell[1]} is not a number")
    count = re.search(r"number of columns changed from (\d+) to (\d+) at row (\d+)", text)
    if count:
        first, cells, row = int(count[1]), int(count[2]), int(count[3])
        if first != len(header):  # the first data row was already wrong
            row, cells = 1, first
        return ValueError(f"data row {row} has {cells} cells, expected {len(header)}")
    short = re.search(r"invalid for the number of fields (\d+)", text)  # no label cell
    if short:
        return ValueError(f"data row 1 has {short[1]} cells, expected {len(header)}")
    return ValueError(text)


def load_dataset_csv(csv_path) -> Dataset:
    """Read a dataset CSV and its sidecar.

    numpy's C reader parses every feature cell straight into float64, with
    no Python object per cell, in one pass that also keeps each label's text.
    The labels are parsed with ``int`` when they are integers (as the
    sidecar says, or else when none has a '.' or an 'e') and with ``float``
    otherwise. A ragged row, a cell that is not a number (empty, or spelt
    with an underscore such as ``1_0``) or a NaN or infinite cell raises
    ``ValueError`` naming the data row; every refusal names the file first."""
    csv_path = Path(csv_path)
    labels: list[str] = []

    def label(text: str) -> float:
        # float() takes non-ASCII digits and '_', numpy's parser does not; both
        # strip whitespace, Unicode spaces included, around the number
        if not text.strip().isascii() or "_" in text:
            raise ValueError(text)
        labels.append(text)
        return float(text)

    with in_file(csv_path):
        with text_file(csv_path) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            header_lines = reader.line_num  # a quoted name may hold a line break
        if not header or header[-1] != "y":
            raise ValueError("expected feature columns followed by 'y'")
        p = len(header) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows is refused below
            try:
                # keyed at p: numpy calls a converter keyed at -1 once more, with ''
                data = np.loadtxt(
                    csv_path, delimiter=",", comments=None, quotechar='"',
                    skiprows=header_lines, ndmin=2, converters={p: label}, encoding=ENCODING,
                )
            except ValueError as exc:
                raise _data_row_error(header, exc) from exc
        n = data.shape[0]
        if n == 0:
            raise ValueError("no data rows")
        if data.shape[1] != p + 1:
            raise ValueError(f"data row 1 has {data.shape[1]} cells, expected {p + 1}")
        if len(labels) != n:
            raise RuntimeError(f"{csv_path}: numpy passed {len(labels)} labels for {n} data rows")
        # min and max reach nan and +-inf without an n x (p + 1) temporary
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            row, col = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(f"data row {row + 1}, column {header[col]!r} is not finite")
    y = data[:, p].copy()  # float() of each label, before X overwrites the column
    # drop the label column in place, so X is C-contiguous without a second
    # n x p buffer: row i moves from offset i (p + 1) to i p
    flat = data.reshape(-1)
    for i in range(1, n):
        flat[i * p : (i + 1) * p] = flat[i * (p + 1) : i * (p + 1) + p]
    x = flat[: n * p].reshape(n, p)

    sidecar = _sidecar_path(csv_path)
    meta = read_sidecar(sidecar, p) if sidecar.exists() else {}
    integer_labels = meta.get("integer_labels")
    if integer_labels is None:
        integer_labels = all("." not in v and "e" not in v.lower() for v in labels)
    if integer_labels:
        values = []
        for row, text in enumerate(labels, 1):
            try:
                values.append(int(text))
            except ValueError:
                raise ValueError(f"{csv_path}: data row {row}, column 'y': {text!r} is not an "
                                 "integer, as the sidecar's integer_labels says") from None
        y = np.array(values)
    return Dataset(
        X=x,
        y=y,
        causal_mask=meta.get("causal_mask"),
        feature_names=tuple(header[:-1]),
        column_permutation=meta.get("column_permutation"),
        seed=meta.get("seed"),
    )
