"""Helpers shared across modules: the dense symmetric kernels of the precision
code and its one relative rank bound, the one scan of every input check for a
nan or infinite entry (``first_non_finite``), the one rule for feature names
and the one for a permutation of feature indices (``permutation``), the text
policy of every file ratekit reads or writes (``text_file``), the writers every
CSV, JSON and SVG output goes through, so reruns write the same bytes, and the
reader, type check and refusal rule (``in_file``) of every input. ``bnn``,
``rate`` and ``simgen`` each read the formats they own with these.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "checked",
    "checked_symmetric",
    "default_names",
    "first_non_finite",
    "gram",
    "in_file",
    "permutation",
    "read_json",
    "text_file",
    "write_csv",
    "write_json",
    "write_text",
]

#: An eigenvalue, or squared Cholesky pivot, of a symmetric positive
#: semidefinite S at or below ``RANK_RTOL * trace(S)`` counts as zero.
RANK_RTOL = 1e-14

#: Relative asymmetry beyond which an input is rejected instead of symmetrized.
ASYMMETRY_TOL = 1e-6


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix has no Cholesky factor with a nonzero pivot."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return m


def checked_symmetric(s, name: str = "S") -> np.ndarray:
    """The symmetric part of a finite square matrix; an asymmetry beyond
    ``ASYMMETRY_TOL`` relative to its largest entry raises ``ValueError``."""
    s = _as_matrix(s, name)
    if first_non_finite(s) is not None:
        raise ValueError(f"{name} contains non-finite entries")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be square, got shape {s.shape}")
    scale = np.abs(s).max()
    asym = np.abs(s - s.T).max()
    if scale > 0 and asym > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"{name} is asymmetric beyond tolerance "
            f"(relative asymmetry {asym / scale:.3e})"
        )
    return 0.5 * (s + s.T)


def gram(g) -> np.ndarray:
    """G G^T, exactly symmetric as numpy forms ``g @ g.T`` (a symmetric
    rank-k update). A row that is not finite, or whose squared norm on the
    diagonal overflows, raises ``ValueError``."""
    g = _as_matrix(g, "G")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        prod = g @ g.T
    if not np.all(np.isfinite(np.diagonal(prod))):
        raise ValueError("G has a non-finite row or one whose squared norm overflows")
    return prod


def first_non_finite(a: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first nan or +-inf entry of ``a`` in C order, or None. A min
    and a max find one with no array-sized temporary, which only a failure builds."""
    if a.size == 0 or (np.isfinite(a.min()) and np.isfinite(a.max())):
        return None
    return tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])


def permutation(values, p: int, name: str) -> np.ndarray:
    """``values`` (a list, a tuple or an array) as an int array, once it is checked to
    be a permutation of range(p) whose entries are integers (Python or numpy, not
    bools or floats); else a ``ValueError`` naming ``name``."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not (isinstance(values, (list, tuple))
            and all(isinstance(j, (int, np.integer)) and not isinstance(j, bool) for j in values)
            and sorted(values) == list(range(p))):
        raise ValueError(f"{name} must be a permutation of the {p} indices 0, ..., {p - 1}")
    return np.array(values, dtype=int)


def default_names(p: int, names=None) -> tuple[str, ...]:
    """The names of p features: ``names`` as a tuple, or f1, f2, ..., fp
    when it is empty or None. Names of another length raise ``ValueError``."""
    if names is None or len(names) == 0:
        return tuple(f"f{j + 1}" for j in range(p))
    names = tuple(names)
    if len(names) != p:
        raise ValueError(f"feature_names has {len(names)} names, expected one per feature ({p})")
    return names


#: The encoding of every text file ratekit reads or writes, whatever the locale.
ENCODING = "utf-8"


def text_file(path, mode: str = "r"):
    """``path`` opened as text in ``mode``: UTF-8, with line ends never
    translated, so a line written with "\\n" ends in "\\n" on every platform
    and a reader (``csv`` among them) sees the line ends that are there. A
    reader skips a byte order mark at the start; a writer writes none."""
    return open(path, mode, encoding="utf-8-sig" if mode == "r" else ENCODING, newline="")


def write_text(path, text: str) -> None:
    """Write ``text`` into ``path`` as it is."""
    with text_file(path, "w") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV lines ended by "\\n". Cells are
    Python scalars: a float is written as its ``repr``, None as an empty cell."""
    with text_file(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Stream ``json.dumps(doc, sort_keys=True)`` and a newline into ``path``; a NaN
    or infinite float, which standard JSON cannot hold, raises ``ValueError``."""
    with text_file(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, allow_nan=False)
        fh.write("\n")


#: The JSON name of each type ``json.load`` returns.
_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    float: "a number", bool: "true or false", type(None): "null",
}


def checked(value, path: str, *kinds):
    """``value`` if its JSON type is one of ``kinds`` (None for null; a float
    may be an integer, and no number is true or false), else a ``ValueError``
    "<path> must be <kinds>, got <kind>", ``path`` its key path."""
    kinds = tuple(type(None) if kind is None else kind for kind in kinds)
    if type(value) not in kinds and not (type(value) is int and float in kinds):
        expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
        raise ValueError(f"{path} must be {expected}, got {_JSON_KINDS[type(value)]}")
    return value


@contextmanager
def in_file(path):
    """Prefix each ``ValueError`` the block raises with ``path``: the file
    whose content it refuses."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path) -> dict:
    """The JSON object in the file ``path``. A document that does not parse
    (``json.JSONDecodeError`` is a ``ValueError``) or is not an object raises
    a ``ValueError`` prefixed with ``path``."""
    with in_file(path), text_file(path) as fh:
        return checked(json.load(fh), "the document", dict)
