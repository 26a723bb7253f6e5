"""Core containers shared across the package.

Indices are 0-based everywhere.  Fold v of a strict plan on n rows is
the contiguous block ``[n*v // V, n*(v+1) // V)``, which for divisible
n matches the textbook 1-based prescription {n(v-1)/V+1, ..., nv/V}.
Each value type checks its fields when it is built, so a value that
exists is valid and no consumer checks it again.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the documented domain."""


class DivisibilityError(DomainError):
    """Strict fold construction requires V to divide n."""


LEARNER_FAMILIES = ("ridge", "lasso", "forward")


def _jsonable(obj):
    """Plain JSON value: arrays and numpy scalars unwrapped, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _replace_file(path, text: str) -> Path:
    """Write ``text`` to a temp file beside ``path``, then ``os.replace`` it into
    place: an interrupted run leaves the old file or the new, never a torn one."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json_atomic(path, obj) -> Path:
    """Atomically write ``_jsonable(obj)`` as indented JSON with sorted keys."""
    return _replace_file(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, rows: Iterable[Sequence]) -> Path:
    """Atomically write ``rows`` as CSV: ``str`` cells joined by ``,``, ``\\n`` line
    ends.  Cells are never quoted, so none may hold a comma or a line break."""
    return _replace_file(path, "".join(",".join(map(str, row)) + "\n" for row in rows))


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _integer(value, what: str, error: type[DomainError] = DomainError) -> int:
    """``value`` as an int; a float or a bool is refused rather than
    truncated, with an ``error`` saying ``what`` must be integers."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be integers, got {value!r}")
    return int(value)


def _real(value, what: str, error: type[DomainError] = DomainError) -> float:
    """``value`` as a float; a bool or a non-number (such as the string
    "0.1") is refused, with an ``error`` saying ``what`` must be real
    numbers."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise error(f"{what} must be real numbers, got {value!r}")
    return float(value)


def _replacement(i, z_new, y_new, n: int, d: int) -> tuple[int, np.ndarray, float]:
    """(i, z_new, y_new) checked as the replacement of row i of n rows of d
    features: i an integer in [0, n) (see ``_integer``), and z_new a row
    of d."""
    i = _integer(i, "row indices")
    if not 0 <= i < n:
        raise DomainError(f"row index {i} outside [0, {n})")
    z_new = np.asarray(z_new, dtype=np.float64)
    if z_new.shape != (d,):
        raise DomainError(f"replacement has shape {z_new.shape}, expected ({d},)")
    return i, z_new, float(y_new)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) paired with a length-n response vector.

    Construction coerces dtypes and refuses a row-count mismatch or a
    non-finite entry, so every Dataset is clean.
    """

    features: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", _as_float_array(self.features, "features", 2))
        object.__setattr__(self, "response", _as_float_array(self.response, "response", 1))
        problems: list[str] = []
        nf, nr = self.features.shape[0], self.response.shape[0]
        if nf != nr:
            problems.append(f"row counts differ: features has {nf}, response has {nr}")
        if not np.all(np.isfinite(self.features)):
            problems.append("features contains non-finite entries")
        if not np.all(np.isfinite(self.response)):
            problems.append("response contains non-finite entries")
        if problems:
            raise DomainError("dataset invalid: " + "; ".join(problems))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def replace_row(self, i: int, z_new: np.ndarray, y_new: float) -> "Dataset":
        """Copy of the dataset with row i swapped for (z_new, y_new)."""
        i, z_new, y_new = _replacement(i, z_new, y_new, self.n, self.d)
        features = self.features.copy()
        response = self.response.copy()
        features[i] = z_new
        response[i] = y_new
        return Dataset(features, response)


@dataclass(frozen=True)
class FoldPlan:
    """Partition of row indices 0..n-1 into V folds.

    Construction refuses a plan unless V >= 2 equals the number of index
    sets, every set is a non-empty ascending integer array, the sets
    partition 0..n-1, and ``fold_of`` gives each row the fold whose set
    holds it; so every row is scored exactly once.
    """

    n: int
    V: int
    fold_of: np.ndarray
    index_sets: tuple[np.ndarray, ...]

    def __post_init__(self):
        n, V = _integer(self.n, "row counts"), _integer(self.V, "fold counts")
        sets = tuple(np.asarray(ix) for ix in self.index_sets)
        fold_of = np.asarray(self.fold_of)
        if V < 2 or len(sets) != V:
            raise DomainError(f"a plan needs V >= 2 index sets, got V={V} and {len(sets)} sets")
        for v, ix in enumerate(sets):
            if ix.ndim != 1 or not ix.size or ix.dtype.kind not in "iu" or np.any(ix[1:] <= ix[:-1]):
                raise DomainError(f"index set {v} is not a non-empty ascending integer array")
        if not np.array_equal(np.sort(np.concatenate(sets)), np.arange(n)):
            raise DomainError(f"the index sets do not partition the rows 0..{n - 1}")
        if (
            fold_of.shape != (n,)
            or fold_of.dtype.kind not in "iu"
            or any(np.any(fold_of[ix] != v) for v, ix in enumerate(sets))
        ):
            raise DomainError("fold_of does not give each row the fold whose index set holds it")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "fold_of", fold_of)
        object.__setattr__(self, "index_sets", sets)

    def train_indices(self, v: int) -> np.ndarray:
        """Ascending indices of all rows outside fold v."""
        if not 0 <= v < self.V:
            raise DomainError(f"fold index {v} outside [0, {self.V})")
        return np.flatnonzero(self.fold_of != v)


def make_folds(n: int, V: int, mode: str = "strict") -> FoldPlan:
    """Build a contiguous V-fold plan on n rows.

    Parameters
    ----------
    n, V : int
        Number of rows and folds; requires n >= V >= 2.
    mode : str
        "strict" demands V | n and yields equal blocks of size n/V.
        "balanced" allows any n >= V and yields contiguous blocks whose
        sizes differ by at most one, larger blocks first.
    """
    n, V = _integer(n, "row counts"), _integer(V, "fold counts")
    if V < 2:
        raise DomainError(f"need at least 2 folds, got V={V}")
    if n < V:
        raise DomainError(f"need n >= V, got n={n}, V={V}")
    if mode not in ("strict", "balanced"):
        raise DomainError(f"unknown fold mode {mode!r}")
    if mode == "strict" and n % V != 0:
        raise DivisibilityError(f"strict folds need V | n, got n={n}, V={V}")

    base, rem = divmod(n, V)
    sizes = [base + 1 if v < rem else base for v in range(V)]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    index_sets = tuple(np.arange(bounds[v], bounds[v + 1]) for v in range(V))
    fold_of = np.repeat(np.arange(V, dtype=np.int64), sizes)
    return FoldPlan(n=n, V=V, fold_of=fold_of, index_sets=index_sets)


@dataclass(frozen=True)
class LossMatrix:
    """Per-row, per-model losses: entry (i, r) is model r's loss on row i.

    Row i is always scored by the fit that held out row i's fold, so
    column means are honest cross-validated risks.
    """

    values: np.ndarray
    plan: FoldPlan
    model_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, "values", 2))
        object.__setattr__(self, "model_labels", tuple(self.model_labels))
        if self.values.shape[0] != self.plan.n:
            raise DomainError(
                f"loss matrix has {self.values.shape[0]} rows for a plan over {self.plan.n}"
            )
        if self.values.shape[1] != len(self.model_labels):
            raise DomainError(
                f"{self.values.shape[1]} columns but {len(self.model_labels)} labels"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("loss matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LearnerSpec:
    """Value-type description of one candidate learner.

    Only the fields relevant to ``family`` are consulted: ``lam`` for
    ridge and lasso (ridge at lam = 0 is least squares), ``steps`` for
    forward selection.  Every candidate is scored under squared loss.
    """

    family: str
    lam: float = 0.0
    steps: int | None = None

    def __post_init__(self):
        if self.family not in LEARNER_FAMILIES:
            raise DomainError(f"unknown learner family {self.family!r}")
        if self.family in ("ridge", "lasso"):
            if not _real(self.lam, f"{self.family} penalties") >= 0:
                raise DomainError(f"{self.family} needs lam >= 0, got {self.lam}")
        if self.family == "forward":
            if self.steps is None or _integer(self.steps, "forward steps") < 0:
                raise DomainError(f"forward needs steps >= 0, got {self.steps}")

    def label(self) -> str:
        if self.family == "forward":
            return f"forward:{self.steps}"
        return f"{self.family}:{self.lam:.6g}"


@dataclass(frozen=True)
class FittedModel:
    """Linear predictor produced by any learner in the bank."""

    family: str
    coef: np.ndarray
    support: tuple[int, ...] | None = None
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coef", _as_float_array(self.coef, "coef", 1))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write ``y,z1,...,zd`` rows in full decimal precision."""
    header = ["y"] + [f"z{j + 1}" for j in range(dataset.d)]
    rows = (
        [repr(float(y))] + [repr(float(z)) for z in row]
        for y, row in zip(dataset.response, dataset.features)
    )
    write_csv_atomic(path, [header, *rows])
