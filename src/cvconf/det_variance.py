"""Variance estimation by replace-one recomputation with a hold-out set.

The plug-in covariance treats the cross-validated risk as an average and
targets its randomness around the random (training-conditional) centering.
To approximate the variance around a deterministic centering, the recipe
below perturbs the training data itself: swap one sample for a fresh
hold-out point, recompute the full cross-validated risk vector, and
aggregate the outer products of the changes.  Two variants share that
shape:

* pair: always replace row 0, using the hold-out points two at a time,
  and accumulate outer products of the paired differences with weight
  n^2 / m;
* perturb: replace a different (round-robin) sample per hold-out point
  and accumulate outer products of changes from the unperturbed risks
  with weight n^2 / (2 m).

Both fit the bank once on the original data, get the risk vectors of
all their replacements from one ``replace_one_cv_risks`` call, and share
one accumulator.  Their ``workers`` keyword passes through to that call:
above one, the refits run on that many forked worker processes, and the
estimate is bitwise the same.
They are exactly symmetric PSD by construction and scale as averages in
the number of hold-out points used.  The module only returns estimates;
``cli_harness.run_phi`` writes them as a CSV with a JSON sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cv_engine import FoldFits, cv_risk, fit_all_folds, loss_matrix, replace_one_cv_risks
from .datamodel import Dataset, DomainError, FoldPlan, LearnerSpec, _as_float_array, _integer

__all__ = [
    "ParityError",
    "HoldoutSet",
    "PhiEstimate",
    "default_holdout_size",
    "default_perturb_schedule",
    "phi_pair",
    "phi_perturb",
]


class ParityError(DomainError):
    """The paired variant needs an even number of hold-out points."""


@dataclass(frozen=True)
class HoldoutSet(Dataset):
    """Fresh rows from the data distribution, disjoint from the CV data:
    a Dataset, checked as one, of m hold-out points."""

    @property
    def m(self) -> int:
        return self.n

    def row(self, j: int) -> tuple[np.ndarray, float]:
        return self.features[j], float(self.response[j])

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "HoldoutSet":
        return cls(ds.features, ds.response)


@dataclass(frozen=True)
class PhiEstimate:
    """Symmetric p x p variance estimate with its provenance.

    ``indices`` records which dataset rows were perturbed: a single entry
    for the pair variant (the same row throughout) and the full schedule
    for the perturb variant.
    """

    phi: np.ndarray
    m: int
    variant: str
    indices: tuple[int, ...]
    model_labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_float_array(self.phi, "phi", 2))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.phi.shape[0] != self.phi.shape[1]:
            raise DomainError("phi must be square")
        if self.variant not in ("pair", "perturb"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if not np.all(np.isfinite(self.phi)):
            raise DomainError("phi entries must be finite")

    @property
    def p(self) -> int:
        return self.phi.shape[0]


def default_holdout_size(n: int) -> int:
    """ceil(n ** 0.6), rounded up to the next even integer."""
    if _integer(n, "row counts") < 1:
        raise DomainError("n must be positive")
    m = math.ceil(n**0.6)
    return m + (m % 2)


def default_perturb_schedule(n: int, m: int) -> tuple[int, ...]:
    """Round-robin over dataset rows: j-th hold-out point perturbs row j mod n."""
    if _integer(n, "row counts") < 1 or _integer(m, "hold-out sizes") < 1:
        raise DomainError("schedule needs positive n and m")
    return tuple(j % n for j in range(m))


_PAIR_ROW = 0  # the dataset row the pair variant replaces


def _base_fits(
    dataset: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan, holdout: HoldoutSet
) -> tuple[tuple[LearnerSpec, ...], FoldFits]:
    specs = tuple(specs)
    if not specs:
        raise DomainError("need at least one learner")
    if holdout.d != dataset.d:
        raise DomainError(f"hold-out has {holdout.d} features but the dataset has {dataset.d}")
    return specs, fit_all_folds(dataset, specs, plan)


def _estimate(variant, indices, specs, holdout, scale, pairs) -> PhiEstimate:
    """Sum the outer products of a - b over the risk-vector pairs (a, b),
    multiply by ``scale`` and symmetrize."""
    phi = np.zeros((len(specs), len(specs)))
    for a, b in pairs:
        delta = a.values - b.values
        phi += np.outer(delta, delta)
    phi *= scale
    return PhiEstimate(
        phi=(phi + phi.T) / 2,
        m=holdout.m,
        variant=variant,
        indices=indices,
        model_labels=tuple(spec.label() for spec in specs),
    )


def phi_pair(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    holdout: HoldoutSet,
    *,
    workers: int = 1,
) -> PhiEstimate:
    """Paired-difference variance estimate.

    For each consecutive hold-out pair (2j, 2j+1), recompute the risk
    vector with row 0 swapped for each point and add
    the outer product of the difference; the total is scaled by n^2 / m.
    """
    if holdout.m % 2 != 0 or holdout.m < 2:
        raise ParityError(f"pair variant needs even m >= 2, got {holdout.m}")
    specs, fits = _base_fits(dataset, specs, plan, holdout)
    n = dataset.features.shape[0]
    swaps = [(_PAIR_ROW, holdout.row(j)) for j in range(holdout.m)]
    risks = replace_one_cv_risks(dataset, specs, plan, swaps, fits, workers=workers)
    pairs = zip(risks[0::2], risks[1::2])
    return _estimate("pair", (_PAIR_ROW,), specs, holdout, n**2 / holdout.m, pairs)


def phi_perturb(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    holdout: HoldoutSet,
    *,
    workers: int = 1,
) -> PhiEstimate:
    """Multi-index variant: hold-out point j replaces row j mod n
    (``default_perturb_schedule``).

    Accumulates outer products of (baseline risks - perturbed risks) over
    the whole hold-out set and scales by n^2 / (2 m).
    """
    if holdout.m < 1:
        raise DomainError("perturb variant needs m >= 1")
    n = dataset.features.shape[0]
    schedule = default_perturb_schedule(n, holdout.m)
    specs, fits = _base_fits(dataset, specs, plan, holdout)
    base = cv_risk(loss_matrix(dataset, fits, plan, "squared"))
    swaps = [(i, holdout.row(j)) for j, i in enumerate(schedule)]
    risks = replace_one_cv_risks(dataset, specs, plan, swaps, fits, workers=workers)
    pairs = ((base, risk) for risk in risks)
    return _estimate("perturb", schedule, specs, holdout, n**2 / (2 * holdout.m), pairs)
