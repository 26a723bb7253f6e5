"""V-fold fitting engine and held-out loss bookkeeping.

Row i is always scored by the model fitted with row i's fold held
out, so column means of the loss matrix are honest V-fold risks.
Every refit, whether a full V-fold run, a replace-one risk or a
replace-one loss difference, goes through one per-fold path,
``_fit_fold``.  Replace-one recomputation reuses the one fold whose
training rows are untouched and refits the others, reproducing a
from-scratch run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import (
    Dataset,
    DomainError,
    FittedModel,
    FoldPlan,
    LearnerSpec,
    LossMatrix,
    LOSS_TAGS,
    validate_dataset,
)
from .learners import fit_forward, fit_lasso, fit_ols, fit_ridge, fit_series, fit_sgd
from .simgen import SparseLinearTruth


class FitError(RuntimeError):
    """A learner failed inside the fold loop; carries the location."""

    def __init__(self, fold: int, model: int, spec: LearnerSpec, cause: Exception):
        super().__init__(
            f"fit failed at fold {fold}, model {model} ({spec.label()}): {cause}"
        )
        self.fold = fold
        self.model = model
        self.cause = cause


@dataclass(frozen=True)
class FoldFits:
    """Fitted models indexed fits[v][r] for fold v, candidate r."""

    fits: tuple[tuple[FittedModel, ...], ...]
    specs: tuple[LearnerSpec, ...]
    plan: FoldPlan


@dataclass(frozen=True)
class RiskVector:
    """Cross-validated risk per candidate model."""

    values: np.ndarray
    n: int
    model_labels: tuple[str, ...]

    @property
    def p(self) -> int:
        return self.values.shape[0]


def _fit_fold(
    specs: Sequence[LearnerSpec], Z: np.ndarray, y: np.ndarray, v: int
) -> tuple[FittedModel, ...]:
    """Fit every spec on fold v's training rows (Z, y).

    Identical specs share one fit, and every lasso spec shares one
    Z'Z/n and Z'y/n, built when the first lasso spec appears.  That is
    the formula fit_lasso uses on its own, so neither shortcut changes
    a fit, and permuting the bank permutes the fits exactly.
    """
    seen: dict[LearnerSpec, FittedModel] = {}
    gram = corr = None
    row: list[FittedModel] = []
    for r, spec in enumerate(specs):
        model = seen.get(spec)
        if model is None:
            try:
                if spec.family == "ols":
                    model = fit_ols(Z, y)
                elif spec.family == "ridge":
                    model = fit_ridge(Z, y, spec.lam)
                elif spec.family == "lasso":
                    if gram is None:
                        gram, corr = Z.T @ Z / Z.shape[0], Z.T @ y / Z.shape[0]
                    model = fit_lasso(Z, y, spec.lam, gram=gram, corr=corr)
                elif spec.family == "forward":
                    model = fit_forward(Z, y, spec.steps)
                elif spec.family == "sgd":
                    model = fit_sgd(Z, y, spec.sgd)
                elif spec.family == "series":
                    model = fit_series(Z, y, spec.truncation)
                else:
                    raise DomainError(f"unknown learner family {spec.family!r}")
            except Exception as exc:
                raise FitError(v, r, spec, exc) from exc
            seen[spec] = model
        row.append(model)
    return tuple(row)


def fit_all_folds(dataset: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan) -> FoldFits:
    """Fit every candidate on every training complement (see _fit_fold)."""
    problems = validate_dataset(dataset)
    if problems:
        raise DomainError("dataset invalid: " + "; ".join(problems))
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    specs = tuple(specs)
    if not specs:
        raise DomainError("need at least one learner spec")
    for spec in specs:
        spec.validate()
    fits = []
    for v in range(plan.V):
        tr = plan.train_indices(v)
        fits.append(_fit_fold(specs, dataset.features[tr], dataset.response[tr], v))
    return FoldFits(fits=tuple(fits), specs=specs, plan=plan)


def _resolve_losses(losses, p: int) -> list[str]:
    if isinstance(losses, str):
        tags = [losses] * p
    else:
        tags = list(losses)
        if len(tags) != p:
            raise DomainError(f"{len(tags)} loss tags for {p} models")
    for tag in tags:
        if tag not in LOSS_TAGS:
            raise DomainError(f"unknown loss tag {tag!r}")
    return tags


def _apply_loss(tag: str, y: np.ndarray, score: np.ndarray) -> np.ndarray:
    if tag == "squared":
        return (y - score) ** 2
    if tag == "absolute":
        return np.abs(y - score)
    # zero_one: class 1 whenever the logistic link of the score reaches 1/2
    pred = (score >= 0.0).astype(np.float64)
    return (pred != y).astype(np.float64)


def loss_matrix(dataset: Dataset, fold_fits: FoldFits, plan: FoldPlan, losses) -> LossMatrix:
    """Held-out loss of every model on every row."""
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    p = len(fold_fits.specs)
    tags = _resolve_losses(losses, p)
    values = np.empty((dataset.n, p))
    for v in range(plan.V):
        ix = plan.index_sets[v]
        block_Z = dataset.features[ix]
        block_y = dataset.response[ix]
        coefs = np.column_stack([fold_fits.fits[v][r].coef for r in range(p)])
        icepts = np.array([fold_fits.fits[v][r].intercept for r in range(p)])
        scores = block_Z @ coefs + icepts
        for r in range(p):
            values[ix, r] = _apply_loss(tags[r], block_y, scores[:, r])
    labels = tuple(spec.label() for spec in fold_fits.specs)
    return LossMatrix(values, plan, labels)


def cv_risk(lm: LossMatrix) -> RiskVector:
    """Column means of the loss matrix."""
    return RiskVector(values=lm.values.mean(axis=0), n=lm.n, model_labels=lm.model_labels)


def replace_one_cv_risk(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    i: int,
    x_new,
    cached: FoldFits,
    losses="squared",
) -> RiskVector:
    """Risk vector after swapping row i for x_new = (z, y).

    The fold containing row i never trains on it, so its cached fits
    are reused; every other fold is refitted on the modified rows.
    Results equal a full recomputation bit for bit.
    """
    specs = tuple(specs)
    if cached.plan is not plan and (cached.plan.n != plan.n or cached.plan.V != plan.V):
        raise DomainError("cached fits were built for a different fold plan")
    if cached.specs != specs:
        raise DomainError("cached fits were built for a different learner bank")
    z_new, y_new = x_new
    ds2 = dataset.replace_row(i, np.asarray(z_new, dtype=np.float64), float(y_new))
    v_i = int(plan.fold_of[i])
    fits = []
    for v in range(plan.V):
        if v == v_i:
            fits.append(cached.fits[v])
        else:
            tr = plan.train_indices(v)
            fits.append(_fit_fold(specs, ds2.features[tr], ds2.response[tr], v))
    ff2 = FoldFits(fits=tuple(fits), specs=specs, plan=plan)
    return cv_risk(loss_matrix(ds2, ff2, plan, losses))


def loss_first_diff(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    eval_index: int,
    i: int,
    x_new,
    losses="squared",
) -> np.ndarray:
    """Per-model change in the loss at one evaluation point when training
    row i is replaced.

    The evaluation row's own fold is held out; i must lie in the training
    complement.  Both fits are fresh, so any learner family works.  The
    value is signed: loss(before) - loss(after).
    """
    n = dataset.features.shape[0]
    if not 0 <= eval_index < n:
        raise DomainError(f"evaluation index {eval_index} outside [0, {n})")
    if not 0 <= i < n:
        raise DomainError(f"index {i} outside [0, {n})")
    v0 = int(plan.fold_of[eval_index])
    if int(plan.fold_of[i]) == v0:
        raise DomainError(
            f"row {i} shares fold {v0} with the evaluation point; replace a training row"
        )
    specs = tuple(specs)
    tags = _resolve_losses(losses, len(specs))
    z_new, y_new = x_new
    ds2 = dataset.replace_row(i, np.asarray(z_new, dtype=np.float64), float(y_new))
    tr = plan.train_indices(v0)
    before = _fit_fold(specs, dataset.features[tr], dataset.response[tr], v0)
    after = _fit_fold(specs, ds2.features[tr], ds2.response[tr], v0)
    z0 = dataset.features[eval_index][None, :]
    y0 = np.array([float(dataset.response[eval_index])])
    return np.array(
        [
            _apply_loss(tag, y0, b.predict(z0))[0] - _apply_loss(tag, y0, a.predict(z0))[0]
            for tag, b, a in zip(tags, before, after)
        ]
    )


def average_fitted_risk_oracle(fold_fits: FoldFits, truth) -> np.ndarray:
    """Exact conditional risk averaged over folds, for the identity-
    covariance Gaussian design under squared loss:
    noise variance plus the squared coefficient error of each fold fit.
    """
    if not isinstance(truth, SparseLinearTruth) or truth.design != "gaussian-identity":
        raise DomainError(
            "risk oracle only supports the identity-covariance Gaussian design"
        )
    for spec in fold_fits.specs:
        if spec.loss != "squared":
            raise DomainError("risk oracle only supports squared loss")
    p = len(fold_fits.specs)
    V = fold_fits.plan.V
    out = np.empty(p)
    for r in range(p):
        acc = 0.0
        for v in range(V):
            model = fold_fits.fits[v][r]
            if model.intercept != 0.0:
                raise DomainError("risk oracle assumes centered linear predictors")
            delta = model.coef - truth.beta
            acc += truth.noise_var + float(delta @ delta)
        out[r] = acc / V
    return out
