"""V-fold fitting engine and held-out loss bookkeeping.

Row i is always scored by the model fitted with row i's fold held
out, so column means of the loss matrix are honest V-fold risks.
Every fit of the bank goes through one path, ``_fit_sets``, which fits
it on many training sets in one call: the V folds of a full run
(``fit_all_folds``), the m x (V - 1) refitted folds of m replace-one
risks (``replace_one_cv_risks``, whose one-swap form is
``replace_one_cv_risk``), and the two sets of a replace-one loss
difference (``loss_first_diff``).  The lasso problems of all the sets
are solved together by ``learners.lasso_bank``.  Replace-one
recomputation reuses the one fold whose training rows are untouched
and refits the others, reproducing a from-scratch run exactly.  With
``workers`` > 1, ``replace_one_cv_risks`` splits its swaps into
contiguous chunks run by worker processes forked from the caller; they
inherit the data and fits, so only chunk bounds go in and risk vectors
come out, and the results are bitwise those of the in-process run.
"""

from __future__ import annotations

import functools
from collections import deque
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
    validate_dataset,
)
from .learners import ConvergenceError, _lasso_fit, fit_forward, fit_ridge, fit_series, lasso_bank
from .simgen import SparseLinearTruth


class FitError(RuntimeError):
    """A learner failed inside the fold loop; carries the location."""

    def __init__(self, fold: int, model: int, spec: LearnerSpec, cause: Exception):
        super().__init__(
            f"fit failed at fold {fold}, model {model} ({spec.label()}): {cause}"
        )
        self.fold = fold
        self.model = model
        self.spec = spec
        self.cause = cause

    def __reduce__(self):
        # a worker process's failure reaches the caller pickled
        return type(self), (self.fold, self.model, self.spec, self.cause)


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


class _LassoQueue:
    """Lasso problems of a fit call waiting for one ``lasso_bank`` call.

    Each queued training set adds its Z'Z/n and Z'y/n once, by the
    formula fit_lasso uses on its own, and its problems read them
    through an index.  The stack holds n // d grams of d x d for sets of
    n rows, so it never outgrows the rows of one set; the kernel is
    called when it is full.  Problems keep the order in which the fit
    call meets them, so the first failure found is the first in that
    order.
    """

    def __init__(self, n: int, d: int):
        self.capacity = max(1, n // max(1, d))
        self.grams = np.empty((self.capacity, d, d))
        self.corrs = np.empty((self.capacity, d))
        self.count = 0
        # (gram slot, the set's row of fits, fold, spec, the spec's positions)
        self.problems: list[tuple[int, list, int, LearnerSpec, list[int]]] = []

    def add(self, row: list, v: int, Z: np.ndarray, y: np.ndarray, positions: dict) -> None:
        """Queue a set's lasso specs, given with their positions in its row."""
        n = Z.shape[0]
        self.grams[self.count] = Z.T @ Z / n
        self.corrs[self.count] = Z.T @ y / n
        for spec, pos in positions.items():
            self.problems.append((self.count, row, v, spec, pos))
        self.count += 1

    def flush(self) -> None:
        """Fit every queued problem and place each fit in its set's row."""
        if self.problems:
            slots, _, _, specs, _ = zip(*self.problems)
            lams = [spec.lam for spec in specs]
            coefs, sweeps, ok = lasso_bank(
                self.grams[: self.count], self.corrs[: self.count], slots, lams
            )
            for k, (_, row, v, spec, pos) in enumerate(self.problems):
                try:
                    model = _lasso_fit(coefs[k], sweeps[k], ok[k], spec.lam)
                except ConvergenceError as exc:
                    raise FitError(v, pos[0], spec, exc) from exc
                for r in pos:
                    row[r] = model
        self.problems.clear()
        self.count = 0


def _fit_sets(specs: Sequence[LearnerSpec], sets):
    """Yield the fits of every spec on each training set (v, Z, y) of
    ``sets``, in order.

    ``sets`` may be a generator: each set's rows are used and dropped
    before the next is built, and only its gram waits for the lasso
    kernel.  A set's fits are yielded once all of them are made, so a
    consumer can drop them before later sets are fitted.  Identical
    specs of one set share one fit.  Every other family is fitted at
    once; the lasso problems of all sets go through ``lasso_bank``
    calls, each over the grams of as many sets as ``_LassoQueue`` holds.
    The kernel fits each problem as fit_lasso would on its own, so
    neither the sharing nor the batching changes a fit, and permuting
    the bank permutes the fits exactly.  A failure
    raises FitError for the first failing (set, model) in that order.
    """
    waiting: deque[list] = deque()  # rows not yet yielded, in set order
    queue: _LassoQueue | None = None
    for v, Z, y in sets:
        row: list = [None] * len(specs)
        waiting.append(row)
        first: dict[LearnerSpec, int] = {}
        lasso: dict[LearnerSpec, list[int]] = {}  # queued specs and their positions
        failure = None
        for r, spec in enumerate(specs):
            if spec in lasso:
                lasso[spec].append(r)
            elif spec in first:
                row[r] = row[first[spec]]
            else:
                first[spec] = r
                try:
                    if spec.family == "lasso":
                        if not spec.lam >= 0:
                            raise DomainError(f"lasso needs lam >= 0, got {spec.lam}")
                        lasso[spec] = [r]
                    else:
                        row[r] = _fit_now(spec, Z, y)
                except Exception as exc:
                    failure = (r, spec, exc)
                    break
        if lasso:
            queue = queue or _LassoQueue(*Z.shape)
            queue.add(row, v, Z, y, lasso)
        del Z, y  # the kernel needs only the gram
        if failure is not None:
            if queue is not None:
                queue.flush()  # a lasso failure earlier in the order comes first
            r, spec, exc = failure
            raise FitError(v, r, spec, exc) from exc
        if queue is not None and queue.count == queue.capacity:
            queue.flush()
        if queue is None or not queue.problems:
            while waiting:
                yield tuple(waiting.popleft())
    if queue is not None:
        queue.flush()
    while waiting:
        yield tuple(waiting.popleft())


def _fit_now(spec: LearnerSpec, Z: np.ndarray, y: np.ndarray) -> FittedModel:
    """Fit one spec of a family other than the lasso."""
    if spec.family == "ridge":
        return fit_ridge(Z, y, spec.lam)
    if spec.family == "forward":
        return fit_forward(Z, y, spec.steps)
    if spec.family == "series":
        return fit_series(Z, y, spec.truncation)
    raise DomainError(f"unknown learner family {spec.family!r}")


def _rows(dataset: Dataset, ix: np.ndarray, swap=None) -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of the ascending rows ``ix`` of the dataset, with the
    replacement ``swap`` = (i, z, y) made when row i is among them: the
    values, in the same layout, of those rows of ``replace_row``'s copy."""
    Z, y = dataset.features[ix], dataset.response[ix]
    if swap is not None:
        k = int(np.searchsorted(ix, swap[0]))
        if k < ix.size and ix[k] == swap[0]:
            Z[k] = swap[1]
            y[k] = swap[2]
    return Z, y


def fit_all_folds(dataset: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan) -> FoldFits:
    """Fit every candidate on every training complement (see _fit_sets)."""
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
    sets = ((v, *_rows(dataset, plan.train_indices(v))) for v in range(plan.V))
    fits = tuple(_fit_sets(specs, sets))
    return FoldFits(fits=fits, specs=specs, plan=plan)


def _check_squared(losses) -> None:
    """Every candidate is scored under squared loss; refuse any other tag."""
    if not (isinstance(losses, str) and losses == "squared"):
        raise DomainError(f"only squared loss is supported, got {losses!r}")


def _loss_values(dataset: Dataset, fits, plan: FoldPlan, swap=None) -> np.ndarray:
    """Held-out squared loss of every model on every row, on the dataset
    with the replacement ``swap`` = (i, z, y) made in a copy of row i's
    fold only."""
    values = np.empty((dataset.n, len(fits[0])))
    for v in range(plan.V):
        ix = plan.index_sets[v]
        block_Z, block_y = _rows(dataset, ix, swap)
        coefs = np.column_stack([model.coef for model in fits[v]])
        values[ix] = (block_y[:, None] - block_Z @ coefs) ** 2
    return values


def loss_matrix(dataset: Dataset, fold_fits: FoldFits, plan: FoldPlan, losses) -> LossMatrix:
    """Held-out squared loss of every model on every row; ``losses``
    must be "squared"."""
    _check_squared(losses)
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    values = _loss_values(dataset, fold_fits.fits, plan)
    labels = tuple(spec.label() for spec in fold_fits.specs)
    return LossMatrix(values, plan, labels)


def cv_risk(lm: LossMatrix) -> RiskVector:
    """Column means of the loss matrix."""
    return RiskVector(values=lm.values.mean(axis=0), n=lm.n, model_labels=lm.model_labels)


def _swap(dataset: Dataset, i, x_new) -> tuple[int, np.ndarray, float]:
    """Check one replacement (row i, (z, y)) as Dataset.replace_row does."""
    i = int(i)
    if not 0 <= i < dataset.n:
        raise DomainError(f"row index {i} outside [0, {dataset.n})")
    z_new, y_new = x_new
    z_new = np.asarray(z_new, dtype=np.float64)
    if z_new.shape != (dataset.d,):
        raise DomainError(f"replacement has shape {z_new.shape}, expected ({dataset.d},)")
    return i, z_new, float(y_new)


def replace_one_cv_risks(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    swaps,
    cached: FoldFits,
    *,
    workers: int = 1,
) -> list[RiskVector]:
    """Risk vector after each replacement (i, (z, y)) in ``swaps``, each
    made on its own.

    The fold containing row i never trains on it, so its cached fits
    are reused; the V - 1 other folds of every swap are refitted in one
    fit call, one training set at a time.  Each result equals a full
    recomputation on the replaced data bit for bit.

    With ``workers`` > 1 the swaps are split into min(workers, swaps)
    contiguous chunks, each refitted in its own fit call by a worker
    forked from this process (see ``_on_fork_pool``).  The kernel fits
    every problem alone, so the results are bitwise the in-process ones,
    and a failure raises FitError for the first failing (swap, fold,
    model) in order.  With one worker or one swap, or where the
    platform cannot fork, everything runs in this process.
    """
    specs = tuple(specs)
    if cached.plan is not plan and (cached.plan.n != plan.n or cached.plan.V != plan.V):
        raise DomainError("cached fits were built for a different fold plan")
    if cached.specs != specs:
        raise DomainError("cached fits were built for a different learner bank")
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    swaps = [_swap(dataset, i, x_new) for i, x_new in swaps]
    job = functools.partial(_risk_range, dataset, specs, plan, swaps, cached)
    chunks = min(workers, len(swaps))
    if chunks > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            bounds = [k * len(swaps) // chunks for k in range(chunks + 1)]
            return _on_fork_pool(job, bounds)
    return job(0, len(swaps))


def _risk_range(dataset, specs, plan, swaps, cached, lo: int, hi: int) -> list[RiskVector]:
    """Risk vectors of the checked swaps[lo:hi], refitted in one fit call."""
    labels = tuple(spec.label() for spec in specs)
    trains = [plan.train_indices(v) for v in range(plan.V)]
    chunk = swaps[lo:hi]

    def refitted():
        for swap in chunk:
            for v in range(plan.V):
                if v != plan.fold_of[swap[0]]:
                    yield (v, *_rows(dataset, trains[v], swap))

    def risk(swap, fits):
        values = _loss_values(dataset, fits, plan, swap)
        return cv_risk(LossMatrix(values, plan, labels))

    # a swap's fits are dropped before the next swap is fitted
    fitted = _fit_sets(specs, refitted())
    return [
        risk(swap, [cached.fits[v] if v == plan.fold_of[swap[0]] else next(fitted)
                    for v in range(plan.V)])
        for swap in chunk
    ]


_forked_job = None  # set by _adopt in a pool worker only


def _adopt(job) -> None:
    global _forked_job
    _forked_job = job


def _run_forked(lo: int, hi: int) -> list[RiskVector]:
    return _forked_job(lo, hi)


def _on_fork_pool(job, bounds: list[int]) -> list[RiskVector]:
    """``job(lo, hi)`` for each chunk [lo, hi) of ``bounds``, one forked
    worker per chunk, concatenated in chunk order.

    The workers get ``job`` through fork, never pickled, so only the
    bounds go to them and only the chunks' risk vectors come back.
    Results are read in chunk order, so the first failure raised is the
    first in swap order.  The pool is joined before this returns, also
    on an exception or an interrupt.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        len(bounds) - 1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(job,),
    ) as pool:
        futures = [pool.submit(_run_forked, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [risk for future in futures for risk in future.result()]


def replace_one_cv_risk(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    i: int,
    x_new,
    cached: FoldFits,
    losses="squared",
) -> RiskVector:
    """Risk vector after swapping row i for x_new = (z, y): the one-swap
    form of replace_one_cv_risks.  ``losses`` must be "squared"."""
    _check_squared(losses)
    return replace_one_cv_risks(dataset, specs, plan, [(i, x_new)], cached)[0]


def loss_first_diff(
    dataset: Dataset,
    specs: Sequence[LearnerSpec],
    plan: FoldPlan,
    eval_index: int,
    i: int,
    x_new,
) -> np.ndarray:
    """Per-model change in the squared loss at one evaluation point when
    training row i is replaced.

    The evaluation row's own fold is held out; i must lie in the training
    complement.  Both fits are fresh, made in one fit call over the two
    training sets, so any learner family works.  The value is signed:
    loss(before) - loss(after).
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
    for spec in specs:
        spec.validate()
    swap = _swap(dataset, i, x_new)
    tr = plan.train_indices(v0)
    sets = [(v0, *_rows(dataset, tr)), (v0, *_rows(dataset, tr, swap))]
    before, after = _fit_sets(specs, sets)
    z0 = dataset.features[eval_index][None, :]
    y0 = float(dataset.response[eval_index])
    return np.array(
        [((y0 - b.predict(z0)) ** 2 - (y0 - a.predict(z0)) ** 2)[0] for b, a in zip(before, after)]
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
    p = len(fold_fits.specs)
    V = fold_fits.plan.V
    out = np.empty(p)
    for r in range(p):
        acc = 0.0
        for v in range(V):
            delta = fold_fits.fits[v][r].coef - truth.beta
            acc += truth.noise_var + float(delta @ delta)
        out[r] = acc / V
    return out
