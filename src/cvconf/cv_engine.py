"""V-fold fitting engine and held-out loss bookkeeping.

Row i is always scored by the model fitted with row i's fold held
out, so column means of the loss matrix are honest V-fold risks.
Every fit of the bank goes through one path, ``_fit_sets``, which fits
it on many training sets in one call: the V folds of a full run
(``fit_all_folds``), the m x (V - 1) refitted folds of m replace-one
risks (``replace_one_cv_risks``, whose one-swap form is
``replace_one_cv_risk``).  Every training set is fitted by the same
rule, one fit per bank position; the specs and the data were checked
when they were built.

Training moments are sums of fold blocks.  Fold u's block is
B_u = Z_u'Z_u and c_u = Z_u'y_u over its own held-out rows
(``_fold_block``), and fold v's training set has the moments
Z'Z/n_v = (sum of B_u over u != v) / n_v and Z'y/n_v likewise, the
blocks added in fold order (``_training_moments``).  ``fit_all_folds``
computes the V blocks once; a chunk of replace-one swaps computes them
once and, for each swap, recomputes only the swapped fold's block.  A
replace-one risk and a from-scratch run on the replaced data sum the
same blocks in the same order, so they agree bit for bit; a fold fit
equals a standalone ``fit_lasso``, ``fit_ridge`` or ``fit_forward`` on
the training rows, which forms Z'Z in one product, only to rounding.
Every family fits from these moments alone, so no training row is
gathered: rows are read only to build fold blocks and to score held-out
folds.  The normal equations square cond(Z); the training designs of
the shipped configs are Gaussian with d/n <= 0.1, where that costs
only rounding.

The lasso problems of a batch of sets are solved together by
``learners.lasso_bank``.  Each caller says how many sets it will fit,
and they go in the fewest batches whose stacked d x d grams fit in
``GRAM_STACK_BYTES`` (8 MiB), of sizes that differ by at most one.  So
a process stacks at most max(8 MiB, 8 d^2 bytes) of grams at once,
plus a d-vector per gram: 104 grams of 100^2 at d = 100, where a
two-worker chunk of 128 refitted sets goes in two calls of 64.  A
replace-one swap reuses the fits of the fold that holds its row.  With
``workers`` > 1, ``replace_one_cv_risks`` splits its
swaps into contiguous chunks run by worker processes forked from the
caller; they inherit the data and fits, so only chunk bounds go in
and risk vectors come out, and the results are bitwise those of the
in-process run.
"""

from __future__ import annotations

import functools
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
    _integer,
    _replacement,
)
from .learners import ConvergenceError, _forward_solve, _lasso_fit, _ridge_solve, lasso_bank
from .simgen import SparseLinearTruth


# Bytes of d x d grams one lasso kernel call may stack.  lasso_bank pays
# numpy call overhead per coordinate step, not per problem, so its cost per
# problem falls as a call holds more, down to about 1000 problems.
# scripts/kernel_cost.py at the phi_wide shape (d = 100, 10 penalties, one
# BLAS thread, 2-core x86_64):
#
#       K   call ms  steps  us/step  us/problem
#      64      10.6   1000    10.56       165.0
#     128      12.7   1000    12.71        99.3
#     256      16.3   1000    16.33        63.8
#     512      24.3   1000    24.33        47.5
#    1024      42.2   1100    38.39        41.2
#    2048      87.1   1100    79.22        42.5
#    step time ~ 7.29 us + 0.0342 us per problem
#
# 8 MiB holds 104 grams of 100^2, 1040 problems at the phi_wide shape, so a
# worker's chunk of 128 refitted sets goes in two calls of 64 and the 256
# of a one-worker campaign in three (86, 85, 85).
GRAM_STACK_BYTES = 8 * 2**20


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


def _batch_sizes(count: int, d: int) -> list[int]:
    """Sizes of the fewest batches of ``count`` training sets of d features
    whose stacked d x d grams fit in ``GRAM_STACK_BYTES`` (one gram a batch
    at least), largest first; any two differ by at most one."""
    calls = -(-count // max(1, GRAM_STACK_BYTES // (8 * d * d)))
    return [count // calls + (k < count % calls) for k in range(calls)]


def _fit_sets(specs: Sequence[LearnerSpec], sets, count: int):
    """Yield the fits of every spec on each of the ``count`` training sets
    (v, blocks) of ``sets``, in order; every spec was checked when it
    was built.

    Set v trains on every fold but v: ``blocks`` holds the V fold blocks
    (``_fold_block``) in fold order.  Every set is fitted by one rule.
    Its Z'Z/n and Z'y/n are the sums of the blocks of the other folds,
    added in fold order straight into the gram and corr stacks of its
    batch (``_training_moments``), and the specs of other families than
    the lasso are fitted from them at once, in bank order
    (``_fit_now``), so no family reads a training row.  The ``count``
    sets go in the fewest batches whose stacked grams fit in
    ``GRAM_STACK_BYTES``, of sizes that differ by at most one
    (``_batch_sizes``).  A full batch goes through one ``lasso_bank``
    call, with one problem per lasso position of each set, and its fits
    are then yielded, so a consumer can drop them before later sets are
    fitted.  Every fit is a pure function of its spec and its blocks,
    and the kernel fits each problem as fit_lasso would on its own gram,
    so identical specs get bitwise-equal fits, the batching changes no
    fit, and permuting the bank permutes the fits exactly.  A failure
    raises FitError for the first failing (set, model) in that order.
    """
    lasso = [r for r, spec in enumerate(specs) if spec.family == "lasso"]
    sizes = None
    batch: list[tuple] = []  # (v, row) of the waiting sets
    problems: list[tuple[int, int]] = []  # their (set, lasso position) problems
    for v, blocks in sets:
        d = blocks[0][1].size
        if not batch:
            if sizes is None:
                sizes = iter(_batch_sizes(count, d))
            size = next(sizes, 0)
            if not size:
                raise ValueError(f"more training sets came than the {count} counted")
            grams, corrs = np.empty((size, d, d)), np.empty((size, d))
        slot = len(batch)
        gram, corr = grams[slot], corrs[slot]
        _training_moments(blocks, v, gram, corr)
        row: list = [None] * len(specs)
        failed = None
        for r, spec in enumerate(specs):
            if spec.family != "lasso":
                try:
                    row[r] = _fit_now(spec, gram, corr)
                except Exception as exc:
                    failed = (r, spec, exc)
                    break
        # only lasso positions before a failing one are in order before it
        problems += [(slot, r) for r in lasso if failed is None or r < failed[0]]
        batch.append((v, row))
        if failed is not None:
            # a lasso failure earlier in the order comes first
            _fit_batch(specs, batch, problems, grams[: slot + 1], corrs[: slot + 1])
            r, spec, exc = failed
            raise FitError(v, r, spec, exc) from exc
        if len(batch) == size:
            yield from _fit_batch(specs, batch, problems, grams, corrs)
            batch, problems = [], []
    if batch:
        raise ValueError(f"fewer training sets came than the {count} counted")


def _fit_batch(
    specs: Sequence[LearnerSpec], batch: list[tuple], problems: list, grams, corrs
) -> list[tuple]:
    """Fit the (set, lasso position) ``problems`` of ``batch``, whose Z'Z/n
    and Z'y/n are ``grams`` and ``corrs``, in one ``lasso_bank`` call,
    place each fit in its set's row and return the rows; the first failing
    (set, model) raises FitError."""
    if problems:
        slots, lasso = zip(*problems)
        coefs, sweeps, ok = lasso_bank(grams, corrs, slots, [specs[r].lam for r in lasso])
        for k, (slot, r) in enumerate(problems):
            v, row = batch[slot]
            try:
                row[r] = _lasso_fit(coefs[k], sweeps[k], ok[k], specs[r].lam)
            except ConvergenceError as exc:
                raise FitError(v, r, specs[r], exc) from exc
    return [tuple(row) for _, row in batch]


def _fit_now(spec: LearnerSpec, gram, corr) -> FittedModel:
    """Fit one spec of a family other than the lasso from the Z'Z/n and
    Z'y/n of its training rows, ``gram`` and ``corr``."""
    if spec.family == "ridge":
        return FittedModel(family="ridge", coef=_ridge_solve(gram, corr, spec.lam))
    return _forward_solve(gram, corr, spec.steps)


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


def _fold_block(dataset: Dataset, ix: np.ndarray, swap=None) -> tuple[np.ndarray, np.ndarray, int]:
    """The block (Z'Z, Z'y, rows) of one fold's held-out rows ``ix``, with
    the replacement ``swap`` = (i, z, y) made when row i is among them."""
    Z, y = _rows(dataset, ix, swap)
    return Z.T @ Z, Z.T @ y, ix.size


def _training_moments(blocks, v: int, gram: np.ndarray, corr: np.ndarray) -> None:
    """Write fold v's training Z'Z/n and Z'y/n into ``gram`` and ``corr``:
    the blocks of every other fold, added in fold order, over their rows."""
    others = [block for u, block in enumerate(blocks) if u != v]
    np.copyto(gram, others[0][0])
    np.copyto(corr, others[0][1])
    for B, c, _ in others[1:]:
        gram += B
        corr += c
    n = sum(rows for _, _, rows in others)
    gram /= n
    corr /= n


def fit_all_folds(dataset: Dataset, specs: Sequence[LearnerSpec], plan: FoldPlan) -> FoldFits:
    """Fit every candidate on every training complement (see _fit_sets)."""
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    specs = tuple(specs)
    if not specs:
        raise DomainError("need at least one learner spec")
    blocks = [_fold_block(dataset, ix) for ix in plan.index_sets]
    fits = tuple(_fit_sets(specs, ((v, blocks) for v in range(plan.V)), plan.V))
    return FoldFits(fits=fits, specs=specs, plan=plan)


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


def _check_plan(fold_fits: FoldFits, plan: FoldPlan) -> None:
    """Refuse ``plan`` unless it has the n and V that ``fold_fits`` were
    fitted on, so every row is scored by the fit that held it out."""
    if fold_fits.plan is not plan and (fold_fits.plan.n != plan.n or fold_fits.plan.V != plan.V):
        raise DomainError("cached fits were built for a different fold plan")


def loss_matrix(dataset: Dataset, fold_fits: FoldFits, plan: FoldPlan, losses) -> LossMatrix:
    """Held-out squared loss of every model on every row; ``losses``
    must be "squared" and ``plan`` the plan the fits were built on."""
    if not (isinstance(losses, str) and losses == "squared"):
        raise DomainError(f"only squared loss is supported, got {losses!r}")
    _check_plan(fold_fits, plan)
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    values = _loss_values(dataset, fold_fits.fits, plan)
    labels = tuple(spec.label() for spec in fold_fits.specs)
    return LossMatrix(values, plan, labels)


def cv_risk(lm: LossMatrix) -> RiskVector:
    """Column means of the loss matrix."""
    return RiskVector(values=lm.values.mean(axis=0), n=lm.n, model_labels=lm.model_labels)


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
    if _integer(workers, "worker counts") < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    specs = tuple(specs)
    _check_plan(cached, plan)
    if cached.specs != specs:
        raise DomainError("cached fits were built for a different learner bank")
    if plan.n != dataset.n:
        raise DomainError(f"plan covers {plan.n} rows, dataset has {dataset.n}")
    swaps = [_replacement(i, *x_new, dataset.n, dataset.d) for i, x_new in swaps]
    job = functools.partial(_risk_range, dataset, specs, plan, swaps, cached)
    chunks = min(workers, len(swaps))
    if chunks > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            bounds = [k * len(swaps) // chunks for k in range(chunks + 1)]
            return _on_fork_pool(job, bounds)
    return job(0, len(swaps))


def _risk_range(dataset, specs, plan, swaps, cached, lo: int, hi: int) -> list[RiskVector]:
    """Risk vectors of the checked swaps[lo:hi], refitted in one fit call.

    The V fold blocks are computed once for the chunk; each swap
    recomputes only the block of the fold that holds its row."""
    labels = tuple(spec.label() for spec in specs)
    chunk = swaps[lo:hi]
    base = [_fold_block(dataset, ix) for ix in plan.index_sets]

    def sets():
        for swap in chunk:
            kept = plan.fold_of[swap[0]]
            blocks = base.copy()
            blocks[kept] = _fold_block(dataset, plan.index_sets[kept], swap)
            yield from ((v, blocks) for v in range(plan.V) if v != kept)

    refitted = _fit_sets(specs, sets(), len(chunk) * (plan.V - 1))
    risks = []
    for swap in chunk:
        kept = plan.fold_of[swap[0]]
        # the list is dropped with the call, so a swap's fits are gone
        # before the next swap is fitted
        values = _loss_values(
            dataset,
            [cached.fits[v] if v == kept else next(refitted) for v in range(plan.V)],
            plan,
            swap,
        )
        risks.append(cv_risk(LossMatrix(values, plan, labels)))
    return risks


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
) -> RiskVector:
    """Risk vector after swapping row i for x_new = (z, y): the one-swap
    form of replace_one_cv_risks."""
    return replace_one_cv_risks(dataset, specs, plan, [(i, x_new)], cached)[0]


def average_fitted_risk_oracle(fold_fits: FoldFits, truth) -> np.ndarray:
    """Exact conditional risk averaged over folds, for the identity-
    covariance Gaussian design under squared loss:
    noise variance plus the squared coefficient error of each fold fit.
    """
    if not isinstance(truth, SparseLinearTruth):
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
