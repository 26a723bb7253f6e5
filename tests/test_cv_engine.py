"""Fold-wise fitting, held-out loss matrices, and risk vectors."""

import multiprocessing
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvconf import cv_engine
from cvconf.cv_engine import (
    FitError,
    FoldFits,
    average_fitted_risk_oracle,
    cv_risk,
    fit_all_folds,
    loss_matrix,
    replace_one_cv_risk,
    replace_one_cv_risks,
)
from cvconf.datamodel import Dataset, DomainError, LearnerSpec, LossMatrix, make_folds
from cvconf.learners import (
    ConvergenceError,
    fit_forward,
    fit_lasso,
    fit_ridge,
    lasso_bank,
    lasso_grid,
    lasso_grid_log,
)
from cvconf.simgen import SparseLinearGen, gen_sparse_linear

# one feature, four rows; both fold-out slopes work out to 1.6
HAND_Z = np.array([[1.0], [2.0], [3.0], [1.0]])
HAND_Y = np.array([2.0, 3.0, 5.0, 1.0])
FORK = "fork" in multiprocessing.get_all_start_methods()  # else replace-one runs in-process
OLS = LearnerSpec("ridge", lam=0.0)  # least squares


def _hand_setup():
    ds = Dataset(HAND_Z, HAND_Y)
    plan = make_folds(4, 2)
    fits = fit_all_folds(ds, [OLS], plan)
    return ds, plan, fits


def test_fit_all_folds_trains_on_complement():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
    plan = make_folds(20, 4)
    fits = fit_all_folds(ds, [OLS, LearnerSpec("ridge", lam=0.7), LearnerSpec("forward", steps=2)], plan)
    blocks = [(Z.T @ Z, Z.T @ ds.response[ix]) for ix in plan.index_sets for Z in [ds.features[ix]]]
    for v in range(4):
        tr = plan.train_indices(v)
        # the training moments are the other folds' blocks, added in fold order
        others = [blocks[u] for u in range(4) if u != v]
        gram, corr = others[0][0].copy(), others[0][1].copy()
        for B, c in others[1:]:
            gram += B
            corr += c
        gram, corr = gram / tr.size, corr / tr.size
        expect_ols, *_ = np.linalg.lstsq(gram, corr, rcond=None)
        assert np.array_equal(fits.fits[v][0].coef, expect_ols)
        expect_ridge = np.linalg.solve(gram + 0.7 * np.eye(3), corr)
        assert np.array_equal(fits.fits[v][1].coef, expect_ridge)
        # and a standalone fit on the training rows agrees to rounding
        Z, y = ds.features[tr], ds.response[tr]
        for model, lam in ((0, 0.0), (1, 0.7)):
            standalone = fit_ridge(Z, y, lam).coef
            assert np.allclose(fits.fits[v][model].coef, standalone, rtol=1e-12, atol=0)
        standalone = fit_forward(Z, y, 2)
        assert fits.fits[v][2].support == standalone.support
        assert np.allclose(fits.fits[v][2].coef, standalone.coef, rtol=1e-12, atol=0)


def test_fit_all_folds_identical_specs_identical_fits():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12))
    plan = make_folds(12, 3)
    specs = [LearnerSpec("lasso", lam=0.2), LearnerSpec("lasso", lam=0.2)]
    fits = fit_all_folds(ds, specs, plan)
    for v in range(3):
        assert np.array_equal(fits.fits[v][0].coef, fits.fits[v][1].coef)


def test_fit_all_folds_wraps_failures_with_location():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(8, 3)), rng.normal(size=8))
    plan = make_folds(8, 2)
    bad = LearnerSpec("forward", steps=5)  # wider than the data
    with pytest.raises(FitError) as err:
        fit_all_folds(ds, [OLS, bad], plan)
    assert err.value.fold == 0 and err.value.model == 1


def test_fit_all_folds_rejects_dirty_dataset():
    with pytest.raises(DomainError):
        ds = Dataset(np.ones((4, 2)), np.array([1.0, np.nan, 0.0, 2.0]))
        fit_all_folds(ds, [OLS], make_folds(4, 2))


def test_loss_matrix_hand_squared():
    ds, plan, fits = _hand_setup()
    lm = loss_matrix(ds, fits, plan, "squared")
    np.testing.assert_allclose(lm.values[:, 0], [0.16, 0.04, 0.04, 0.36], atol=1e-12)


def test_loss_matrix_hand_absolute():
    # every candidate is scored under squared loss; other tags are refused
    ds, plan, fits = _hand_setup()
    with pytest.raises(DomainError):
        loss_matrix(ds, fits, plan, "absolute")


def test_loss_matrix_per_model_tags():
    # a list of tags is refused, even one naming squared loss for every model
    ds, plan, _ = _hand_setup()
    fits = fit_all_folds(ds, [OLS, LearnerSpec("ridge", lam=0.5)], plan)
    for tags in (["squared", "absolute"], ["squared", "squared"], ["squared"]):
        with pytest.raises(DomainError):
            loss_matrix(ds, fits, plan, tags)


def test_loss_matrix_refuses_a_plan_the_fits_were_not_built_on():
    # with 2 folds, rows would be scored by fits that trained on them; with 10
    # there are more folds than fits
    ds, _ = gen_sparse_linear(SparseLinearGen(n=20, d=3, s=2, nu=10.0, seed=1))
    fits = fit_all_folds(ds, [LearnerSpec("ridge", lam=0.1)], make_folds(20, 5))
    for V in (2, 10):
        with pytest.raises(DomainError, match="cached fits were built for a different fold plan"):
            loss_matrix(ds, fits, make_folds(20, V), "squared")
    # an equal plan built apart is the same plan
    assert loss_matrix(ds, fits, make_folds(20, 5), "squared").n == 20


def test_cv_risk_matches_naive_summation():
    rng = np.random.default_rng(3)
    plan = make_folds(100, 5)
    vals = rng.normal(size=(100, 3)) ** 2
    lm = LossMatrix(vals, plan, ("a", "b", "c"))
    risk = cv_risk(lm)
    for r in range(3):
        acc = 0.0
        for i in range(100):
            acc += vals[i, r]
        assert abs(risk.values[r] - acc / 100) < 1e-12


@given(st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_cv_risk_affine_equivariance(seed):
    rng = np.random.default_rng(seed)
    plan = make_folds(20, 4)
    vals = rng.normal(size=(20, 2))
    a, b = float(rng.uniform(0.1, 3.0)), float(rng.uniform(-1, 1))
    base = cv_risk(LossMatrix(vals, plan, ("a", "b"))).values
    moved = cv_risk(LossMatrix(a * vals + b, plan, ("a", "b"))).values
    np.testing.assert_allclose(moved, a * base + b, atol=1e-10)


def test_spec_permutation_permutes_columns():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.normal(size=(20, 4)), rng.normal(size=20))
    plan = make_folds(20, 4)
    specs = [LearnerSpec("ridge", lam=0.1), LearnerSpec("lasso", lam=0.05), OLS]
    lm = loss_matrix(ds, fit_all_folds(ds, specs, plan), plan, "squared")
    perm = [2, 0, 1]
    specs_p = [specs[j] for j in perm]
    lm_p = loss_matrix(ds, fit_all_folds(ds, specs_p, plan), plan, "squared")
    assert np.array_equal(lm_p.values, lm.values[:, perm])
    assert np.array_equal(cv_risk(lm_p).values, cv_risk(lm).values[perm])


def test_replace_one_identity_is_bitwise_noop():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
    plan = make_folds(20, 4)
    specs = [LearnerSpec("ridge", lam=0.3), LearnerSpec("lasso", lam=0.02)]
    cached = fit_all_folds(ds, specs, plan)
    base = cv_risk(loss_matrix(ds, cached, plan, "squared"))
    i = 7
    risk = replace_one_cv_risk(ds, specs, plan, i, (ds.features[i], ds.response[i]), cached)
    assert np.array_equal(risk.values, base.values)


def test_replace_one_equals_from_scratch():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
    plan = make_folds(20, 4)
    specs = [
        LearnerSpec("ridge", lam=0.3),
        LearnerSpec("lasso", lam=0.05),
        LearnerSpec("forward", steps=2),
        LearnerSpec("lasso", lam=0.2),
        LearnerSpec("lasso", lam=0.05),
    ]
    cached = fit_all_folds(ds, specs, plan)
    z_new = rng.normal(size=3)
    y_new = float(rng.normal())
    for i in (0, 9, 19):
        fast = replace_one_cv_risk(ds, specs, plan, i, (z_new, y_new), cached)
        ds2 = ds.replace_row(i, z_new, y_new)
        slow = cv_risk(loss_matrix(ds2, fit_all_folds(ds2, specs, plan), plan, "squared"))
        assert np.array_equal(fast.values, slow.values)


@pytest.mark.parametrize(
    "n, V, mode, specs",
    [
        (12, 2, "strict", [LearnerSpec("lasso", lam=0.05), LearnerSpec("ridge", lam=0.1)]),
        (23, 4, "balanced", [LearnerSpec("lasso", lam=0.05), LearnerSpec("ridge", lam=0.1)]),
        (
            20,
            4,
            "strict",
            [
                LearnerSpec("forward", steps=2),
                LearnerSpec("lasso", lam=0.05),
                OLS,
                LearnerSpec("ridge", lam=0.1),
            ],
        ),
    ],
    ids=["two-folds", "unequal-folds", "a-bank-that-reads-rows"],
)
def test_replace_one_sums_the_fold_blocks_of_a_from_scratch_run(n, V, mode, specs):
    # each refitted training set sums the same fold blocks, one of them
    # recomputed with the swap, in the same order as a run on the replaced data
    rng = np.random.default_rng(23)
    ds = Dataset(rng.normal(size=(n, 3)), rng.normal(size=n))
    plan = make_folds(n, V, mode)
    cached = fit_all_folds(ds, specs, plan)
    swaps = [(i, (rng.normal(size=3), float(rng.normal()))) for i in (0, n // 2, n - 1)]
    for (i, (z, y)), fast in zip(swaps, replace_one_cv_risks(ds, specs, plan, swaps, cached)):
        ds2 = ds.replace_row(i, z, y)
        slow = cv_risk(loss_matrix(ds2, fit_all_folds(ds2, specs, plan), plan, "squared"))
        assert np.array_equal(fast.values, slow.values)


def test_a_chunk_of_k_swaps_computes_v_plus_k_fold_blocks_and_no_training_rows(monkeypatch):
    # the phi_wide shape and bank, then with forward selection and least
    # squares too: every family fits from the moments, so the 4 refitted sets
    # of each swap sum the chunk's 5 fold blocks, one of them recomputed
    ds, _ = gen_sparse_linear(SparseLinearGen(n=1000, d=100, s=5, nu=1000.0, seed=4))
    lams = [float(lam) for lam in lasso_grid(ds.features, ds.response, 5)]
    plan = make_folds(1000, 5)
    rows, _ = gen_sparse_linear(SparseLinearGen(n=7, d=100, s=5, nu=1000.0, seed=5))
    at = (0, 250, 999, 0, 400, 600, 800)
    swaps = [(i, (rows.features[j], rows.response[j])) for j, i in enumerate(at)]
    real_block, real_rows = cv_engine._fold_block, cv_engine._rows
    for extra in ([], [LearnerSpec("forward", steps=2), OLS]):
        specs = [LearnerSpec("forward", steps=0), LearnerSpec("ridge", lam=0.1), *extra]
        specs += [LearnerSpec("lasso", lam=lam) for lam in lams]
        cached = fit_all_folds(ds, specs, plan)
        blocks, gathered = [], []

        def counting_block(dataset, ix, swap=None):
            blocks.append(swap is not None)
            return real_block(dataset, ix, swap)

        def recording_rows(dataset, ix, swap=None):
            gathered.append(ix.size)
            return real_rows(dataset, ix, swap)

        monkeypatch.setattr(cv_engine, "_fold_block", counting_block)
        monkeypatch.setattr(cv_engine, "_rows", recording_rows)
        replace_one_cv_risks(ds, specs, plan, swaps, cached)
        monkeypatch.undo()
        assert blocks == [False] * 5 + [True] * 7
        # every gathered block of rows is one fold's 200: a block or a scored fold
        assert set(gathered) == {200}


def _bank_calls(monkeypatch):
    """(grams, gram index, penalties) of every lasso_bank call made."""
    calls = []

    def recording_bank(grams, corrs, gram_index, lams, *args):
        calls.append((grams.shape[0], list(gram_index), list(lams)))
        return lasso_bank(grams, corrs, gram_index, lams, *args)

    monkeypatch.setattr(cv_engine, "lasso_bank", recording_bank)
    return calls


def test_replace_one_lasso_refits_share_one_gram_per_fold(monkeypatch):
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
    plan = make_folds(20, 4)
    for lams in ([0.3, 0.1, 0.03], [0.3, 0.1, 0.3]):
        specs = [LearnerSpec("lasso", lam=lam) for lam in lams]
        specs.append(LearnerSpec("ridge", lam=0.5))
        cached = fit_all_folds(ds, specs, plan)
        calls = _bank_calls(monkeypatch)
        replace_one_cv_risk(ds, specs, plan, 6, (rng.normal(size=3), 0.4), cached)
        # three refitted folds, one problem per lasso position (a duplicated
        # spec included) on each, one gram per fold
        assert calls == [(3, [0, 0, 0, 1, 1, 1, 2, 2, 2], lams * 3)]
        monkeypatch.undo()


def _mixed_bank_instance():
    rng = np.random.default_rng(15)
    ds = Dataset(rng.normal(size=(24, 3)), rng.normal(size=24))
    plan = make_folds(24, 4)
    specs = [
        LearnerSpec("lasso", lam=0.3),
        LearnerSpec("ridge", lam=0.5),
        LearnerSpec("lasso", lam=0.01),
        LearnerSpec("lasso", lam=0.3),
        LearnerSpec("forward", steps=1),
        LearnerSpec("lasso", lam=0.0),
    ]
    return rng, ds, plan, specs


def test_replace_one_cv_risks_equal_one_swap_calls(monkeypatch):
    rng, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)
    # two replacements in every fold, one row replaced twice
    rows = [0, 6, 12, 18, 5, 11, 17, 23, 0]
    swaps = [(i, (rng.normal(size=3), float(rng.normal()))) for i in rows]
    one_by_one = [replace_one_cv_risk(ds, specs, plan, i, x, cached) for i, x in swaps]
    # 9 swaps refit 27 training sets of 3 features; 8 MiB holds 116,508 grams
    # of 3^2, so one call fits them all
    calls = []

    def recording_bank(grams, *args):
        calls.append(grams.shape[0])
        return lasso_bank(grams, *args)

    monkeypatch.setattr(cv_engine, "lasso_bank", recording_bank)
    together = replace_one_cv_risks(ds, specs, plan, swaps, cached)
    assert calls == [27]
    assert len(together) == len(swaps)
    for got, want in zip(together, one_by_one):
        assert np.array_equal(got.values, want.values)


def _first_scalar_failure(ds, plan, specs, swaps, **kwargs):
    """(fold, model, iterations) of the first lasso fit that fails, taking
    swaps, then refitted folds, then models in order."""
    for i, (z, y) in swaps:
        ds2 = ds.replace_row(i, z, y)
        for v in range(plan.V):
            if v == plan.fold_of[i]:
                continue
            tr = plan.train_indices(v)
            for r, spec in enumerate(specs):
                if spec.family == "lasso":
                    try:
                        fit_lasso(ds2.features[tr], ds2.response[tr], spec.lam, **kwargs)
                    except ConvergenceError as exc:
                        return v, r, exc.iterations
    return None


def test_replace_one_cv_risks_reports_the_first_nonconvergence_in_order(monkeypatch):
    rng, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)
    swaps = [(i, (rng.normal(size=3), float(rng.normal()))) for i in (20, 3, 9)]
    forced = dict(tol=1e-14, max_iter=2)
    want = _first_scalar_failure(ds, plan, specs, swaps, **forced)
    assert want is not None and want[1] > 0  # an earlier model converged first
    monkeypatch.setattr(cv_engine, "lasso_bank", lambda *args: lasso_bank(*args, **forced))
    with pytest.raises(FitError) as err:
        replace_one_cv_risks(ds, specs, plan, swaps, cached)
    assert isinstance(err.value.cause, ConvergenceError)
    assert (err.value.fold, err.value.model, err.value.cause.iterations) == want


def test_fit_and_convergence_errors_survive_pickling():
    spec = LearnerSpec("lasso", lam=0.01)
    err = FitError(2, 3, spec, ConvergenceError("no convergence", 7))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FitError and str(back) == str(err)
    assert (back.fold, back.model, back.spec) == (2, 3, spec)
    assert type(back.cause) is ConvergenceError and back.cause.iterations == 7
    assert str(back.cause) == "no convergence"


def _swaps(rng, rows):
    return [(i, (rng.normal(size=3), float(rng.normal()))) for i in rows]


@pytest.fixture
def pool_chunks(monkeypatch):
    """The chunk bounds of every fork pool that replace_one_cv_risks starts."""
    seen = []
    real = cv_engine._on_fork_pool

    def recording(job, bounds):
        seen.append(list(bounds))
        return real(job, bounds)

    monkeypatch.setattr(cv_engine, "_on_fork_pool", recording)
    yield seen
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "rows, workers, bounds",
    [
        ([0] * 7, 2, [[0, 3, 7]]),  # the pair layout: one row, replaced again and again
        ([0, 6, 12, 18, 1, 7, 13], 2, [[0, 3, 7]]),  # the perturb layout: folds in turn
        ([20, 3, 9], 4, [[0, 1, 2, 3]]),  # fewer swaps than workers
        ([5], 2, []),  # one swap runs in-process
    ],
    ids=["pair-layout", "perturb-layout", "fewer-swaps-than-workers", "one-swap"],
)
def test_replace_one_cv_risks_on_a_pool_equal_in_process(pool_chunks, rows, workers, bounds):
    rng, ds, plan, specs = _mixed_bank_instance()
    if not FORK:
        bounds = []
    cached = fit_all_folds(ds, specs, plan)
    swaps = _swaps(rng, rows)
    want = replace_one_cv_risks(ds, specs, plan, swaps, cached)
    got = replace_one_cv_risks(ds, specs, plan, swaps, cached, workers=workers)
    assert pool_chunks == bounds
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)
        assert (a.n, a.model_labels) == (b.n, b.model_labels)


def test_pool_reports_the_in_process_nonconvergence(monkeypatch, pool_chunks):
    rng, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)
    swaps = _swaps(rng, (20, 3, 9, 14))
    forced = dict(tol=1e-14, max_iter=2)
    monkeypatch.setattr(cv_engine, "lasso_bank", lambda *args: lasso_bank(*args, **forced))
    errors = []
    for workers in (1, 2):
        with pytest.raises(FitError) as err:
            replace_one_cv_risks(ds, specs, plan, swaps, cached, workers=workers)
        assert isinstance(err.value.cause, ConvergenceError)
        errors.append((err.value.fold, err.value.model, err.value.cause.iterations, str(err.value)))
    assert errors[0] == errors[1]
    assert pool_chunks == ([[0, 2, 4]] if FORK else [])


def test_pool_raises_the_failure_of_the_first_chunk(monkeypatch, pool_chunks):
    if not FORK:
        pytest.skip("the platform cannot fork")
    rng, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)

    def failing(*args):
        lo = args[-2]
        time.sleep(0.3 if lo == 0 else 0.0)  # the later chunk fails first
        raise FitError(lo, 0, specs[0], ConvergenceError("forced", lo))

    monkeypatch.setattr(cv_engine, "_risk_range", failing)
    with pytest.raises(FitError) as err:
        replace_one_cv_risks(ds, specs, plan, _swaps(rng, (1, 2, 3, 4)), cached, workers=2)
    assert (err.value.fold, err.value.cause.iterations) == (0, 0)


def test_fit_error_order_runs_across_families(monkeypatch):
    _, ds, plan, _ = _mixed_bank_instance()
    lasso = LearnerSpec("lasso", lam=0.01)
    too_many = LearnerSpec("forward", steps=5)  # more steps than the 3 features
    forced = dict(tol=1e-14, max_iter=2)
    monkeypatch.setattr(cv_engine, "lasso_bank", lambda *args: lasso_bank(*args, **forced))
    for specs, model, cause in (
        ([lasso, too_many], 0, ConvergenceError),
        ([too_many, lasso], 0, DomainError),
        ([OLS, lasso, too_many], 1, ConvergenceError),
    ):
        with pytest.raises(FitError) as err:
            fit_all_folds(ds, specs, plan)
        assert (err.value.fold, err.value.model) == (0, model)
        assert isinstance(err.value.cause, cause)


def test_fit_error_order_runs_across_the_sets_of_one_batch(monkeypatch):
    # all 4 folds share one kernel call (8 MiB holds 116,508 grams of 3^2):
    # set 0's lasso fails there, and the walk in (set, model) order raises it
    # before set 1's least squares, which would fail, is fitted
    _, ds, plan, _ = _mixed_bank_instance()
    specs = [OLS, LearnerSpec("lasso", lam=0.01)]
    forced = dict(tol=1e-14, max_iter=2)
    monkeypatch.setattr(cv_engine, "lasso_bank", lambda *args: lasso_bank(*args, **forced))
    real, calls = cv_engine._fit_now, []

    def fail_on_second_set(spec, *args):
        calls.append(spec)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("forced")
        return real(spec, *args)

    monkeypatch.setattr(cv_engine, "_fit_now", fail_on_second_set)
    with pytest.raises(FitError) as err:
        fit_all_folds(ds, specs, plan)
    assert (err.value.fold, err.value.model) == (0, 1)
    assert isinstance(err.value.cause, ConvergenceError)
    assert len(calls) == 1


def test_no_swaps_fit_nothing(monkeypatch):
    _, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)
    monkeypatch.setattr(cv_engine, "lasso_bank", None)  # a kernel call would raise TypeError
    assert replace_one_cv_risks(ds, specs, plan, [], cached) == []


def test_fit_sets_refuses_a_set_count_other_than_the_one_counted():
    _, ds, plan, specs = _mixed_bank_instance()
    blocks = [cv_engine._fold_block(ds, ix) for ix in plan.index_sets]
    sets = [(v, blocks) for v in range(plan.V)]
    with pytest.raises(ValueError, match="fewer training sets"):
        list(cv_engine._fit_sets(specs, sets, plan.V + 1, ds.d))
    with pytest.raises(ValueError, match="more training sets"):
        list(cv_engine._fit_sets(specs, sets, plan.V - 1, ds.d))


def test_replace_one_cv_risks_validates_specs_before_any_fit_or_fork(monkeypatch, pool_chunks):
    # a hand-built FoldFits can carry a penalty that fit_all_folds refuses
    rng, ds, plan, specs = _mixed_bank_instance()
    cached = fit_all_folds(ds, specs, plan)
    monkeypatch.setattr(cv_engine, "lasso_bank", None)  # a lasso fit would raise TypeError
    for workers in (1, 2):
        with pytest.raises(DomainError, match="lam >= 0"):
            bad = (LearnerSpec("lasso", lam=float("nan")),) + cached.specs[1:]
            hand = FoldFits(fits=cached.fits, specs=bad, plan=plan)
            replace_one_cv_risks(ds, bad, plan, _swaps(rng, (1, 2, 3)), hand, workers=workers)
    assert pool_chunks == []


def test_kernel_calls_at_the_cvc_p50_shape(monkeypatch):
    # n = 500, d = 20, the 50-penalty log lasso: 8 MiB holds 2621 grams of
    # 20^2, so one call solves the 5 folds' 250 problems
    ds, _ = gen_sparse_linear(SparseLinearGen(n=500, d=20, s=5, nu=1000.0, seed=3))
    lams = lasso_grid_log(ds.features, ds.response, 50, 1e-3)
    specs = [LearnerSpec("lasso", lam=float(lam)) for lam in lams]
    calls = _bank_calls(monkeypatch)
    fit_all_folds(ds, specs, make_folds(500, 5))
    assert calls == [(5, [k for k in range(5) for _ in lams], [float(x) for x in lams] * 5)]


def test_kernel_calls_at_the_phi_wide_shape(monkeypatch):
    # n = 1000, d = 100, the 10-penalty doubling lasso among two other specs:
    # 8 MiB holds 104 grams of 100^2, so the 64 folds of 800 rows that 16
    # swaps of one row refit go in one call, and the 128 of 32 swaps (a
    # two-worker chunk of phi_wide) in two calls of 64
    ds, _ = gen_sparse_linear(SparseLinearGen(n=1000, d=100, s=5, nu=1000.0, seed=4))
    lams = [float(lam) for lam in lasso_grid(ds.features, ds.response, 5)]
    specs = [LearnerSpec("forward", steps=0), LearnerSpec("ridge", lam=0.1)]
    specs += [LearnerSpec("lasso", lam=lam) for lam in lams]
    plan = make_folds(1000, 5)
    cached = fit_all_folds(ds, specs, plan)
    rows, _ = gen_sparse_linear(SparseLinearGen(n=32, d=100, s=5, nu=1000.0, seed=5))
    want = (64, [j for j in range(64) for _ in lams], lams * 64)
    for count, calls_made in ((16, 1), (32, 2)):
        swaps = [(0, (rows.features[j], rows.response[j])) for j in range(count)]
        calls = _bank_calls(monkeypatch)
        replace_one_cv_risks(ds, specs, plan, swaps, cached)
        assert calls == [want] * calls_made
        monkeypatch.undo()


def _tiny_instance():
    """A 24-row dataset of 8 features, its plan, the mixed bank and 12
    swaps, one in every other row."""
    rng = np.random.default_rng(19)
    ds = Dataset(rng.normal(size=(24, 8)), rng.normal(size=24))
    plan = make_folds(24, 4)
    specs = _mixed_bank_instance()[3]
    swaps = [(i, (rng.normal(size=8), float(rng.normal()))) for i in range(0, 24, 2)]
    return ds, plan, specs, swaps


@pytest.mark.parametrize(
    "budget, fold_calls, refit_calls",
    # a 1-byte budget still stacks one gram a call; 10**6 bytes hold 1953
    # grams of 8^2, more than any call here can fill
    [(1, [1] * 4, [1] * 36), (10**6, [4], [36])],
)
def test_the_batch_floor_changes_no_bit(monkeypatch, budget, fold_calls, refit_calls):
    # 18 training rows of 8 features: the default 8 MiB budget holds 16,384
    # grams of 8^2, so the 4 folds go in one call and the 36 refits of 12
    # swaps in one call
    ds, plan, specs, swaps = _tiny_instance()

    def run():
        fits = fit_all_folds(ds, specs, plan)
        return fits, replace_one_cv_risks(ds, specs, plan, swaps, fits)

    def raw(fits, risks):
        models = [m for row in fits.fits for m in row]
        return (
            [(m.family, m.support, m.iterations, m.coef.tobytes()) for m in models],
            [risk.values.tobytes() for risk in risks],
        )

    calls = _bank_calls(monkeypatch)
    want = raw(*run())
    assert [k for k, _, _ in calls] == [4, 36]
    monkeypatch.setattr(cv_engine, "GRAM_STACK_BYTES", budget)
    calls.clear()
    assert raw(*run()) == want
    assert [k for k, _, _ in calls] == fold_calls + refit_calls


@pytest.mark.parametrize("grams", [1, 2, 5, 7, 36])
def test_a_budget_of_k_grams_splits_the_sets_evenly(monkeypatch, grams):
    # 12 swaps refit 36 sets of 8 features: a budget of k grams of 8^2, plus
    # 511 bytes (one short of another gram), fits them in ceil(36 / k) calls
    # of at most k grams, whose sizes differ by at most one
    ds, plan, specs, swaps = _tiny_instance()
    cached = fit_all_folds(ds, specs, plan)
    monkeypatch.setattr(cv_engine, "GRAM_STACK_BYTES", grams * 8 * 8**2 + 511)
    calls = _bank_calls(monkeypatch)
    replace_one_cv_risks(ds, specs, plan, swaps, cached)
    sizes = [k for k, _, _ in calls]
    assert sum(sizes) == 36 and len(sizes) == -(-36 // grams)
    assert max(sizes) <= grams and max(sizes) - min(sizes) <= 1


def test_batch_sizes_are_the_fewest_within_the_budget(monkeypatch):
    for d in (1, 3, 8):
        for grams in range(1, 13):
            # the budget of exactly k grams, and one byte short of k + 1
            for budget in (grams * 8 * d * d, (grams + 1) * 8 * d * d - 1):
                monkeypatch.setattr(cv_engine, "GRAM_STACK_BYTES", budget)
                for count in range(60):
                    sizes = cv_engine._batch_sizes(count, d)
                    assert sum(sizes) == count and len(sizes) == -(-count // grams)
                    assert all(0 < k <= grams for k in sizes)
                    assert not sizes or max(sizes) - min(sizes) <= 1
    # one gram a call at least, however large d is
    assert cv_engine._batch_sizes(3, 10**4) == [1, 1, 1]


def test_fit_all_folds_validates_specs_before_fitting(monkeypatch):
    # a NaN penalty or a forward spec without steps is a DomainError
    # before any fit, not a NaN fit or a FitError from inside the fold loop
    rng = np.random.default_rng(17)
    ds = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12))
    plan = make_folds(12, 3)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the specs were validated")

    monkeypatch.setattr(cv_engine, "_fit_now", no_fit)
    monkeypatch.setattr(cv_engine, "lasso_bank", no_fit)
    good = [LearnerSpec("ridge", lam=0.5), LearnerSpec("lasso", lam=0.1)]
    for bad in (dict(family="ridge", lam=float("nan")), dict(family="forward")):
        with pytest.raises(DomainError):
            fit_all_folds(ds, [*good, LearnerSpec(**bad)], plan)


def test_replace_one_rejects_bad_index():
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(8, 2)), rng.normal(size=8))
    plan = make_folds(8, 2)
    specs = [OLS]
    cached = fit_all_folds(ds, specs, plan)
    with pytest.raises(DomainError):
        replace_one_cv_risk(ds, specs, plan, 8, (np.zeros(2), 0.0), cached)


@pytest.mark.parametrize("i", [2.7, True])
def test_replace_one_refuses_a_non_integer_index(i):
    # neither is truncated to a row (2 and 1)
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(8, 2)), rng.normal(size=8))
    plan = make_folds(8, 2)
    cached = fit_all_folds(ds, [OLS], plan)
    with pytest.raises(DomainError, match="integers"):
        replace_one_cv_risk(ds, [OLS], plan, i, (np.zeros(2), 0.0), cached)


def test_fitted_risk_oracle_formula():
    cfg = SparseLinearGen(n=40, d=6, s=2, nu=50.0, seed=8)
    ds, truth = gen_sparse_linear(cfg)
    plan = make_folds(40, 4)
    specs = [LearnerSpec("ridge", lam=0.5), LearnerSpec("ridge", lam=2.0)]
    fits = fit_all_folds(ds, specs, plan)
    got = average_fitted_risk_oracle(fits, truth)
    for r in range(2):
        acc = 0.0
        for v in range(4):
            delta = fits.fits[v][r].coef - truth.beta
            acc += truth.noise_var + float(delta @ delta)
        assert got[r] == pytest.approx(acc / 4, rel=1e-12)


def test_fitted_risk_oracle_agrees_with_monte_carlo():
    cfg = SparseLinearGen(n=40, d=4, s=2, nu=20.0, seed=9)
    ds, truth = gen_sparse_linear(cfg)
    plan = make_folds(40, 4)
    fits = fit_all_folds(ds, [LearnerSpec("ridge", lam=0.5)], plan)
    oracle = average_fitted_risk_oracle(fits, truth)[0]

    rng = np.random.default_rng(10)
    n_mc = 1_000_000
    per_fold = n_mc // 4
    losses = []
    for v in range(4):
        coef = fits.fits[v][0].coef
        z = rng.standard_normal((per_fold, 4))
        eps = np.sqrt(truth.noise_var) * rng.standard_normal(per_fold)
        y0 = z @ truth.beta + eps
        losses.append((y0 - z @ coef) ** 2)
    losses = np.concatenate(losses)
    se = losses.std() / np.sqrt(losses.size)
    assert abs(losses.mean() - oracle) <= 3 * se


def test_fitted_risk_oracle_refuses_unknown_design():
    ds, truth = gen_sparse_linear(SparseLinearGen(n=20, d=4, s=2, nu=10.0, seed=11))
    plan = make_folds(20, 4)
    fits = fit_all_folds(ds, [LearnerSpec("ridge", lam=0.1)], plan)
    with pytest.raises(DomainError):
        average_fitted_risk_oracle(fits, (truth.beta, truth.noise_var))
