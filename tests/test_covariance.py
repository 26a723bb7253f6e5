"""Fold-aggregated covariance of loss columns and its standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvconf.covariance import (
    CovEstimate,
    DegenerateFoldError,
    EmptyProblemError,
    aggregate_covariance,
    fold_covariance,
    standardized_correlation,
    variance_floor,
)
from cvconf.datamodel import LossMatrix, make_folds


def _lm(values, V):
    values = np.asarray(values, dtype=float)
    plan = make_folds(values.shape[0], V)
    labels = tuple(f"m{r}" for r in range(values.shape[1]))
    return LossMatrix(values, plan, labels)


def test_fold_covariance_two_row_fold_scalar():
    lm = _lm([[1.0], [4.0], [2.0], [2.0]], V=2)
    cov0 = fold_covariance(lm, 0)
    assert cov0[0, 0] == pytest.approx((1.0 - 4.0) ** 2 / 2)
    cov1 = fold_covariance(lm, 1)
    assert cov1[0, 0] == 0.0


def test_fold_covariance_matches_textbook_two_pass():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(60, 3))
    lm = _lm(vals, V=3)
    for v in range(3):
        ix = lm.plan.index_sets[v]
        rows = vals[ix]
        nv = len(ix)
        means = [sum(rows[:, r]) / nv for r in range(3)]
        expected = np.empty((3, 3))
        for r in range(3):
            for s in range(3):
                acc = 0.0
                for i in range(nv):
                    acc += (rows[i, r] - means[r]) * (rows[i, s] - means[s])
                expected[r, s] = acc / (nv - 1)
        np.testing.assert_allclose(fold_covariance(lm, v), expected, atol=1e-12)


def test_fold_covariance_rejects_singleton_fold():
    lm = _lm([[1.0], [2.0], [3.0]], V=3)
    with pytest.raises(DegenerateFoldError):
        fold_covariance(lm, 0)


def test_aggregate_is_mean_of_fold_covariances():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(40, 2))
    lm = _lm(vals, V=4)
    est = aggregate_covariance(lm)
    manual = sum(fold_covariance(lm, v) for v in range(4)) / 4
    np.testing.assert_allclose(est.sigma, manual, atol=1e-14)
    np.testing.assert_allclose(est.lambda_diag, np.diag(manual), atol=1e-14)


def test_aggregate_of_identical_folds_equals_each():
    block = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]])
    vals = np.vstack([block, block, block])
    lm = _lm(vals, V=3)
    est = aggregate_covariance(lm)
    np.testing.assert_allclose(est.sigma, fold_covariance(lm, 0), atol=1e-14)


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_aggregate_symmetric_psd_and_scale_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([12, 20, 30]))
    p = int(rng.integers(1, 5))
    vals = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
    lm = _lm(vals, V=2)
    est = aggregate_covariance(lm)
    assert np.array_equal(est.sigma, est.sigma.T)
    eigs = np.linalg.eigvalsh(est.sigma)
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())
    # power-of-two rescaling is exact in floating point
    est2 = aggregate_covariance(_lm(4.0 * vals, V=2))
    assert np.array_equal(est2.sigma, 16.0 * est.sigma)


def test_per_fold_constant_shift_leaves_covariance_unchanged():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(20, 2))
    lm = _lm(vals, V=4)
    shifted = vals.copy()
    for v in range(4):
        ix = lm.plan.index_sets[v]
        shifted[ix, 0] += float(rng.normal()) * 0.0 + (v + 1) * 10.0
    est = aggregate_covariance(lm)
    est2 = aggregate_covariance(_lm(shifted, V=4))
    np.testing.assert_allclose(est2.sigma, est.sigma, atol=1e-10)


def test_standardized_correlation_hand_case():
    est = CovEstimate(sigma=np.array([[4.0, 2.0], [2.0, 1.0]]))
    corr, kept, dropped = standardized_correlation(est)
    np.testing.assert_allclose(corr, np.ones((2, 2)), atol=1e-14)
    assert kept.tolist() == [0, 1] and dropped.size == 0


def test_standardized_correlation_drops_floored_coordinates():
    sigma = np.diag([1.0, 0.0, 2.0])
    est = CovEstimate(sigma=sigma)
    corr, kept, dropped = standardized_correlation(est)
    assert kept.tolist() == [0, 2]
    assert dropped.tolist() == [1]
    np.testing.assert_allclose(np.diag(corr), 1.0)


def test_standardized_correlation_keeps_tiny_positive_variances():
    sigma = np.diag([1.0, 1e-14])
    est = CovEstimate(sigma=sigma)
    corr, kept, dropped = standardized_correlation(est)
    assert kept.tolist() == [0, 1] and dropped.size == 0
    np.testing.assert_allclose(corr, np.eye(2))


def test_standardized_correlation_empty_problem():
    est = CovEstimate(sigma=np.zeros((2, 2)))
    with pytest.raises(EmptyProblemError):
        standardized_correlation(est)


def test_variance_floor_scales_with_largest_variance():
    assert variance_floor(np.array([0.5, 0.2])) == pytest.approx(1e-12)
    assert variance_floor(np.array([5.0, 0.2])) == pytest.approx(5e-12)


def test_correlation_entries_lie_in_unit_interval():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(30, 4))
    vals[:, 1] = vals[:, 0] + 1e-9 * rng.normal(size=30)  # near-perfect correlation
    est = aggregate_covariance(_lm(vals, V=3))
    corr, *_ = standardized_correlation(est)
    assert np.all(np.abs(corr) <= 1.0)
    np.testing.assert_allclose(np.diag(corr), 1.0)
