"""Bands and model confidence sets."""

import json
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import multivariate_normal

from cvconf.covariance import (
    CovEstimate,
    aggregate_covariance,
    standardized_correlation,
    variance_floor,
)
from cvconf.cv_engine import RiskVector, cv_risk
from cvconf import gaussian_mc, inference
from cvconf.datamodel import DomainError, LossMatrix, make_folds
from cvconf.gaussian_mc import max_quantiles
from cvconf.simgen import derive_substream
from cvconf.inference import (
    BandSet,
    ModelConfidenceSet,
    _comparison_columns,
    _comparisons,
    check_coverage,
    critical_values,
    cvc_set,
    naive_set,
    pointwise_band,
    simultaneous_band,
)

_quantile = NormalDist().inv_cdf


def _risk(values, n=100):
    values = np.asarray(values, dtype=float)
    labels = tuple(f"m{r}" for r in range(values.shape[0]))
    return RiskVector(values=values, n=n, model_labels=labels)


def _cov(diag):
    return CovEstimate(sigma=np.diag(np.asarray(diag, dtype=float)))


def _loss_matrix(values, V):
    values = np.asarray(values, dtype=float)
    plan = make_folds(values.shape[0], V)
    labels = tuple(f"m{r}" for r in range(values.shape[1]))
    return LossMatrix(values, plan, labels)


def _random_loss(rng, n, p, V):
    base = rng.normal(size=(n, 1))
    vals = base + rng.normal(scale=rng.uniform(0.5, 2.0, size=p), size=(n, p)) ** 2
    return _loss_matrix(vals, V)


def _band(risks, cov, alpha, *, seed, draws):
    """The band on critical values drawn for it alone."""
    critical = critical_values(risks, cov, (alpha,), seed=seed, draws=draws, sets=False)
    return simultaneous_band(risks, cov, alpha, critical=critical)


def _set(lm, alpha, *, seed, draws):
    """The screened set on critical values drawn for it alone."""
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(risks, cov, (alpha,), seed=seed, draws=draws, bands=False)
    return cvc_set(lm, alpha, critical=critical)


# ------------------------------------------------------------------ bands


def test_simultaneous_injected_zero_collapses_to_center():
    band = simultaneous_band(_risk([0.3, 0.7]), _cov([1.0, 2.0]), alpha=0.1, z_hat=0.0)
    np.testing.assert_array_equal(band.lower, [0.3, 0.7])
    np.testing.assert_array_equal(band.upper, [0.3, 0.7])
    assert band.kind == "simultaneous"


@pytest.mark.parametrize("z_hat", [-0.5, float("nan")])
def test_simultaneous_refuses_a_negative_or_nan_injected_value(z_hat):
    with pytest.raises(DomainError, match="injected critical value"):
        simultaneous_band(_risk([0.3, 0.7]), _cov([1.0, 2.0]), alpha=0.1, z_hat=z_hat)


def test_simultaneous_single_model_hand_width():
    # half-width sqrt(4) * 2 / sqrt(100) = 0.4
    band = simultaneous_band(_risk([1.0], n=100), _cov([4.0]), alpha=0.05, z_hat=2.0)
    assert band.lower[0] == pytest.approx(0.6)
    assert band.upper[0] == pytest.approx(1.4)


def test_simultaneous_sampled_single_model_matches_normal_quantile():
    band = _band(_risk([0.0], n=400), _cov([1.0]), alpha=0.05, seed=21, draws=40_000)
    assert band.z_used == pytest.approx(ndtri(0.975), abs=0.05)


def test_simultaneous_degenerate_coordinate_gets_zero_width():
    band = _band(_risk([0.2, 0.8]), _cov([1.0, 0.0]), alpha=0.1, seed=3, draws=100_000)
    assert band.upper[1] == band.lower[1] == 0.8
    assert band.upper[0] > band.lower[0]


def test_simultaneous_injected_z_keeps_sub_floor_coordinates_at_zero_width():
    # 1e-13 lies below the variance floor, so its interval is a point for an
    # injected z as for a drawn one
    risks, cov = _risk([1.0, 2.0], n=100), _cov([4.0, 1e-13])
    for band in (
        simultaneous_band(risks, cov, alpha=0.1, z_hat=2.0),
        _band(risks, cov, alpha=0.1, seed=3, draws=100_000),
    ):
        assert band.upper[1] == band.lower[1] == 2.0
        assert band.upper[0] > band.lower[0]
    # half-width sqrt(4) * 2 / sqrt(100) = 0.4 on the kept coordinate
    injected = simultaneous_band(risks, cov, alpha=0.1, z_hat=2.0)
    assert injected.upper[0] == pytest.approx(1.4)


def test_simultaneous_all_degenerate_returns_point_band():
    band = _band(_risk([0.2, 0.8]), _cov([0.0, 0.0]), alpha=0.1, seed=3, draws=100_000)
    np.testing.assert_array_equal(band.lower, band.upper)


def test_simultaneous_all_degenerate_still_needs_a_critical_value():
    with pytest.raises(DomainError, match="exactly one of z_hat or critical values"):
        simultaneous_band(_risk([0.2, 0.8]), _cov([0.0, 0.0]), alpha=0.1)


def test_simultaneous_scaling_losses_scales_endpoints_exactly():
    rng = np.random.default_rng(5)
    lm = _random_loss(rng, 60, 3, V=5)
    lm4 = LossMatrix(4.0 * lm.values, lm.plan, lm.model_labels)
    kw = dict(alpha=0.1, seed=11, draws=5000)
    b1 = _band(cv_risk(lm), aggregate_covariance(lm), **kw)
    b4 = _band(cv_risk(lm4), aggregate_covariance(lm4), **kw)
    assert b4.z_used == b1.z_used
    np.testing.assert_array_equal(b4.lower, 4.0 * b1.lower)
    np.testing.assert_array_equal(b4.upper, 4.0 * b1.upper)


def test_pointwise_multiplier_is_two_sided_normal_quantile():
    band = pointwise_band(_risk([0.0], n=100), _cov([1.0]), alpha=0.05)
    assert band.z_used == pytest.approx(1.959963984540054, abs=1e-12)
    assert band.upper[0] == pytest.approx(1.959963984540054 / 10.0)
    assert band.kind == "pointwise"


def test_pointwise_width_vanishes_as_alpha_approaches_one():
    band = pointwise_band(_risk([0.5]), _cov([1.0]), alpha=1.0 - 1e-12)
    assert band.upper[0] - band.lower[0] < 1e-6


def test_pointwise_never_wider_than_simultaneous():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        lm = _random_loss(rng, 80, p, V=4)
        risks, cov = cv_risk(lm), aggregate_covariance(lm)
        pw = pointwise_band(risks, cov, alpha=0.1)
        sim = _band(risks, cov, alpha=0.1, seed=int(p), draws=20_000)
        assert np.all(pw.upper - pw.lower <= sim.upper - sim.lower + 1e-12)


def test_band_serializes_to_json():
    band = simultaneous_band(_risk([0.3, 0.7]), _cov([1.0, 2.0]), alpha=0.1, z_hat=1.5)
    blob = json.loads(json.dumps(band.to_dict()))
    assert blob["kind"] == "simultaneous"
    assert len(blob["lower"]) == 2
    assert blob["alpha"] == 0.1


# -------------------------------------------------------------- naive set


def test_naive_rejects_pointwise_band():
    band = pointwise_band(_risk([0.1]), _cov([1.0]), alpha=0.1)
    with pytest.raises(DomainError):
        naive_set(band)


def test_naive_single_model():
    band = simultaneous_band(_risk([0.4]), _cov([1.0]), alpha=0.1, z_hat=1.0)
    assert naive_set(band).members == (0,)


def test_naive_hand_case():
    # lower bounds (-.3, .2, .7); min upper bound 0.3 -> members {0, 1}
    band = BandSet(
        lower=np.array([-0.3, 0.2, 0.7]),
        upper=np.array([0.3, 0.8, 1.3]),
        center=np.array([0.0, 0.5, 1.0]),
        alpha=0.1,
        z_used=1.0,
        kind="simultaneous",
        n=100,
    )
    assert naive_set(band).members == (0, 1)


def test_naive_identical_models_keep_everything():
    band = simultaneous_band(_risk([0.5] * 4), _cov([1.0] * 4), alpha=0.1, z_hat=1.0)
    assert naive_set(band).members == (0, 1, 2, 3)


def test_naive_always_contains_empirical_minimizer():
    rng = np.random.default_rng(13)
    for trial in range(25):
        p = int(rng.integers(1, 7))
        risks = rng.normal(size=p)
        diag = rng.uniform(0.0, 2.0, size=p)
        band = simultaneous_band(_risk(risks), _cov(diag), alpha=0.1, z_hat=float(rng.uniform(0, 3)))
        members = naive_set(band).members
        assert int(np.argmin(risks)) in members


# ---------------------------------------------------------------- cvc set


def test_cvc_single_model_short_circuits():
    lm = _loss_matrix(np.abs(np.random.default_rng(0).normal(size=(20, 1))), V=4)
    out = _set(lm, alpha=0.05, seed=1, draws=100_000)
    assert out.members == (0,)
    assert out.method == "cvc"
    assert out.decided == ("none",) and out.z_alpha is None and out.max_stat is None


def test_cvc_identical_columns_keeps_both():
    rng = np.random.default_rng(2)
    col = rng.normal(size=(24, 1)) ** 2
    lm = _loss_matrix(np.hstack([col, col]), V=4)
    out = _set(lm, alpha=0.05, seed=5, draws=100_000)
    assert out.members == (0, 1)


def _cvc_oracle(lm, z_by_candidate):
    """Direct evaluation of the membership inequalities.

    Each difference column's variance is the fold average of its
    within-fold sample variances, computed from the column itself.
    """
    risks = lm.values.mean(axis=0)
    n, p = lm.values.shape
    members = []
    for r in range(p):
        others = [s for s in range(p) if s != r]
        diffs = lm.values[:, [r]] - lm.values[:, others]
        dvar = np.mean([np.var(diffs[ix], axis=0, ddof=1) for ix in lm.plan.index_sets], axis=0)
        floor = variance_floor(dvar)
        ok = True
        for a, s in enumerate(others):
            gap = risks[r] - risks[s]
            if dvar[a] > floor:
                stat = np.sqrt(n) * gap / np.sqrt(dvar[a])
                if stat > z_by_candidate[r]:
                    ok = False
            elif gap > 0.0:
                ok = False
        if ok:
            members.append(r)
    return tuple(members)


def test_cvc_matches_brute_force_oracle_with_injected_quantiles():
    rng = np.random.default_rng(17)
    for trial in range(30):
        lm = _random_loss(rng, 40, 5, V=4)
        # shrink some gaps so membership is nontrivial
        lm = _loss_matrix(lm.values - 0.8 * lm.values.mean(axis=0), V=4)
        z = rng.uniform(0.2, 2.0, size=5)
        out = cvc_set(lm, alpha=0.05, z_inject=z)
        assert out.members == _cvc_oracle(lm, z)
        assert len(out.members) > 0 or np.any(z < 0.0)


def test_cvc_duplicate_column_cases_match_oracle():
    rng = np.random.default_rng(19)
    for trial in range(10):
        lm = _random_loss(rng, 40, 4, V=4)
        vals = lm.values.copy()
        vals[:, 3] = vals[:, 0]
        lm = _loss_matrix(vals, V=4)
        z = rng.uniform(0.2, 2.0, size=4)
        out = cvc_set(lm, alpha=0.05, z_inject=z)
        assert out.members == _cvc_oracle(lm, z)


def test_cvc_zero_quantile_with_separated_risks_keeps_only_argmin():
    rng = np.random.default_rng(23)
    vals = rng.normal(size=(40, 3)) ** 2 + np.array([0.0, 5.0, 10.0])
    lm = _loss_matrix(vals, V=4)
    out = cvc_set(lm, alpha=0.05, z_inject=0.0)
    assert out.members == (int(np.argmin(vals.mean(axis=0))),)


def test_cvc_infinite_quantile_keeps_everything():
    rng = np.random.default_rng(29)
    lm = _random_loss(rng, 40, 4, V=4)
    out = cvc_set(lm, alpha=0.05, z_inject=np.inf)
    assert out.members == (0, 1, 2, 3)


def test_cvc_sampled_path_contains_argmin():
    rng = np.random.default_rng(31)
    for trial in range(5):
        lm = _random_loss(rng, 60, 4, V=5)
        out = _set(lm, alpha=0.05, seed=trial, draws=2000)
        r_star = int(np.argmin(lm.values.mean(axis=0)))
        assert out.z_alpha[r_star] >= 0.0
        assert r_star in out.members


def _identity_fold_loss(rng, m, p, V):
    """Loss matrix whose every fold has sample covariance exactly I (up to rounding)."""
    blocks = []
    for v in range(V):
        raw = rng.normal(size=(m, p))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))  # orthonormal, centered columns
        blocks.append(q * np.sqrt(m - 1) + 1.0 + 0.01 * v)
    return _loss_matrix(np.vstack(blocks), V)


def test_cvc_pairwise_critical_values_identity_sigma():
    # sigma = I_3: each candidate's two standardized differences
    # (X_r - X_s) / sqrt(2) are standard normals with correlation 1/2
    lm = _identity_fold_loss(np.random.default_rng(43), 20, 3, V=2)
    np.testing.assert_allclose(aggregate_covariance(lm).sigma, np.eye(3), atol=1e-12)
    alpha = 0.1
    law = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.5, 1.0]])
    want = brentq(lambda z: law.cdf([z, z]) - (1.0 - alpha), 0.0, 5.0, xtol=1e-6)
    # every risk is equal, so each gap of 0 sits below Phi^-1(1 - alpha)
    out = _set(lm, alpha, seed=3, draws=200_000)
    assert out.decided == ("low", "low", "low")
    np.testing.assert_array_equal(out.z_alpha, _quantile(1.0 - alpha))
    drawn = _draw_candidates(aggregate_covariance(lm), np.arange(3), alpha, 200_000, 3)
    np.testing.assert_allclose(drawn, want, atol=0.02)


def _draw_candidates(cov, rows, alpha, draws, seed):
    """The drawn critical values of candidates ``rows``, drawing all of them
    on the stream and factor that ``critical_values`` uses."""
    corr, kept = standardized_correlation(cov)
    positive, sd = _comparisons(cov)
    W, counts = _comparison_columns(cov, kept, positive, sd, rows)
    starts = np.cumsum(counts) - counts
    rng = derive_substream(seed, "critical-values")
    (q,), _ = max_quantiles(
        corr, lambda Y: np.maximum.reduceat(Y, starts, axis=1), (alpha,), draws, rng, linear=W
    )
    return q


def _spread_loss(seed, n=200):
    # standardized gaps near (0, 0.5, 1.5, 1.7, 1.9, 8): at alpha = 0.1 and
    # seed 4 the set has candidates decided low, drawn and decided high
    g = np.array([0.0, 0.5, 1.5, 1.7, 1.9, 8.0])
    vals = np.random.default_rng(seed).normal(size=(n, 6)) + g * np.sqrt(2 / n)
    return _loss_matrix(vals, V=4)


def _raising_sampler(*args, **kwargs):
    raise AssertionError("the sampler ran")


def test_cvc_drawn_candidates_match_drawing_every_candidate():
    lm = _spread_loss(4)
    out = _set(lm, alpha=0.1, seed=4, draws=4000)
    assert set(out.decided) == {"low", "drawn", "high"}
    every = _draw_candidates(aggregate_covariance(lm), np.arange(lm.p), 0.1, 4000, 4)
    drawn = np.array([d == "drawn" for d in out.decided])
    np.testing.assert_allclose(out.z_alpha[drawn], every[drawn], rtol=0, atol=1e-12)


def _elementwise_pairwise_quantiles(cov, rows, alpha, draws, seed):
    """Reference: the statistic built elementwise as (X_r - X_s) * weight + mask."""
    corr, kept = standardized_correlation(cov)
    positive, sd = _comparisons(cov)
    p = cov.sigma.shape[0]
    scale = np.sqrt(cov.lambda_diag[kept])
    weight = 1.0 / sd[rows]
    mask = np.where(positive[rows], 0.0, -np.inf)

    def statistic(Y):
        X = np.zeros((Y.shape[0], p))
        X[:, kept] = Y * scale
        D = X[:, rows, None] - X[:, None, :]
        return (D * weight + mask).max(axis=2)

    rng = derive_substream(seed, "critical-values")
    (q,), _ = max_quantiles(corr, statistic, (alpha,), draws, rng, linear=np.eye(kept.size))
    return q


def _lopsided_cov():
    # a zero-variance column (its coordinate leaves corr) and a duplicate
    # pair (a degenerate comparison) among correlated columns
    rng = np.random.default_rng(61)
    vals = rng.normal(size=(60, 4)) + rng.normal(size=(60, 1))
    vals = np.column_stack([vals, vals[:, 0], np.full(60, 0.5)])
    cov = aggregate_covariance(_loss_matrix(vals, V=4))
    positive, sd = _comparisons(cov)
    assert cov.lambda_diag[5] == 0.0 and positive[5, :5].all()
    assert not positive[0, 4] and not positive[4, 0]
    return cov, positive, sd


def test_pairwise_product_matches_elementwise_statistic():
    cov, positive, sd = _lopsided_cov()
    for rows in (np.arange(6), np.array([0, 4, 5]), np.array([2])):
        got = _draw_candidates(cov, rows, 0.1, 3000, 7)
        want = _elementwise_pairwise_quantiles(cov, rows, 0.1, 3000, 7)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pairwise_quantiles_do_not_depend_on_block_size(monkeypatch):
    cov, positive, sd = _lopsided_cov()
    rows = np.arange(6)
    out = []
    for elems in (64, 10**7):
        monkeypatch.setattr(gaussian_mc, "BLOCK_ELEMS", elems)
        out.append(_draw_candidates(cov, rows, 0.1, 3000, 7))
    np.testing.assert_array_equal(out[0], out[1])


def test_cvc_decided_candidates_report_their_bound():
    alpha = 0.1
    for seed in range(6):
        lm = _spread_loss(seed)
        out = _set(lm, alpha=alpha, seed=seed, draws=2000)
        k = _comparisons(aggregate_covariance(lm))[0].sum(axis=1)
        for r, how in enumerate(out.decided):
            if how == "low":
                assert out.z_alpha[r] == _quantile(1.0 - alpha)
                assert out.max_stat[r] <= out.z_alpha[r] and r in out.members
            elif how == "high":
                assert out.z_alpha[r] == _quantile(1.0 - alpha / k[r])
                assert out.max_stat[r] > out.z_alpha[r] and r not in out.members
            else:
                assert how == "drawn"
                assert _quantile(1.0 - alpha) < out.max_stat[r] <= _quantile(1.0 - alpha / k[r])


def test_cvc_all_decided_never_calls_the_sampler(monkeypatch):
    monkeypatch.setattr(inference, "max_quantiles", _raising_sampler)
    rng = np.random.default_rng(23)
    vals = rng.normal(size=(40, 3)) ** 2 + np.array([0.0, 5.0, 10.0])
    out = _set(_loss_matrix(vals, V=4), alpha=0.05, seed=1, draws=100_000)
    assert out.decided == ("low", "high", "high")
    assert out.members == (0,)


def test_cvc_two_candidates_are_decided_exactly(monkeypatch):
    # k = 1: both bounds equal Phi^-1(1 - alpha), the exact critical value
    monkeypatch.setattr(inference, "max_quantiles", _raising_sampler)
    rng = np.random.default_rng(53)
    for trial in range(20):
        lm = _random_loss(rng, 40, 2, V=4)
        out = _set(lm, alpha=0.2, seed=trial, draws=100_000)
        assert set(out.decided) <= {"low", "high"}
        np.testing.assert_array_equal(out.z_alpha, _quantile(0.8))
        assert out.members == tuple(np.flatnonzero(out.max_stat <= _quantile(0.8)))


def test_shared_call_matches_standalone_band_and_set():
    # one draw for the band and the set at two alphas, against each alone
    lm = _spread_loss(4)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    alphas = (0.1, 0.3)
    shared = critical_values(risks, cov, alphas, seed=4, draws=4000)
    assert shared.rank == lm.p and shared.draws == 4000
    drawn_any = False
    for i, alpha in enumerate(alphas):
        band = _band(risks, cov, alpha, seed=4, draws=4000)
        assert shared.band_z[i] == pytest.approx(band.z_used, rel=0, abs=1e-12)
        alone = _set(lm, alpha, seed=4, draws=4000)
        via = cvc_set(lm, alpha, critical=shared)
        drawn = np.array([d == "drawn" for d in alone.decided])
        drawn_any |= drawn.any()
        np.testing.assert_allclose(via.z_alpha[drawn], alone.z_alpha[drawn], rtol=0, atol=1e-12)
        assert via.decided == alone.decided == shared.decided[i]
        assert via.members == alone.members and via.seed == 4
        shared_band = simultaneous_band(risks, cov, alpha, critical=shared)
        assert shared_band.z_used == shared.band_z[i]
    assert drawn_any


def test_shared_statistic_equals_the_stacked_band_and_group_maxima(monkeypatch):
    # the one-reduceat statistic, bit for bit against the band's |Y| max
    # stacked beside each drawn candidate's reduceat on the same draws
    lm = _spread_loss(4)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    alphas = (0.1, 0.3)
    calls = []

    def spy(corr, statistic, alpha, draws, rng, **kw):
        calls.append((corr, kw["linear"]))
        return max_quantiles(corr, statistic, alpha, draws, rng, **kw)

    monkeypatch.setattr(inference, "max_quantiles", spy)
    shared = critical_values(risks, cov, alphas, seed=4, draws=4000)
    ((corr, linear),) = calls
    nb = inference._band_coordinates(np.clip(cov.lambda_diag, 0.0, None)).size
    decided = np.array(shared.decided)
    drawn = np.flatnonzero((decided == "drawn").any(axis=0))
    here = decided[:, drawn] == "drawn"
    assert nb and (here.sum(axis=1) >= 2).all()
    counts = _comparisons(cov)[0][drawn].sum(axis=1)
    starts = nb + np.cumsum(counts) - counts

    def stacked(Y):
        band = np.abs(Y[:, :nb]).max(axis=1, keepdims=True)
        return np.hstack([band, np.maximum.reduceat(Y, starts, axis=1)])

    rng = derive_substream(4, "critical-values")
    q, _ = max_quantiles(corr, stacked, alphas, 4000, rng, linear=linear)
    np.testing.assert_array_equal(shared.band_z, q[:, 0])
    np.testing.assert_array_equal(shared.z_alpha[:, drawn][here], q[:, 1:][here])


def test_shared_call_keeps_bounds_where_a_candidate_is_decided():
    # a candidate drawn at one alpha keeps its bound and label at another
    lm = _spread_loss(4)
    shared = critical_values(cv_risk(lm), aggregate_covariance(lm), (0.1, 0.5), seed=4, draws=2000)
    mixed = [r for r in range(lm.p) if len({shared.decided[0][r], shared.decided[1][r]}) == 2]
    assert mixed
    for i, alpha in enumerate((0.1, 0.5)):
        one = _set(lm, alpha, seed=4, draws=2000)
        for r in mixed:
            assert shared.decided[i][r] == one.decided[r]
            if one.decided[r] != "drawn":
                assert shared.z_alpha[i, r] == one.z_alpha[r]


def test_shared_call_parts_must_be_asked_for():
    lm = _spread_loss(4)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    band_only = critical_values(risks, cov, (0.1,), seed=1, draws=2000, sets=False)
    assert band_only.z_alpha is None and band_only.decided is None
    with pytest.raises(DomainError, match="z_alpha"):
        cvc_set(lm, 0.1, critical=band_only)
    with pytest.raises(DomainError, match="alpha 0.2"):
        simultaneous_band(risks, cov, 0.2, critical=band_only)
    set_only = critical_values(risks, cov, (0.1,), seed=1, draws=2000, bands=False)
    with pytest.raises(DomainError, match="band_z"):
        simultaneous_band(risks, cov, 0.1, critical=set_only)
    with pytest.raises(DomainError):
        critical_values(risks, cov, (), seed=1, draws=100_000)
    with pytest.raises(DomainError, match="or both"):
        critical_values(risks, cov, (0.1,), seed=1, draws=2000, bands=False, sets=False)


def test_band_and_set_take_exactly_one_critical_value_source():
    # both given and neither given are refused; neither source is
    # silently preferred to the other
    lm = _spread_loss(4)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(risks, cov, (0.1,), seed=9, draws=2000)
    for kw in ({}, {"z_hat": 0.0, "critical": critical}):
        with pytest.raises(DomainError, match="exactly one of z_hat or critical values"):
            simultaneous_band(risks, cov, 0.1, **kw)
    for kw in ({}, {"z_inject": 5.0, "critical": critical}):
        with pytest.raises(DomainError, match="exactly one of z_inject or critical values"):
            cvc_set(lm, 0.1, **kw)


def test_cvc_refuses_critical_values_of_another_candidate_count():
    rng = np.random.default_rng(61)
    narrow, wide = _random_loss(rng, 40, 10, V=4), _random_loss(rng, 40, 12, V=4)
    for lm, other in ((wide, narrow), (narrow, wide)):
        risks, cov = cv_risk(other), aggregate_covariance(other)
        critical = critical_values(risks, cov, (0.1,), seed=1, draws=2000)
        with pytest.raises(DomainError, match=f"for {other.p} candidates.* has {lm.p}"):
            cvc_set(lm, 0.1, critical=critical)


def test_band_refuses_critical_values_of_another_candidate_count():
    rng = np.random.default_rng(61)
    narrow, wide = _random_loss(rng, 40, 2, V=4), _random_loss(rng, 40, 12, V=4)
    for lm, other in ((wide, narrow), (narrow, wide)):
        critical = critical_values(
            cv_risk(other), aggregate_covariance(other), (0.1,), seed=1, draws=2000
        )
        with pytest.raises(DomainError, match=f"for {other.p} candidates.* has {lm.p}"):
            simultaneous_band(cv_risk(lm), aggregate_covariance(lm), 0.1, critical=critical)


def test_shared_call_draws_nothing_when_no_column_is_needed(monkeypatch):
    monkeypatch.setattr(inference, "max_quantiles", _raising_sampler)
    risks = _risk([0.2, 0.8])
    out = critical_values(risks, _cov([0.0, 0.0]), (0.1, 0.2), seed=3, draws=100_000)
    assert out.rank == 0
    np.testing.assert_array_equal(out.band_z, [0.0, 0.0])
    assert out.decided == (("none", "none"), ("none", "none"))


def test_cvc_labels_injected_and_degenerate_candidates():
    col = np.random.default_rng(59).normal(size=(40, 1)) ** 2
    lm = _loss_matrix(np.hstack([col, col, col + 1.0 + 0.1 * col]), V=4)
    out = cvc_set(lm, alpha=0.1, z_inject=1.0)
    assert out.decided == ("injected", "injected", "injected")
    dup = _set(_loss_matrix(np.hstack([col, col]), V=4), alpha=0.1, seed=1, draws=100_000)
    assert dup.decided == ("none", "none")
    assert np.all(np.isnan(dup.z_alpha))
    with pytest.raises(DomainError):
        ModelConfidenceSet(members=(0,), method="cvc", alpha=0.1, p=2, decided=("low", "guess"))


def test_cvc_comparison_of_coordinates_below_sigma_floor_keeps_its_law():
    # each column's variance (~7e-13) sits below sigma's floor of 1e-12,
    # but their difference (~3e-12) clears its own floor: the comparison
    # still needs its N(0, 1) law, not a point mass at 0
    x = np.random.default_rng(47).normal(size=40)
    x = 9e-7 * (x - x.mean()) / x.std()
    lm = _loss_matrix(np.column_stack([x, -x]), V=4)
    out = _set(lm, alpha=0.1, seed=1, draws=40_000)
    np.testing.assert_allclose(out.z_alpha, ndtri(0.9), atol=0.03)
    assert out.members == (0, 1)


def test_cvc_rescaling_all_columns_is_a_noop():
    rng = np.random.default_rng(37)
    lm = _random_loss(rng, 60, 4, V=5)
    lm4 = _loss_matrix(4.0 * lm.values, V=5)
    a = _set(lm, alpha=0.05, seed=101, draws=3000)
    b = _set(lm4, alpha=0.05, seed=101, draws=3000)
    assert a.members == b.members
    np.testing.assert_array_equal(a.z_alpha, b.z_alpha)


def test_cvc_input_checks():
    lm = _loss_matrix(np.ones((8, 2)), V=4)  # n == 2V ok
    _set(lm, alpha=0.05, seed=0, draws=100_000)
    small = _loss_matrix(np.ones((6, 2)), V=3)  # n == 2V ok
    _set(small, alpha=0.05, seed=0, draws=100_000)
    short = _loss_matrix(np.ones((4, 2)), V=4)
    # short's folds hold one row each, so its critical values come from lm's
    critical = critical_values(
        cv_risk(lm), aggregate_covariance(lm), (0.05,), seed=0, draws=100_000, bands=False
    )
    with pytest.raises(DomainError):
        cvc_set(short, alpha=0.05, critical=critical)
    with pytest.raises(DomainError):
        cvc_set(lm, alpha=0.05)  # no critical values, no injection


def test_cvc_serializes_to_json():
    rng = np.random.default_rng(41)
    lm = _random_loss(rng, 40, 3, V=4)
    out = _set(lm, alpha=0.1, seed=7, draws=2000)
    blob = json.loads(json.dumps(out.to_dict()))
    assert blob["method"] == "cvc"
    assert set(blob["members"]) == set(out.members)
    assert len(blob["z_alpha"]) == 3
    assert blob["decided"] == list(out.decided)


# ----------------------------------------------------------- check_coverage


def test_coverage_zero_width_band_requires_exact_hit():
    band = simultaneous_band(_risk([0.3, 0.7]), _cov([1.0, 2.0]), alpha=0.1, z_hat=0.0)
    assert check_coverage(band, np.array([0.3, 0.7]))
    assert not check_coverage(band, np.array([0.3, 0.7 + 1e-9]))


def test_coverage_center_always_covered():
    band = simultaneous_band(_risk([0.3, 0.7]), _cov([1.0, 2.0]), alpha=0.1, z_hat=1.7)
    assert check_coverage(band, np.array([0.3, 0.7]))


def test_coverage_set_with_explicit_index():
    mcs = ModelConfidenceSet(members=(1, 2), method="naive", alpha=0.1, p=3)
    assert check_coverage(mcs, 2)
    assert not check_coverage(mcs, 0)


def test_coverage_set_with_target_vector_breaks_ties_low():
    mcs = ModelConfidenceSet(members=(1, 2), method="cvc", alpha=0.1, p=3)
    assert check_coverage(mcs, np.array([1.0, 0.0, 0.0]))  # r* = 1
    assert not check_coverage(mcs, np.array([0.0, 0.0, 0.0]))  # r* = 0
    with pytest.raises(DomainError):
        check_coverage(mcs, np.array([1.0, 0.0]))


def test_coverage_set_refuses_a_float_or_bool_index():
    # 1.7 and True would be read as index 1, a member
    mcs = ModelConfidenceSet(members=(1,), method="naive", alpha=0.1, p=3)
    for bad in (1.7, True, np.float64(1.0), np.bool_(True)):
        with pytest.raises(DomainError, match="integers"):
            check_coverage(mcs, bad)
    assert check_coverage(mcs, np.int64(1)) and check_coverage(mcs, np.intp(1))
