"""Concrete learners: closed forms, descent guarantees, hand oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvconf.datamodel import DomainError
from cvconf.learners import (
    ConvergenceError,
    SgdConfig,
    fit_forward,
    fit_lasso,
    fit_ridge,
    lasso_bank,
    lasso_grid,
    lasso_grid_log,
    lasso_max_lam,
    sgd_trajectories,
)


def _random_instance(seed, n=24, d=4):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return Z, y


def _lstsq(Z, y):
    """Minimum-norm least-squares coefficients."""
    return np.linalg.lstsq(Z, y, rcond=None)[0]


def _sgd_pass(Z, y, cfg):
    """Final iterate of one projected SGD pass over (Z, y)."""
    return sgd_trajectories(Z, y, [len(y)], cfg, [0], [{}])[0]


@pytest.mark.parametrize(
    "fit",
    [
        lambda Z, y: fit_ridge(Z, y, 0.5),
        lambda Z, y: fit_ridge(Z, y, 0.0),
        lambda Z, y: fit_lasso(Z, y, 0.1),
        lambda Z, y: fit_forward(Z, y, 1),
        lambda Z, y: fit_forward(Z, y, 0),
        lasso_max_lam,
    ],
    ids=["ridge", "least-squares", "lasso", "forward", "forward-0", "lasso-max-lam"],
)
def test_fits_refuse_zero_rows(fit):
    # Z'Z/n and Z'y/n would be 0/0: NaN coefficients, not a fit
    Z, y = _random_instance(0)
    with pytest.raises(DomainError, match="at least one row"):
        fit(Z[:0], y[:0])


# ------------------------------------------------- least squares (lam = 0)


def test_ols_single_feature_closed_form():
    Z = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 3.0, 5.0])
    m = fit_ridge(Z, y, 0.0)
    assert m.coef[0] == pytest.approx(23.0 / 14.0)


def test_ols_minimum_norm_on_duplicate_columns():
    Z = np.array([[1.0, 1.0], [2.0, 2.0]])
    y = np.array([2.0, 4.0])
    m = fit_ridge(Z, y, 0.0)
    np.testing.assert_allclose(m.coef, [1.0, 1.0], atol=1e-12)


def test_ols_underdetermined_returns_min_norm_interpolant():
    Z, y = _random_instance(0, n=3, d=6)
    m = fit_ridge(Z, y, 0.0)
    np.testing.assert_allclose(Z @ m.coef, y, atol=1e-9)
    # minimum-norm solutions live in the row space
    resid = m.coef - Z.T @ np.linalg.lstsq(Z.T, m.coef, rcond=None)[0]
    np.testing.assert_allclose(resid, 0, atol=1e-9)


# ---------------------------------------------------------------- ridge


def test_ridge_identity_design_hand_value():
    Z = np.eye(2)
    y = np.array([2.0, 4.0])
    m = fit_ridge(Z, y, lam=0.5)
    np.testing.assert_allclose(m.coef, y / 2.0, atol=1e-12)


def test_ridge_zero_lam_equals_ols():
    Z, y = _random_instance(1)
    np.testing.assert_allclose(fit_ridge(Z, y, 0.0).coef, _lstsq(Z, y), atol=1e-10)


def test_ridge_zero_lam_rank_deficient_falls_back_to_min_norm():
    Z = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([1.0, 2.0, 3.0])
    m = fit_ridge(Z, y, 0.0)
    np.testing.assert_allclose(m.coef, [0.5, 0.5], atol=1e-10)


@given(st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_ridge_norm_nonincreasing_in_lam(seed):
    Z, y = _random_instance(seed)
    lams = [0.0, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(fit_ridge(Z, y, lam).coef) for lam in lams]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_ridge_rejects_negative_lam():
    Z, y = _random_instance(2)
    with pytest.raises(DomainError):
        fit_ridge(Z, y, -0.5)


def test_ridge_rejects_nan_lam():
    # a NaN penalty fails lam < 0 as well as lam >= 0
    Z, y = _random_instance(2)
    with pytest.raises(DomainError):
        fit_ridge(Z, y, float("nan"))


# ---------------------------------------------------------------- lasso


def test_lasso_orthogonal_design_soft_threshold_oracle():
    Z = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([2.0, 0.0, 2.0, 0.0])
    # sum z^2 / n = 1, sum z y / n = 1, so beta = S(1, lam)
    m = fit_lasso(Z, y, lam=0.4)
    assert m.coef[0] == pytest.approx(0.6, abs=1e-8)
    # the negative branch, S(-1, lam) = -1 + lam, and the dead zone |1| <= lam
    assert fit_lasso(Z, -y, lam=0.4).coef[0] == pytest.approx(-0.6, abs=1e-8)
    assert fit_lasso(Z, y, lam=1.5).coef[0] == 0.0


def test_lasso_at_lam_max_is_exact_zero():
    Z, y = _random_instance(3)
    lam_max = lasso_max_lam(Z, y)
    m = fit_lasso(Z, y, lam_max)
    assert np.array_equal(m.coef, np.zeros(Z.shape[1]))
    m2 = fit_lasso(Z, y, 2.0 * lam_max)
    assert np.array_equal(m2.coef, np.zeros(Z.shape[1]))


def test_lasso_zero_lam_matches_ols():
    Z, y = _random_instance(4, n=40, d=3)
    m = fit_lasso(Z, y, 0.0)
    np.testing.assert_allclose(m.coef, _lstsq(Z, y), atol=1e-6)


def _kkt_residual(Z, y, lam, beta):
    n = Z.shape[0]
    grad = Z.T @ (y - Z @ beta) / n  # equals lam * sign(beta_j) on the active set
    resid = 0.0
    for j, b in enumerate(beta):
        if b == 0.0:
            resid = max(resid, max(0.0, abs(grad[j]) - lam))
        else:
            resid = max(resid, abs(grad[j] - lam * np.sign(b)))
    return resid


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_lasso_kkt_residual_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    d = int(rng.integers(1, 8))
    Z = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
    y = rng.normal(size=n)
    lam = float(rng.uniform(0.0, 1.2) * lasso_max_lam(Z, y))
    tol = 1e-8
    m = fit_lasso(Z, y, lam, tol=tol)
    assert _kkt_residual(Z, y, lam, m.coef) <= 10 * tol


def _reference_sweeps(gram, corr, lam, tol, max_sweeps):
    """Cyclic coordinate descent of one lasso problem, one coordinate at
    a time: the loop lasso_bank must reproduce bit for bit."""
    d = gram.shape[0]
    beta = np.zeros(d)
    grad = corr - gram @ beta
    for sweep in range(1, max_sweeps + 1):
        dmax = 0.0
        for j in range(d):
            gjj = gram[j, j]
            if gjj <= 0.0:
                continue
            zj = grad[j] + gjj * beta[j]
            if zj > lam:
                bnew = (zj - lam) / gjj
            elif zj < -lam:
                bnew = (zj + lam) / gjj
            else:
                bnew = 0.0
            diff = bnew - beta[j]
            if diff != 0.0:
                beta[j] = bnew
                grad -= gram[j] * diff
                if abs(diff) > dmax:
                    dmax = abs(diff)
        if dmax < tol:
            kkt = 0.0
            for j in range(d):
                if beta[j] == 0.0:
                    r = max(abs(grad[j]) - lam, 0.0)
                elif beta[j] > 0.0:
                    r = abs(grad[j] - lam)
                else:
                    r = abs(grad[j] + lam)
                if r > kkt:
                    kkt = r
            if kkt <= 10.0 * tol:
                return beta, sweep, True
    return beta, max_sweeps, False


def _bank_instance(seed, moving=False):
    """Four training sets of one design, one with a constant-zero column,
    each with penalties 0, duplicated ones, and ones at and above lam_max.
    With ``moving`` each set has penalty 0 twice instead, so in the first
    sweep every problem moves on each coordinate none of them has zero."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    grams, corrs, index, lams = [], [], [], []
    for g in range(4):
        n = int(rng.integers(8, 40))
        Z = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, size=d)
        if g == 1:
            Z[:, rng.integers(d)] = 0.0
        if g == 2:
            Z[:, 1] = Z[:, 0] + 0.05 * rng.normal(size=n)  # slow to converge
        y = Z[:, 0] - Z[:, -1] + rng.normal(size=n)
        grams.append(Z.T @ Z / n)
        corrs.append(Z.T @ y / n)
        lam_max = float(np.abs(corrs[-1]).max())
        drawn = list(rng.uniform(0.0, 1.0, size=4) * lam_max)
        for lam in [0.0, 0.0] if moving else [0.0, *drawn, drawn[0], lam_max, 2 * lam_max]:
            index.append(g)
            lams.append(lam)
    order = rng.permutation(len(index))  # problems of one gram need not be adjacent
    return np.array(grams), np.array(corrs), np.array(index)[order], np.array(lams)[order]


@pytest.mark.parametrize(
    "seed, moving",
    [
        *(pytest.param(s, False, id=str(s)) for s in range(12)),
        *(pytest.param(s, True, id=f"moving{s}") for s in range(2)),
    ],
)
def test_lasso_bank_matches_the_scalar_loop_bitwise(seed, moving):
    grams, corrs, index, lams = _bank_instance(seed, moving)
    for tol, max_iter in ((1e-8, 1000), (1e-12, 5)):
        coefs, sweeps, ok = lasso_bank(grams, corrs, index, lams, tol, max_iter)
        for k, (g, lam) in enumerate(zip(index, lams)):
            beta, want_sweeps, want_ok = _reference_sweeps(grams[g], corrs[g], lam, tol, max_iter)
            assert np.array_equal(coefs[k], beta)
            assert (sweeps[k], ok[k]) == (want_sweeps, want_ok)
        if max_iter > 5:
            assert len(set(sweeps[ok])) > 2  # problems retire at different sweeps
            assert not coefs[lams >= np.abs(corrs[index]).max(axis=1)].any()


def test_lasso_bank_skips_a_zero_variance_column():
    Z = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    y = np.array([2.0, 0.0, 2.0, 0.0])
    coefs, sweeps, ok = lasso_bank((Z.T @ Z / 4)[None], (Z.T @ y / 4)[None], [0, 0], [0.4, 0.0])
    assert np.array_equal(coefs, [[0.6, 0.0], [1.0, 0.0]]) and ok.all()


def test_lasso_bank_of_no_problems_returns_at_once():
    coefs, sweeps, ok = lasso_bank(np.eye(3)[None], np.ones((1, 3)), [], [], max_iter=10**9)
    assert coefs.shape == (0, 3) and sweeps.size == 0 and ok.size == 0


def test_lasso_bank_rejects_bad_input():
    gram, corr = np.eye(2)[None], np.ones((1, 2))
    with pytest.raises(DomainError):
        lasso_bank(gram, np.array([[1.0, np.inf]]), [0], [0.1])
    for bad in (
        dict(gram_index=[1], lams=[0.1]),
        dict(gram_index=[0], lams=[-0.1]),
        dict(gram_index=[0], lams=[np.nan]),
        dict(gram_index=[0, 0], lams=[0.1]),
        dict(gram_index=[0], lams=[0.1], tol=0.0),
        dict(gram_index=[0], lams=[0.1], max_iter=0),
    ):
        with pytest.raises(DomainError):
            lasso_bank(gram, corr, **bad)


def test_lasso_bank_refuses_float_or_bool_gram_indices():
    # a float index would be truncated (0.7 to gram 0) and a bool read as
    # gram 0 or 1, so both are refused, as sgd_trajectories refuses them
    grams, corrs = np.stack([np.eye(2), 2 * np.eye(2)]), np.ones((2, 2))
    for bad in ([0.7], [True], np.array([1.0])):
        with pytest.raises(DomainError, match="gram indices must be integers"):
            lasso_bank(grams, corrs, bad, [0.1] * len(bad))
    lasso_bank(grams, corrs, np.array([1, 0], dtype=np.uint8), [0.1, 0.1])


@pytest.mark.parametrize("bad", [[0, False], [True, 1], (1, np.bool_(False))])
def test_lasso_bank_refuses_a_bool_among_integer_gram_indices(bad):
    # numpy reads [0, False] as an int64 array, which would solve the second
    # problem on gram 0
    grams, corrs = np.stack([np.eye(2), 2 * np.eye(2)]), np.ones((2, 2))
    with pytest.raises(DomainError, match="gram indices must be integers"):
        lasso_bank(grams, corrs, bad, [0.1, 0.1])


def test_lasso_nonconvergence_reports_iterations():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 1))
    Z = np.hstack([base, base + 1e-4 * rng.normal(size=(30, 1))])
    y = rng.normal(size=30)
    with pytest.raises(ConvergenceError) as err:
        fit_lasso(Z, y, 1e-6, tol=1e-14, max_iter=2)
    assert err.value.iterations == 2


def test_lasso_grid_recipe():
    Z, y = _random_instance(6)
    grid = lasso_grid(Z, y, V=5)
    lam_max = lasso_max_lam(Z, y)
    assert len(grid) == 10
    assert grid[0] == pytest.approx(lam_max / np.sqrt(1 - 1 / 5))
    ratios = grid[:-1] / grid[1:]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-12)


def test_lasso_grid_log_spans_three_decades():
    Z, y = _random_instance(7)
    grid = lasso_grid_log(Z, y, count=50)
    lam_max = lasso_max_lam(Z, y)
    assert len(grid) == 50
    assert grid[0] == pytest.approx(lam_max)
    assert grid[-1] == pytest.approx(lam_max * 1e-3)
    ratios = grid[:-1] / grid[1:]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def test_lasso_grid_rejects_degenerate_response():
    Z = np.ones((10, 2))
    y = np.zeros(10)
    with pytest.raises(DomainError):
        lasso_grid(Z, y, V=5)


# ---------------------------------------------------------------- forward


def test_forward_zero_steps_is_zero_model():
    Z, y = _random_instance(8)
    m = fit_forward(Z, y, 0)
    assert np.array_equal(m.coef, np.zeros(Z.shape[1]))
    assert m.support == ()


def test_forward_first_pick_orthonormal_design():
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.normal(size=(12, 4)))
    y = rng.normal(size=12)
    m = fit_forward(Q, y, 1)
    assert m.support[0] == int(np.argmax(np.abs(Q.T @ y)))


def test_forward_each_step_minimizes_rss_greedily():
    rng = np.random.default_rng(10)
    Z = rng.normal(size=(16, 5))
    y = rng.normal(size=16)
    m = fit_forward(Z, y, 3)

    def rss(support):
        if not support:
            return float(y @ y)
        sub = Z[:, list(support)]
        beta, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = y - sub @ beta
        return float(r @ r)

    chosen: list[int] = []
    for step in range(3):
        best = None
        for j in range(5):
            if j in chosen:
                continue
            val = rss(chosen + [j])
            if best is None or val < best[1] - 0.0:
                if best is None or val < best[1]:
                    best = (j, val)
        assert m.support[step] == best[0]
        chosen.append(best[0])


def test_forward_full_support_matches_ols():
    Z, y = _random_instance(11, n=20, d=4)
    m = fit_forward(Z, y, 4)
    np.testing.assert_allclose(np.sort(m.support), np.arange(4))
    np.testing.assert_allclose(m.coef, _lstsq(Z, y), atol=1e-9)


def test_forward_rss_nonincreasing_along_path():
    Z, y = _random_instance(12, n=18, d=6)
    rss_prev = float(y @ y)
    for k in range(1, 7):
        m = fit_forward(Z, y, k)
        r = y - Z @ m.coef
        rss_k = float(r @ r)
        assert rss_k <= rss_prev + 1e-9
        rss_prev = rss_k


def test_forward_rejects_bad_steps():
    Z, y = _random_instance(13)
    with pytest.raises(DomainError):
        fit_forward(Z, y, Z.shape[1] + 1)


# ---------------------------------------------------------------- sgd


def test_sgd_config_constant_derivation_ridge():
    cfg = SgdConfig.for_ridge(lam=0.5, step_exponent=0.6, radius_x=1.5, radius_theta=2.0)
    assert cfg.strong_convexity == pytest.approx(0.5)
    assert cfg.smoothness == pytest.approx(1.5**2 + 0.5)
    assert cfg.lipschitz == pytest.approx(1.5**2 * (1 + 2.0) + 0.5 * 2.0)


def test_sgd_config_rejects_bad_exponent():
    with pytest.raises(DomainError):
        SgdConfig.for_ridge(lam=0.5, step_exponent=1.0, radius_x=1.0, radius_theta=1.0)


def test_sgd_config_rejects_a_penalty_that_is_not_a_number():
    # the derived constants would be NaN, and every comparison with them false
    with pytest.raises(DomainError, match="lam >= 0"):
        SgdConfig.for_ridge(lam=float("nan"), step_exponent=0.6, radius_x=1.0, radius_theta=1.0)


def test_sgd_config_refuses_bad_values_when_built():
    # the plain constructor checks as for_ridge does, so no consumer re-checks
    for args, message in (
        ((0.5, 1.0, 1.0, 1.0), "step exponent"),
        ((-0.1, 0.6, 1.0, 1.0), "lam >= 0"),
        ((0.5, 0.6, 0.0, 1.0), "radius_x > 0"),
        ((0.5, 0.6, 1.0, float("nan")), "radius_theta > 0"),
    ):
        with pytest.raises(DomainError, match=message):
            SgdConfig(*args)


def test_sgd_one_step_ridge_closed_form():
    cfg = SgdConfig.for_ridge(lam=0.5, step_exponent=0.6, radius_x=2.0, radius_theta=100.0)
    Z = np.array([[1.0, 2.0]])
    y = np.array([3.0])
    np.testing.assert_allclose(_sgd_pass(Z, y, cfg), y[0] * Z[0] / cfg.smoothness, atol=1e-14)


def test_sgd_two_steps_match_manual_recursion():
    cfg = SgdConfig.for_ridge(lam=0.4, step_exponent=0.7, radius_x=3.0, radius_theta=50.0)
    Z = np.array([[1.0, -1.0], [0.5, 2.0]])
    y = np.array([1.0, -2.0])
    beta = cfg.smoothness
    theta = np.zeros(2)
    for t in (1, 2):
        z, yy = Z[t - 1], y[t - 1]
        grad = -(yy - z @ theta) * z + cfg.lam * theta
        theta = theta - t**-0.7 / beta * grad
    np.testing.assert_allclose(_sgd_pass(Z, y, cfg), theta, atol=1e-14)


def test_sgd_projection_keeps_iterates_in_ball():
    cfg = SgdConfig.for_ridge(lam=0.2, step_exponent=0.51, radius_x=5.0, radius_theta=0.05)
    rng = np.random.default_rng(14)
    Z = rng.normal(size=(50, 3))
    y = 10.0 * rng.normal(size=50)
    assert np.linalg.norm(_sgd_pass(Z, y, cfg)) <= cfg.radius_theta + 1e-12
