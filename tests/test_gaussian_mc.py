"""Monte Carlo quantiles of Gaussian max statistics."""

import numpy as np
import pytest
from scipy.special import ndtri

from cvconf import gaussian_mc
from cvconf.datamodel import DomainError
from cvconf.gaussian_mc import max_quantiles
from cvconf.simgen import derive_substream


def _abs_max(Y):
    return np.abs(Y).max(axis=1)


def _max(Y):
    return Y.max(axis=1)


STATS = {"abs_max": _abs_max, "max": _max}


def _z(corr, alpha, draws, mode, seed):
    rng = derive_substream(seed, "test-quantile")
    return float(max_quantiles(np.asarray(corr, dtype=float), STATS[mode], alpha, draws, rng)[0])


# ---------------------------------------------------------- input checks


def test_quantiles_reject_indefinite():
    # unit diagonal, entries in [-1, 1], eigenvalue -0.8 along (1, -1, 1)
    C = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(DomainError, match="positive semidefinite"):
        _z(C, 0.05, 2000, "max", seed=0)


def test_quantiles_reject_asymmetric():
    with pytest.raises(DomainError, match="symmetric"):
        _z(np.array([[1.0, 0.5], [0.2, 1.0]]), 0.05, 2000, "max", seed=0)


# ---------------------------------------------------------- max_quantiles


def test_quantile_single_coordinate_two_sided():
    z = _z([[1.0]], 0.05, 40_000, "abs_max", seed=1)
    assert z == pytest.approx(ndtri(0.975), abs=0.05)


def test_quantile_single_coordinate_one_sided():
    z = _z([[1.0]], 0.05, 40_000, "max", seed=2)
    assert z == pytest.approx(ndtri(0.95), abs=0.05)


def test_quantile_two_independent_coordinates():
    z = _z(np.eye(2), 0.05, 40_000, "abs_max", seed=3)
    target = ndtri((1 + np.sqrt(0.95)) / 2)
    assert z == pytest.approx(target, abs=0.05)


def test_quantile_order_statistic_convention():
    # z is the ceil(B(1 - alpha))-th smallest of the max statistics
    B, alpha = 1000, 0.05
    z = _z([[1.0]], alpha, B, "abs_max", seed=4)
    draws = derive_substream(4, "test-quantile").standard_normal((B, 1))
    expected = np.sort(np.abs(draws[:, 0]))[949]
    assert z == expected


def test_quantile_nonnegative_for_abs_max():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 0.5 * np.eye(3)
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        z = _z(corr, 0.2, 2000, "abs_max", seed=seed)
        assert z >= 0.0


def test_quantile_monotone_in_alpha_with_shared_seed():
    za = _z(np.eye(3), 0.01, 20_000, "abs_max", seed=5)
    zb = _z(np.eye(3), 0.10, 20_000, "abs_max", seed=5)
    zc = _z(np.eye(3), 0.50, 20_000, "abs_max", seed=5)
    assert za >= zb >= zc


def test_quantile_abs_max_dominates_max_on_shared_draws():
    for alpha in (0.05, 0.2, 0.5):
        z2 = _z(np.eye(4), alpha, 10_000, "abs_max", seed=6)
        z1 = _z(np.eye(4), alpha, 10_000, "max", seed=6)
        assert z2 >= z1


def test_quantile_perfect_correlation_collapses_to_one_coordinate():
    ones = np.ones((3, 3))
    z3 = _z(ones, 0.05, 60_000, "abs_max", seed=7)
    assert z3 == pytest.approx(ndtri(0.975), abs=0.05)


def test_quantile_deterministic_given_stream_key():
    a = _z(np.eye(2), 0.1, 5000, "abs_max", seed=8)
    b = _z(np.eye(2), 0.1, 5000, "abs_max", seed=8)
    c = _z(np.eye(2), 0.1, 5000, "abs_max", seed=9)
    assert a == b
    assert a != c


def test_quantile_invariant_to_chunk_size(monkeypatch):
    corr = np.array([[1.0, 0.3], [0.3, 1.0]])
    monkeypatch.setattr(gaussian_mc, "BLOCK_ELEMS", 64)
    a = _z(corr, 0.1, 7000, "abs_max", seed=10)
    monkeypatch.setattr(gaussian_mc, "BLOCK_ELEMS", 10_000_000)
    b = _z(corr, 0.1, 7000, "abs_max", seed=10)
    assert a == b


def test_quantile_permutation_stability():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    cov = A @ A.T + np.eye(4)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    perm = [2, 0, 3, 1]
    z1 = _z(corr, 0.1, 60_000, "abs_max", seed=12)
    z2 = _z(corr[np.ix_(perm, perm)], 0.1, 60_000, "abs_max", seed=13)
    assert z1 == pytest.approx(z2, abs=0.06)


def test_request_validation():
    with pytest.raises(DomainError):
        _z(np.eye(2), 0.05, 500, "abs_max", seed=0)
    with pytest.raises(DomainError):
        _z(np.eye(2), 0.0, 2000, "abs_max", seed=0)
    with pytest.raises(DomainError):
        _z(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.05, 2000, "abs_max", seed=0)
    with pytest.raises(DomainError):
        _z(np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.0]]), 0.05, 2000, "abs_max", seed=0)
    with pytest.raises(DomainError):
        _z(np.array([[2.0, 0.0], [0.0, 1.0]]), 0.05, 2000, "abs_max", seed=0)
    with pytest.raises(DomainError):
        _z(np.array([[1.0, 1.5], [1.5, 1.0]]), 0.05, 2000, "abs_max", seed=0)


def test_quantiles_one_per_statistic_column():
    # a two-column statistic reads both quantiles from the same draws
    corr = np.array([[1.0, -0.4], [-0.4, 1.0]])
    both = max_quantiles(
        corr,
        lambda Y: np.column_stack([_max(Y), _abs_max(Y)]),
        0.1,
        3000,
        derive_substream(14, "test-quantile"),
    )
    assert both.shape == (2,)
    assert both[0] == _z(corr, 0.1, 3000, "max", seed=14)
    assert both[1] == _z(corr, 0.1, 3000, "abs_max", seed=14)


def _collinear_corr():
    # coordinates 0..3 random, 4 duplicates 0, 5 is a unit combination of 1 and 2
    rng = np.random.default_rng(15)
    X = rng.normal(size=(200, 4))
    X = np.column_stack([X, X[:, 0], X[:, 1] + X[:, 2]])
    return np.corrcoef(X, rowvar=False)


def test_factor_has_the_numerical_rank_and_reproduces_corr():
    corr = _collinear_corr()
    F = gaussian_mc._factor(corr)
    assert F.shape == (4, 6)
    np.testing.assert_allclose(F.T @ F, corr, rtol=0, atol=1e-12)


def test_call_draws_exactly_draws_times_rank_normals():
    corr, draws = _collinear_corr(), 3000
    rng = derive_substream(16, "test-quantile")
    _, rank = max_quantiles(corr, _abs_max, 0.1, draws, rng, return_rank=True)
    assert rank == 4
    fresh = derive_substream(16, "test-quantile")
    fresh.standard_normal(draws * rank)
    assert rng.standard_normal() == fresh.standard_normal()


def test_multi_alpha_call_equals_single_alpha_calls_bitwise():
    corr = _collinear_corr()

    def stat(Y):
        return np.column_stack([_max(Y), _abs_max(Y)])

    alphas = (0.05, 0.2, 0.5, 0.2)
    both = max_quantiles(corr, stat, alphas, 4000, derive_substream(17, "test-quantile"))
    assert both.shape == (4, 2)
    for row, alpha in zip(both, alphas):
        one = max_quantiles(corr, stat, alpha, 4000, derive_substream(17, "test-quantile"))
        np.testing.assert_array_equal(row, one)


@pytest.mark.parametrize("draws", [1000, 1999, 4321])
def test_quantiles_kept_from_the_tail_equal_those_of_all_draws(monkeypatch, draws):
    # small blocks, so the buffer fills and drops its lowest values many times
    monkeypatch.setattr(gaussian_mc, "BLOCK_ELEMS", 90)
    alphas = (0.05, 0.3, 0.01)
    ks = [gaussian_mc.conservative_order_index(draws, a) for a in alphas]
    for seed in range(20):
        seen = []

        def stat(Y):
            seen.append(np.column_stack([_max(Y), _abs_max(Y)]))
            return seen[-1]

        got = max_quantiles(_collinear_corr(), stat, alphas, draws, derive_substream(seed, "q"))
        every = np.concatenate(seen)
        assert every.shape == (draws, 2)
        np.testing.assert_array_equal(got, np.sort(every, axis=0)[ks])


def test_linear_map_is_applied_to_the_draws():
    # Y @ A with A = [e_0 - e_1, e_2]: the first column has variance 2 - 2 rho
    corr = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    got = max_quantiles(corr, lambda Y: Y, 0.05, 40_000, derive_substream(18, "q"), linear=A)
    np.testing.assert_allclose(got, [ndtri(0.95), ndtri(0.95)], atol=0.05)


def _reference_quantiles(corr, statistic, alphas, draws, rng, linear):
    """max_quantiles written plainly: a fresh (b, r) draw and product per
    block of BLOCK_ELEMS // max(r, m) rows, and every value sorted."""
    M = gaussian_mc._factor(corr) @ linear
    r, m = M.shape
    rows = max(1, gaussian_mc.BLOCK_ELEMS // max(r, m))
    parts = []
    for first in range(0, draws, rows):
        b = min(rows, draws - first)
        parts.append(np.array(statistic(rng.standard_normal((b, r)) @ M)).reshape(b, -1))
    ks = [gaussian_mc.conservative_order_index(draws, a) for a in alphas]
    return np.sort(np.concatenate(parts), axis=0)[ks]


def _abs_max_min_in_place(Y):
    np.abs(Y, out=Y)
    return np.column_stack([Y.max(axis=1), Y.min(axis=1)])


def _itself(Y):
    return Y


@pytest.mark.parametrize("statistic", [_abs_max_min_in_place, _itself])
@pytest.mark.parametrize("block_elems", [gaussian_mc.BLOCK_ELEMS, 1000])
@pytest.mark.parametrize(
    "shape, draws",
    [
        ("wide", 4321),  # m >> r: one draw of normals spans many blocks
        ("tall", 1000),  # r > m: one block per draw, draws not a multiple of it
    ],
)
def test_chunked_draws_and_reused_products_equal_a_fresh_draw_per_block(
    monkeypatch, statistic, block_elems, shape, draws
):
    monkeypatch.setattr(gaussian_mc, "BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(19)
    if shape == "wide":
        corr, linear = _collinear_corr(), rng.normal(size=(6, 300))  # r = 4, m = 300
    else:
        A = rng.normal(size=(7, 7))
        cov = A @ A.T + np.eye(7)
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        linear = rng.normal(size=(7, 3))  # r = 7, m = 3
    alphas = (0.05, 0.5)
    got_rng, want_rng = derive_substream(20, "q"), derive_substream(20, "q")
    got, rank = max_quantiles(
        corr, statistic, alphas, draws, got_rng, linear=linear, return_rank=True
    )
    want = _reference_quantiles(corr, statistic, alphas, draws, want_rng, linear)
    np.testing.assert_array_equal(got, want)
    assert rank == (4 if shape == "wide" else 7)
    assert draws % (block_elems // max(rank, linear.shape[1]))  # a short last block
    fresh = derive_substream(20, "q")
    fresh.standard_normal(draws * rank)
    assert got_rng.standard_normal() == want_rng.standard_normal() == fresh.standard_normal()
