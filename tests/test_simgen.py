"""Seeded synthetic data generators and RNG substream derivation."""

import numpy as np
import pytest

from cvconf.datamodel import DomainError
from cvconf.simgen import SparseLinearGen, derive_substream, gen_sparse_linear, stable_subseed


def test_sparse_linear_noise_variance_rule():
    cfg = SparseLinearGen(n=50, d=20, s=5, nu=1000.0, seed=3)
    _, truth = gen_sparse_linear(cfg)
    assert truth.noise_var == pytest.approx(0.005)
    assert truth.beta.tolist() == [1.0] * 5 + [0.0] * 15


def test_sparse_linear_infinite_nu_is_noiseless():
    cfg = SparseLinearGen(n=40, d=4, s=2, nu=np.inf, seed=1)
    ds, truth = gen_sparse_linear(cfg)
    assert truth.noise_var == 0.0
    np.testing.assert_array_equal(ds.response, ds.features @ truth.beta)


def test_sparse_linear_moments():
    # column means shrink like 1/sqrt(n); Var(Y) = s + sigma^2
    cfg = SparseLinearGen(n=200_000, d=4, s=2, nu=10.0, seed=11)
    ds, truth = gen_sparse_linear(cfg)
    assert np.abs(ds.features.mean(axis=0)).max() < 5 / np.sqrt(cfg.n)
    y = ds.response
    target = cfg.s + truth.noise_var
    centred_sq = (y - y.mean()) ** 2
    se = centred_sq.std() / np.sqrt(cfg.n)
    assert abs(centred_sq.mean() - target) < 5 * se


def test_sparse_linear_is_pure_and_ignores_global_state():
    cfg = SparseLinearGen(n=30, d=3, s=1, nu=5.0, seed=9)
    ds1, _ = gen_sparse_linear(cfg)
    np.random.seed(0)
    np.random.normal(size=100)
    ds2, _ = gen_sparse_linear(cfg)
    assert np.array_equal(ds1.features, ds2.features)
    assert np.array_equal(ds1.response, ds2.response)


def test_sparse_linear_domain_checks():
    # each check runs when the config is built, before any draw
    with pytest.raises(DomainError, match="need n >= 1"):
        SparseLinearGen(n=0, d=3, s=2, nu=1.0, seed=0)
    with pytest.raises(DomainError, match="1 <= s <= d"):
        SparseLinearGen(n=10, d=3, s=4, nu=1.0, seed=0)
    with pytest.raises(DomainError, match="nu > 0"):
        SparseLinearGen(n=10, d=3, s=2, nu=float("nan"), seed=0)
    with pytest.raises(DomainError):
        gen_sparse_linear(SparseLinearGen(n=10, d=3, s=4, nu=1.0, seed=0))
    with pytest.raises(DomainError):
        gen_sparse_linear(SparseLinearGen(n=10, d=3, s=0, nu=1.0, seed=0))
    with pytest.raises(DomainError):
        gen_sparse_linear(SparseLinearGen(n=10, d=3, s=2, nu=0.0, seed=0))


def test_derive_substream_deterministic_and_distinct():
    a = derive_substream(42, "unit", 1, 2).standard_normal(8)
    b = derive_substream(42, "unit", 1, 2).standard_normal(8)
    c = derive_substream(42, "unit", 1, 3).standard_normal(8)
    d = derive_substream(42, "other", 1, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_substream_cross_correlation():
    n = 100_000
    x = derive_substream(7, "corr", 0).standard_normal(n)
    y = derive_substream(7, "corr", 1).standard_normal(n)
    r = float(np.corrcoef(x, y)[0, 1])
    assert abs(r) < 4 / np.sqrt(n)


def test_substream_keys_refuse_a_float_or_bool():
    # int() would read 2.7 as 2 and True as 1, giving another key's stream
    for seed, indices in ((2.7, ()), (True, ()), (1, (2.5,)), (1, (np.bool_(True),)), (1.9, (2,))):
        with pytest.raises(DomainError, match="must be integers"):
            derive_substream(seed, "x", *indices)
        with pytest.raises(DomainError, match="must be integers"):
            stable_subseed(seed, "x", *indices)
    with pytest.raises(DomainError, match="master seeds must be integers"):
        gen_sparse_linear(SparseLinearGen(n=10, d=3, s=2, nu=1.0, seed=2.7))
    # numpy integers are integers
    assert stable_subseed(np.int64(1), "x", np.uint8(2)) == stable_subseed(1, "x", 2)
    a = derive_substream(np.int64(4), "x", np.intp(3)).standard_normal(4)
    assert np.array_equal(a, derive_substream(4, "x", 3).standard_normal(4))
