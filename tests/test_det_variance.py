"""Replace-one variance estimation against analytic oracles."""

import json

import numpy as np
import pytest

from cvconf.cli_harness import ExperimentConfig, _phi_problem, run_phi
from cvconf.cv_engine import cv_risk, fit_all_folds, loss_matrix
from cvconf.datamodel import Dataset, DomainError, LearnerSpec, make_folds
from cvconf.det_variance import (
    HoldoutSet,
    ParityError,
    PhiEstimate,
    default_holdout_size,
    default_perturb_schedule,
    phi_pair,
    phi_perturb,
)
from cvconf.simgen import SparseLinearGen, derive_substream, gen_sparse_linear

ZERO_FIT = LearnerSpec(family="forward", steps=0)  # predicts 0 whatever the data


def _instance(n=60, d=6, s=3, nu=3.0, seed=0):
    ds, truth = gen_sparse_linear(SparseLinearGen(n=n, d=d, s=s, nu=nu, seed=seed))
    return ds, truth


def _holdout(m, d=6, s=3, nu=3.0, seed=1):
    ds, _ = gen_sparse_linear(SparseLinearGen(n=m, d=d, s=s, nu=nu, seed=seed))
    return HoldoutSet(ds.features, ds.response)


# ------------------------------------------------------------------- types


def test_holdout_validation():
    h = _holdout(10)
    assert h.m == 10 and h.d == 6
    with pytest.raises(DomainError):
        HoldoutSet(np.ones((4, 2)), np.ones(3))
    with pytest.raises(DomainError):
        HoldoutSet(np.ones(4), np.ones(4))
    with pytest.raises(DomainError):
        HoldoutSet(np.array([[1.0], [np.inf]]), np.ones(2))


def test_default_holdout_size_is_even_ceiling():
    assert default_holdout_size(1000) == 64
    assert default_holdout_size(100) == 16
    assert default_holdout_size(20) == 8  # ceil(20**0.6) = 7, rounded up
    assert default_holdout_size(2) == 2
    for n in (2, 5, 17, 123, 4096):
        m = default_holdout_size(n)
        assert m % 2 == 0 and m >= n**0.6


def test_default_perturb_schedule_round_robin():
    assert default_perturb_schedule(6, 8) == (0, 1, 2, 3, 4, 5, 0, 1)
    assert default_perturb_schedule(3, 2) == (0, 1)


# ------------------------------------------------------------------- pair


def test_phi_pair_constant_losses_vanish():
    n, m = 20, 8
    ds = Dataset(np.ones((n, 2)), np.full(n, 2.0))
    hold = HoldoutSet(np.ones((m, 2)), np.full(m, 2.0))
    plan = make_folds(n, 4)
    est = phi_pair(ds, [ZERO_FIT], plan, hold)
    np.testing.assert_array_equal(est.phi, np.zeros((1, 1)))
    est2 = phi_perturb(ds, [ZERO_FIT], plan, hold)
    np.testing.assert_array_equal(est2.phi, np.zeros((1, 1)))


def test_phi_pair_odd_holdout_rejected():
    ds, _ = _instance()
    with pytest.raises(ParityError):
        phi_pair(ds, [ZERO_FIT], make_folds(60, 5), _holdout(9))


def test_phi_pair_dimension_mismatch_rejected():
    ds, _ = _instance()
    with pytest.raises(DomainError):
        phi_pair(ds, [ZERO_FIT], make_folds(60, 5), _holdout(8, d=3, s=2))


def test_phi_pair_training_independent_matches_loss_differences():
    # the zero predictor scores row i as y_i^2, so replacing row 0 moves
    # exactly one loss entry and the estimator reduces to paired squared
    # differences of hold-out losses
    ds, _ = _instance(seed=3)
    hold = _holdout(40, seed=4)
    plan = make_folds(60, 5)
    est = phi_pair(ds, [ZERO_FIT], plan, hold)
    ell = hold.response**2
    expected = np.sum((ell[0::2] - ell[1::2]) ** 2) / hold.m
    assert est.phi[0, 0] == pytest.approx(expected, rel=1e-9)
    assert est.variant == "pair" and est.m == 40


def test_phi_pair_analytic_variance_target():
    # Var(y^2) = 2 (s (1 + 1/nu))^2 for the sparse generator
    s, nu = 3.0, 3.0
    ds, _ = _instance(n=60, s=int(s), nu=nu, seed=5)
    hold = _holdout(400, s=int(s), nu=nu, seed=6)
    est = phi_pair(ds, [ZERO_FIT], make_folds(60, 5), hold)
    ell = hold.response**2
    summands = (ell[0::2] - ell[1::2]) ** 2
    se = summands.std(ddof=1) / np.sqrt(2 * hold.m)
    target = 2.0 * (s * (1 + 1 / nu)) ** 2
    assert abs(est.phi[0, 0] - target) <= 5 * se


def test_phi_symmetric_nonnegative_diagonal():
    ds, _ = _instance(seed=7)
    specs = [
        LearnerSpec(family="ridge", lam=0.0),
        LearnerSpec(family="ridge", lam=0.5),
        ZERO_FIT,
    ]
    plan = make_folds(60, 5)
    est = phi_pair(ds, specs, plan, _holdout(8, seed=8))
    np.testing.assert_array_equal(est.phi, est.phi.T)
    assert np.all(np.diag(est.phi) >= 0.0)
    assert np.all(np.isfinite(est.phi))
    est2 = phi_perturb(ds, specs, plan, _holdout(7, seed=9))
    np.testing.assert_array_equal(est2.phi, est2.phi.T)
    assert np.all(np.diag(est2.phi) >= 0.0)


# ----------------------------------------------------------------- perturb


def test_phi_perturb_training_independent_matches_loss_differences():
    ds, _ = _instance(seed=10)
    hold = _holdout(30, seed=11)
    plan = make_folds(60, 5)
    est = phi_perturb(ds, [ZERO_FIT], plan, hold)
    ell_data = ds.response**2
    ell_hold = hold.response**2
    sched = default_perturb_schedule(60, 30)
    expected = np.sum((ell_data[list(sched)] - ell_hold) ** 2) / (2 * hold.m)
    assert est.phi[0, 0] == pytest.approx(expected, rel=1e-9)
    assert est.variant == "perturb"
    assert est.indices == sched


def test_phi_pair_and_perturb_agree_on_training_independent_losses():
    s, nu = 3.0, 3.0
    ds, _ = _instance(n=80, s=int(s), nu=nu, seed=12)
    plan = make_folds(80, 5)
    hold = _holdout(500, s=int(s), nu=nu, seed=13)
    pair = phi_pair(ds, [ZERO_FIT], plan, hold)
    pert = phi_perturb(ds, [ZERO_FIT], plan, hold)
    ell = hold.response**2
    t_pair = (ell[0::2] - ell[1::2]) ** 2
    se_pair = t_pair.std(ddof=1) / np.sqrt(2 * hold.m)
    sched = default_perturb_schedule(80, 500)
    t_pert = (ds.response[list(sched)] ** 2 - ell) ** 2
    se_pert = t_pert.std(ddof=1) / (2 * np.sqrt(hold.m))
    tol = 5 * np.sqrt(se_pair**2 + se_pert**2)
    assert abs(pair.phi[0, 0] - pert.phi[0, 0]) <= tol


def test_phi_sampling_variance_halves_when_m_doubles():
    n, V = 12, 3
    ds, _ = _instance(n=n, d=2, s=1, nu=2.0, seed=20)
    plan = make_folds(n, V)
    small, large = [], []
    for k in range(400):
        rng = derive_substream(99, "halving", k)
        y = rng.normal(size=32)
        feats = np.zeros((32, 2))
        small.append(
            phi_pair(ds, [ZERO_FIT], plan, HoldoutSet(feats[:8], y[:8])).phi[0, 0]
        )
        large.append(
            phi_pair(ds, [ZERO_FIT], plan, HoldoutSet(feats[:16], y[:16])).phi[0, 0]
        )
    ratio = np.var(small) / np.var(large)
    assert 1.6 <= ratio <= 2.5


def _oracle_phi(ds, specs, plan, hold, variant):
    """phi from scratch: every replaced dataset refitted in full, outer
    products accumulated entry by entry."""

    def risks(data):
        return cv_risk(loss_matrix(data, fit_all_folds(data, specs, plan), plan, "squared")).values

    def swapped(i, j):
        return risks(ds.replace_row(i, hold.features[j], float(hold.response[j])))

    if variant == "pair":
        deltas = [swapped(0, 2 * j) - swapped(0, 2 * j + 1) for j in range(hold.m // 2)]
        scale = ds.n**2 / hold.m
    else:
        base = risks(ds)
        schedule = default_perturb_schedule(ds.n, hold.m)
        deltas = [base - swapped(i, j) for j, i in enumerate(schedule)]
        scale = ds.n**2 / (2 * hold.m)
    p = len(specs)
    phi = np.zeros((p, p))
    for delta in deltas:
        for a in range(p):
            for b in range(p):
                phi[a, b] += delta[a] * delta[b]
    return phi * scale


@pytest.mark.parametrize("variant", ["pair", "perturb"])
def test_phi_matches_from_scratch_refits(variant):
    ds, _ = _instance(n=40, seed=40)
    specs = (
        LearnerSpec(family="ridge", lam=0.3),
        LearnerSpec(family="lasso", lam=0.05),
        LearnerSpec(family="lasso", lam=0.2),
    )
    plan = make_folds(40, 4)
    hold = _holdout(10, seed=41)
    estimator = phi_pair if variant == "pair" else phi_perturb
    est = estimator(ds, specs, plan, hold)
    want = _oracle_phi(ds, specs, plan, hold, variant)
    np.testing.assert_allclose(est.phi, want, rtol=1e-12, atol=0)
    assert np.all(np.abs(want) > 0.0)
    assert est.model_labels == tuple(spec.label() for spec in specs)


# --------------------------------------------------------------------- io


def test_phi_csv_round_trip(tmp_path):
    # run_phi writes the estimate that phi_pair returns on the campaign's data
    cfg = ExperimentConfig(
        kind="phi",
        n_list=(60,),
        d=6,
        s=3,
        nu=3.0,
        forward_steps=(0,),
        ridge_lams=(1.0,),
        holdout_m=6,
        seed=30,
        out=str(tmp_path),
        threads=1,
        variant="pair",
    )
    run_phi(cfg)
    est = phi_pair(*_phi_problem(cfg, 60))
    back = np.loadtxt(tmp_path / "phi_pair_n60.csv", delimiter=",", ndmin=2)
    np.testing.assert_allclose(back, est.phi, rtol=0, atol=1e-15)
    meta = json.loads((tmp_path / "phi_pair_n60.json").read_text())
    assert meta["n"] == 60 and meta["m"] == 6
    assert meta["variant"] == "pair" and meta["seed"] == 30
    manifest = json.loads((tmp_path / "phi_manifest.json").read_text())
    assert manifest["aggregates"]["pair"]["60"]["diag"] == np.diag(est.phi).tolist()
