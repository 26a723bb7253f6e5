"""End-to-end acceptance gates for the package.

Nine gates cover the full surface: analytic quantile oracles, exhaustive
screening-set equivalence, coverage campaigns for bands and confidence
sets at reduced replication counts, deterministic and scaling stability
bounds for SGD, the hold-out variance estimator against a closed-form
target, a large randomized invariant suite, and covariance consistency
at a known truth.  Each gate prints a single pass/fail line; run with
``pytest tests/test_acceptance.py -s`` to see them stream.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from cvconf.cli_harness import ExperimentConfig, run_band_coverage, run_cvc_size, run_fwd_pointwise, run_phi, run_stability
from cvconf.covariance import aggregate_covariance, variance_floor
from cvconf.cv_engine import cv_risk, fit_all_folds, loss_matrix, replace_one_cv_risk
from cvconf.datamodel import LearnerSpec, LossMatrix, make_folds
from cvconf.det_variance import HoldoutSet, phi_pair, phi_perturb
from cvconf.gaussian_mc import max_quantiles
from cvconf.inference import cvc_set, naive_set, simultaneous_band
from cvconf.learners import fit_lasso, lasso_max_lam
from cvconf.simgen import SparseLinearGen, gen_sparse_linear
from cvconf.stability_lab import sgd_campaigns


class _gate:
    """Prints one `[acceptance k/9] label: PASS|FAIL` line per gate."""

    def __init__(self, num: int, label: str):
        self.num, self.label = num, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.num}/9] {self.label}: {status}")
        return False


# ------------------------------------------------------------------ gate 1


def _abs_max(Y):
    return np.abs(Y).max(axis=1)


def _row_max(Y):
    return Y.max(axis=1)


def test_gate_1_gaussian_quantile_oracles():
    with _gate(1, "gaussian max-statistic quantiles vs analytic targets"):
        cases = [
            # (correlation, statistic, analytic 0.95-level quantile)
            (np.eye(1), _abs_max, float(ndtri(0.975))),
            (np.eye(1), _row_max, float(ndtri(0.95))),
            # two independent coordinates: P(max |Z| <= z) = (2 Phi(z) - 1)^2
            (np.eye(2), _abs_max, float(ndtri((1.0 + math.sqrt(0.95)) / 2.0))),
        ]
        for k, (corr, statistic, want) in enumerate(cases):
            rng = np.random.default_rng(1000 + k)
            t0 = time.perf_counter()
            got = float(max_quantiles(corr, statistic, 0.05, 200_000, rng)[0])
            elapsed = time.perf_counter() - t0
            assert abs(got - want) <= 0.02, f"case {k}: {got} vs {want}"
            assert elapsed < 2.0, f"case {k} took {elapsed:.2f} s"


# ------------------------------------------------------------------ gate 2


def _brute_force_members(values, plan, z_by_candidate):
    """Direct evaluation of the screening inequality, one scalar at a time."""
    n, p = values.shape
    members = []
    for r in range(p):
        variances, gaps = [], []
        for s in range(p):
            if s == r:
                continue
            d = values[:, r] - values[:, s]
            var = 0.0
            for ix in plan.index_sets:
                var += float(np.var(d[ix], ddof=1))
            variances.append(var / plan.V)
            gaps.append(float(np.mean(d)))
        floor = 1e-12 * max(max(variances), 1.0)
        ok = True
        worst = None
        for var, gap in zip(variances, gaps):
            if var > floor:
                stat = math.sqrt(n) * gap / math.sqrt(var)
                worst = stat if worst is None else max(worst, stat)
            elif gap > 0.0:
                ok = False
        if ok and worst is not None:
            ok = worst <= float(z_by_candidate[r])
        if ok:
            members.append(r)
    return tuple(members)


def test_gate_2_screening_set_brute_force_equivalence():
    with _gate(2, "difference-screened set equals exhaustive evaluation (1000 instances)"):
        rng = np.random.default_rng(99)
        duplicates = 0
        for case in range(1000):
            V = int(rng.integers(2, 6))
            n = V * int(rng.integers(2, 60 // V + 1))
            p = int(rng.integers(2, 6))
            plan = make_folds(n, V)
            centers = rng.normal(0.0, 1.0, p)
            scales = np.exp(rng.normal(0.0, 0.5, p))
            values = centers + scales * rng.standard_normal((n, p))
            if p >= 3 and rng.random() < 0.2:
                a, b = rng.choice(p, size=2, replace=False)
                values[:, b] = values[:, a]
                duplicates += 1
            lm = LossMatrix(values, plan, tuple(f"m{j}" for j in range(p)))
            z = rng.normal(1.0, 1.0, p)
            got = cvc_set(lm, 0.05, z_inject=z).members
            want = _brute_force_members(values, plan, z)
            assert got == want, f"case {case}: {got} vs {want}"
        assert duplicates >= 120  # the duplicate-column edge is well exercised


# ------------------------------------------------------------------ gate 3


def test_gate_3_band_coverage_campaign(tmp_path):
    with _gate(3, "simultaneous band covers ~90%, pointwise collection clearly less"):
        cfg = ExperimentConfig(
            kind="band_coverage",
            family="sparse_linear",
            n_list=(500,),
            d=20,
            s=5,
            nu=1000.0,
            lasso="log",
            lasso_count=50,
            lasso_ratio=1e-3,
            V=5,
            alphas=(0.1,),
            reps=300,
            draws=20000,
            seed=2025,
            out=str(tmp_path / "band"),
            threads=0,
        )
        manifest = run_band_coverage(cfg)
        assert manifest["failures"]["500"] == []
        agg = manifest["aggregates"]["500"][repr(0.1)]
        assert agg["reps"] == 300
        assert 0.86 <= agg["coverage"] <= 0.94, agg
        assert agg["coverage_pw"] <= agg["coverage"] - 0.05, agg


# ------------------------------------------------------------------ gate 4


def test_gate_4_confidence_set_campaign(tmp_path):
    with _gate(4, "both confidence sets cover >=93%, screened set strictly smaller"):
        cfg = ExperimentConfig(
            kind="cvc_size",
            family="sparse_linear",
            n_list=(1000, 2500),
            d="n/10",
            s=5,
            nu=1000.0,
            lasso="doubling",
            V=5,
            alphas=(0.05,),
            reps=300,
            draws=20000,
            seed=2026,
            out=str(tmp_path / "cvc"),
            threads=0,
        )
        manifest = run_cvc_size(cfg)
        for n in (1000, 2500):
            assert manifest["failures"][str(n)] == []
            agg = manifest["aggregates"][str(n)][repr(0.05)]
            assert agg["reps"] == 300
            assert agg["coverage"] >= 0.93, (n, agg)
            assert agg["coverage_naive"] >= 0.93, (n, agg)
            assert agg["mean_size_cvc"] < agg["mean_size_naive"], (n, agg)


# ------------------------------------------------------------------ gate 5


def test_gate_5_sgd_first_order_deterministic_bound():
    with _gate(5, "SGD replace-one bound holds in 200/200 trials"):
        report = sgd_campaigns(
            ("first",),
            (4096,),
            200,
            lam=0.6,
            step_exponent=0.6,
            radius_x=1.0,
            radius_theta=1.0,
            d=4,
            seed=41,
            index_mode="uniform",
        )["first"]
        assert len(report.samples[4096]) == 200
        assert report.violations[4096] == 0
        assert max(report.samples[4096]) <= report.bounds[4096] * (1 + 1e-9)


# ------------------------------------------------------------------ gate 6


def test_gate_6_sgd_second_order_scaling():
    with _gate(6, "second-order differences shrink like n^(-2a)"):
        a = 0.6
        report = sgd_campaigns(
            ("second",),
            (256, 512, 1024, 2048, 4096, 8192),
            60,
            lam=1.6,
            step_exponent=a,
            radius_x=1.0,
            radius_theta=1.0,
            d=4,
            seed=42,
        )["second"]
        assert report.slope is not None
        assert -2 * a - 0.2 <= report.slope <= -2 * a + 0.4, report.slope


# ------------------------------------------------------------------ gate 7


def test_gate_7_holdout_variance_analytic_target():
    with _gate(7, "hold-out variance estimate matches the closed-form loss variance"):
        n, d, s, nu, m = 200, 3, 2, 10.0, 2000
        ds, _ = gen_sparse_linear(SparseLinearGen(n=n, d=d, s=s, nu=nu, seed=51))
        hold_ds, _ = gen_sparse_linear(SparseLinearGen(n=m, d=d, s=s, nu=nu, seed=52))
        holdout = HoldoutSet.from_dataset(hold_ds)
        plan = make_folds(n, 5)
        # a learner that ignores its training data predicts zero, so the
        # per-point loss is y^2 with y ~ N(0, s (1 + 1/nu))
        specs = (LearnerSpec(family="forward", steps=0),)
        target = 2.0 * (s * (1.0 + 1.0 / nu)) ** 2
        pair = float(phi_pair(ds, specs, plan, holdout).phi[0, 0])
        perturb = float(phi_perturb(ds, specs, plan, holdout).phi[0, 0])
        y2 = np.asarray(hold_ds.response) ** 2
        summands = (y2[0::2] - y2[1::2]) ** 2 / 2.0
        assert summands.shape == (m // 2,)
        # for a training-independent learner the paired estimate IS the
        # mean of these summands
        np.testing.assert_allclose(pair, float(np.mean(summands)), rtol=1e-10)
        tol = 5.0 * float(np.std(summands, ddof=1)) / math.sqrt(m / 2)
        assert abs(pair - target) <= tol, (pair, target, tol)
        assert abs(perturb - target) <= tol, (perturb, target, tol)
        assert abs(pair - perturb) <= tol, (pair, perturb, tol)


# ------------------------------------------------------------------ gate 8


def _random_instance(rng, *, p_max=5):
    V = int(rng.integers(2, 6))
    n = V * int(rng.integers(2, 48 // V + 1))
    p = int(rng.integers(2, p_max + 1))
    plan = make_folds(n, V)
    centers = rng.normal(0.0, 1.0, p)
    scales = np.exp(rng.normal(0.0, 0.5, p))
    values = centers + scales * rng.standard_normal((n, p))
    if p >= 3 and rng.random() < 0.15:
        a, b = rng.choice(p, size=2, replace=False)
        values[:, b] = values[:, a]
    return LossMatrix(values, plan, tuple(f"m{j}" for j in range(p)))


def _check_screened_argmin(rng, case):
    lm = _random_instance(rng)
    alpha = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
    mcs = cvc_set(lm, alpha, draws=1000, seed=case)
    r_hat = int(np.argmin(cv_risk(lm).values))
    z = mcs.z_alpha[r_hat]
    if np.isnan(z) or z >= 0.0:
        assert r_hat in mcs.members


def _check_overlap_argmin(rng, case):
    lm = _random_instance(rng)
    band = simultaneous_band(cv_risk(lm), aggregate_covariance(lm), 0.1, seed=case, draws=1000)
    r_hat = int(np.argmin(cv_risk(lm).values))
    assert r_hat in naive_set(band).members


def _check_rescaling_invariance(rng, case):
    lm = _random_instance(rng)
    c = float(2.0 ** int(rng.choice([-3, -2, -1, 1, 2, 3])))
    lm2 = LossMatrix(lm.values * c, lm.plan, lm.model_labels)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    risks2, cov2 = cv_risk(lm2), aggregate_covariance(lm2)
    band = simultaneous_band(risks, cov, 0.1, seed=case, draws=1000)
    band2 = simultaneous_band(risks2, cov2, 0.1, seed=case, draws=1000)
    assert naive_set(band).members == naive_set(band2).members
    assert (
        cvc_set(lm, 0.1, draws=1000, seed=case).members
        == cvc_set(lm2, 0.1, draws=1000, seed=case).members
    )


def _check_covariance_shape(rng, case):
    lm = _random_instance(rng)
    est = aggregate_covariance(lm)
    assert np.array_equal(est.sigma, est.sigma.T)
    tol = 1e-8 * max(1.0, float(np.max(est.lambda_diag)))
    assert float(np.linalg.eigvalsh(est.sigma).min()) >= -tol


def _check_lasso_kkt(rng, case):
    n = int(rng.integers(20, 61))
    d = int(rng.integers(1, 9))
    Z = rng.standard_normal((n, d))
    y = Z @ rng.normal(0.0, 1.0, d) + rng.standard_normal(n)
    lam = float(rng.uniform(0.05, 1.2)) * lasso_max_lam(Z, y)
    beta = fit_lasso(Z, y, lam).coef
    grad = Z.T @ (y - Z @ beta) / n
    for j in range(d):
        if beta[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert abs(grad[j] - lam * np.sign(beta[j])) <= 1e-6


def _check_fold_formula(rng, case):
    n = int(rng.integers(4, 200))
    V = int(rng.integers(2, min(n, 8) + 1))
    plan = make_folds(n, V, mode="balanced")
    base, rem = divmod(n, V)
    sizes = [base + 1] * rem + [base] * (V - rem)
    assert [len(ix) for ix in plan.index_sets] == sizes
    flat = np.concatenate(plan.index_sets)
    assert np.array_equal(flat, np.arange(n))  # contiguous blocks, in order
    for v, ix in enumerate(plan.index_sets):
        assert np.all(plan.fold_of[ix] == v)


def _check_replace_identity(rng, case):
    n = int(rng.choice([20, 30, 40]))
    V = int(rng.choice([2, 4, 5]))
    if n % V:
        V = 2
    ds, _ = gen_sparse_linear(SparseLinearGen(n=n, d=4, s=2, nu=10.0, seed=case))
    plan = make_folds(n, V)
    specs = (LearnerSpec(family="ridge", lam=0.5), LearnerSpec(family="forward", steps=2))
    fits = fit_all_folds(ds, specs, plan)
    base = cv_risk(loss_matrix(ds, fits, plan, "squared"))
    i = int(rng.integers(0, n))
    again = replace_one_cv_risk(ds, specs, plan, i, (ds.features[i], float(ds.response[i])), fits)
    assert np.array_equal(base.values, again.values)


def _tiny_campaigns(out):
    base = dict(family="sparse_linear", V=5, reps=2, draws=2000, threads=1)
    return [
        (
            run_band_coverage,
            ExperimentConfig(
                kind="band_coverage",
                n_list=(60,),
                d=6,
                s=2,
                nu=50.0,
                lasso="log",
                lasso_count=3,
                lasso_ratio=0.01,
                alphas=(0.1,),
                seed=7,
                out=out,
                **base,
            ),
        ),
        (
            run_cvc_size,
            ExperimentConfig(
                kind="cvc_size",
                n_list=(60,),
                d=6,
                s=2,
                nu=50.0,
                lasso="doubling",
                alphas=(0.1,),
                seed=8,
                out=out,
                **base,
            ),
        ),
        (
            run_fwd_pointwise,
            ExperimentConfig(
                kind="fwd_pointwise",
                n_list=(60,),
                d=10,
                s=5,
                nu=100.0,
                forward_steps=(3, 5),
                alphas=(0.1,),
                seed=9,
                out=out,
                **base,
            ),
        ),
        (
            run_stability,
            ExperimentConfig(
                kind="stability",
                family="bounded_regression",
                n_list=(128,),
                d=4,
                radius_x=1.0,
                sgd_lam=2.5,
                sgd_a=0.6,
                sgd_radius_theta=1.0,
                variant="first",
                index_mode="uniform",
                reps=2,
                seed=10,
                out=out,
                threads=1,
            ),
        ),
        (
            run_phi,
            ExperimentConfig(
                kind="phi",
                n_list=(40,),
                d=3,
                s=2,
                nu=10.0,
                forward_steps=(0,),
                variant="both",
                holdout_m=8,
                seed=11,
                out=out,
                V=5,
                reps=1,
                threads=1,
            ),
        ),
    ]


def _strip_ms_column(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    if "ms_elapsed" not in header:
        return "\n".join(lines)
    drop = header.index("ms_elapsed")
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[drop]
        out.append(",".join(cells))
    return "\n".join(out)


def _check_campaign_determinism(tmp_path):
    import dataclasses

    for k, (runner, cfg) in enumerate(_tiny_campaigns(str(tmp_path / "a"))):
        dir_a = tmp_path / f"a{k}"
        dir_b = tmp_path / f"b{k}"
        runner(dataclasses.replace(cfg, out=str(dir_a)))
        runner(dataclasses.replace(cfg, out=str(dir_b)))
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        for name in files_a:
            pa, pb = dir_a / name, dir_b / name
            if name.endswith(".csv"):
                assert _strip_ms_column(pa) == _strip_ms_column(pb), name
            else:
                assert pa.read_bytes() == pb.read_bytes(), name


def test_gate_8_invariant_suite(tmp_path):
    with _gate(8, "randomized invariants (1000 cases each) and campaign determinism"):
        checks = [
            _check_screened_argmin,
            _check_overlap_argmin,
            _check_rescaling_invariance,
            _check_covariance_shape,
            _check_lasso_kkt,
            _check_fold_formula,
            _check_replace_identity,
        ]
        for k, check in enumerate(checks):
            rng = np.random.default_rng(5000 + k)
            for case in range(1000):
                check(rng, case)
        _check_campaign_determinism(tmp_path)


# ------------------------------------------------------------------ gate 9


def test_gate_9_covariance_consistency():
    with _gate(9, "plug-in covariance concentrates at a known truth"):
        sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.2, 0.3], [0.2, 0.3, 0.8]])
        L = np.linalg.cholesky(sigma)
        labels = ("a", "b", "c")
        for n in (500, 2000):
            plan = make_folds(n, 5)
            tol = 5.0 * math.sqrt(math.log(3)) / math.sqrt(n)
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng(9000 + seed)
                rows = rng.standard_normal((n, 3)) @ L.T
                est = aggregate_covariance(LossMatrix(rows, plan, labels))
                if float(np.max(np.abs(est.sigma - sigma))) <= tol:
                    hits += 1
            assert hits >= 95, (n, hits)
