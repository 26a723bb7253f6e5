"""Correctness checks for the benchmark's workloads.

Each check compares what a campaign wrote against a computation made
here, from the generated inputs and the package's public pieces, or
against a property the method must have.  Nothing is compared with a
saved copy of earlier output.  A check returns a list of problems; an
empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from cvconf.cv_engine import cv_risk, fit_all_folds, loss_matrix, replace_one_cv_risk
from cvconf.covariance import aggregate_covariance
from cvconf.datamodel import LearnerSpec, make_folds
from cvconf.learners import SgdConfig, lasso_grid_log
from cvconf.simgen import SparseLinearGen, gen_sparse_linear
from cvconf.stability_lab import param_first_diff, param_second_diff

# slack on a Monte Carlo critical value, in standard errors of the
# single-coordinate quantile (the widest of the errors involved)
MC_SE_SLACK = 5.0


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _mc_slack(alpha: float, draws: int) -> float:
    z = float(ndtri(1.0 - alpha))
    dens = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    return MC_SE_SLACK * math.sqrt(alpha * (1 - alpha) / draws) / dens


def _fold_cov(values: np.ndarray, plan) -> np.ndarray:
    return sum(np.atleast_2d(np.cov(values[ix], rowvar=False)) for ix in plan.index_sets) / plan.V


# ------------------------------------------------------------------ cvc_p50


def check_cvc_round(out: Path, cfg, captured) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) for one cvc_size campaign.

    ``captured`` holds (name, args, kwargs, result) for every call the
    campaign made to ``simultaneous_band`` and ``cvc_set``.
    """
    problems: list[str] = []
    (n,) = cfg.n_list
    manifest = json.loads((out / "cvc_size_manifest.json").read_text())
    failed = len(manifest["failures"][str(n)])
    if manifest["reps_completed"][str(n)] + failed != cfg.reps:
        problems.append(f"manifest accounts for {manifest['reps_completed']} of {cfg.reps} reps")
    rows = _rows(out / manifest["files"][str(n)])
    if len(rows) != cfg.reps - failed:
        problems.append(f"CSV holds {len(rows)} rows for {cfg.reps - failed} completed reps")

    # manifest aggregates against a recomputation from the CSV rows
    for alpha, agg in manifest["aggregates"][str(n)].items():
        group = [r for r in rows if r["alpha"] == alpha]
        want = {
            "reps": len(group),
            "coverage": sum(int(r["covered"]) for r in group) / len(group),
            "coverage_naive": sum(int(r["covered_naive"]) for r in group) / len(group),
            "mean_size_naive": sum(int(r["size_naive"]) for r in group) / len(group),
            "mean_size_cvc": sum(int(r["size_cvc"]) for r in group) / len(group),
        }
        for key, val in want.items():
            if not _close(float(agg[key]), float(val)):
                problems.append(f"aggregate {key} at alpha {alpha}: {agg[key]} vs {val}")

    bands = [(a, k, res) for name, a, k, res in captured if name == "simultaneous_band"]
    sets = [(a, k, res) for name, a, k, res in captured if name == "cvc_set"]
    for row in rows:
        problems += _check_cvc_rep(row, cfg, bands, sets)
    return cfg.reps, failed, problems


def _check_cvc_rep(row: dict, cfg, bands, sets) -> list[str]:
    problems: list[str] = []
    rep = row["rep"]
    (n,) = cfg.n_list
    alpha = float(row["alpha"])
    ds, truth = gen_sparse_linear(
        SparseLinearGen(n=n, d=cfg.d_for(n), s=cfg.s, nu=cfg.nu, seed=int(row["seed"]))
    )
    plan = make_folds(n, cfg.V)
    lams = lasso_grid_log(ds.features, ds.response, cfg.lasso_count, cfg.lasso_ratio)
    specs = tuple(LearnerSpec(family="lasso", lam=float(lam)) for lam in lams)
    fits = fit_all_folds(ds, specs, plan)
    lm = loss_matrix(ds, fits, plan, "squared")
    values = lm.values
    p = values.shape[1]
    risks = values.mean(axis=0)

    cvc = [res for a, k, res in sets if np.array_equal(a[0].values, values) and res.alpha == alpha]
    band = [res for a, k, res in bands if np.array_equal(a[0].values, risks) and res.alpha == alpha]
    if len(cvc) != 1 or len(band) != 1:
        return [f"rep {rep}: found {len(band)} bands and {len(cvc)} sets for its loss matrix"]
    cvc, band = cvc[0], band[0]

    # fold covariance from per-fold np.cov, against the program's
    sigma = _fold_cov(values, plan)
    if not np.allclose(aggregate_covariance(lm).sigma, sigma, rtol=1e-10, atol=1e-14):
        problems.append(f"rep {rep}: aggregate_covariance differs from per-fold np.cov")
    sd = np.sqrt(np.clip(np.diag(sigma), 0.0, None))
    half = sd * band.z_used / math.sqrt(n)
    if not np.allclose(band.upper - band.center, half, rtol=1e-9, atol=1e-14):
        problems.append(f"rep {rep}: band half-widths are not sd * z / sqrt(n)")
    if not np.allclose(band.center, risks, rtol=1e-12, atol=0):
        problems.append(f"rep {rep}: band centers are not the CV risks")

    # critical values between the single-coordinate and Bonferroni quantiles
    kept = int(np.sum(np.diag(sigma) > 1e-12 * max(float(np.max(np.diag(sigma))), 1.0)))
    slack = _mc_slack(alpha / 2, cfg.draws)
    lo, hi = float(ndtri(1 - alpha / 2)), float(ndtri(1 - alpha / (2 * max(kept, 1))))
    if kept and not lo - slack <= band.z_used <= hi + slack:
        problems.append(f"rep {rep}: band z {band.z_used} outside [{lo}, {hi}]")

    # the overlap set from the band endpoints
    overlap = [r for r in range(p) if band.lower[r] <= np.min(band.upper)]

    # the screened set by direct evaluation of the screening inequality
    screened = []
    slack = _mc_slack(alpha, cfg.draws)
    for r in range(p):
        others = [s for s in range(p) if s != r]
        diffs = values[:, [r]] - values[:, others]
        var = np.diag(_fold_cov(diffs, plan))
        gaps = diffs.mean(axis=0)
        positive = var > 1e-12 * max(float(np.max(var)), 1.0)
        keep = bool(np.all(gaps[~positive] <= 0.0))
        if np.any(positive):
            z = float(cvc.z_alpha[r])
            q = int(np.sum(positive))
            lo, hi = float(ndtri(1 - alpha)), float(ndtri(1 - alpha / q))
            if not lo - slack <= z <= hi + slack:
                problems.append(f"rep {rep}: cvc z[{r}] = {z} outside [{lo}, {hi}]")
            worst = float(np.max(math.sqrt(n) * gaps[positive] / np.sqrt(var[positive])))
            if abs(worst - z) <= 1e-9 * max(1.0, abs(z)):
                keep = r in cvc.members  # a tie within rounding decides nothing
            else:
                keep = keep and worst <= z
        if keep:
            screened.append(r)
    if tuple(screened) != cvc.members:
        problems.append(f"rep {rep}: screened set {cvc.members} vs direct evaluation {screened}")

    # the covered columns from a risk oracle computed here
    sq_err = [
        [float(np.sum((fold[r].coef - truth.beta) ** 2)) for fold in fits.fits] for r in range(p)
    ]
    oracle = [np.mean([truth.noise_var + e for e in errs]) for errs in sq_err]
    best = int(np.argmin(oracle))
    want = {
        "size_naive": len(overlap),
        "size_cvc": len(screened),
        "covered": int(best in screened),
        "covered_naive": int(best in overlap),
    }
    for key, val in want.items():
        if int(row[key]) != val:
            problems.append(f"rep {rep}: column {key} = {row[key]}, recomputed {val}")
    return problems


# ----------------------------------------------------------------- phi_wide


def check_phi_round(out: Path, cfg, captured, replace_check: bool) -> tuple[int, list[str]]:
    """Return (hold-out points processed, problems) for one phi campaign."""
    problems: list[str] = []
    manifest = json.loads((out / "phi_manifest.json").read_text())
    units = 0
    (n,) = cfg.n_list
    for variant in ("pair", "perturb"):
        entry = manifest["files"][variant][str(n)]
        phi = np.loadtxt(out / entry["csv"], delimiter=",", ndmin=2)
        meta = json.loads((out / entry["json"]).read_text())
        units += int(meta["m"])
        if not np.all(np.isfinite(phi)):
            problems.append(f"{variant}: phi has non-finite entries")
            continue
        scale = float(np.max(np.abs(phi)))
        if float(np.max(np.abs(phi - phi.T))) > 1e-12 * scale:
            problems.append(f"{variant}: phi is not symmetric")
        if float(np.min(np.linalg.eigvalsh(phi))) < -1e-10 * scale:
            problems.append(f"{variant}: phi is not PSD")
        diag = manifest["aggregates"][variant][str(n)]["diag"]
        if not np.allclose(diag, np.diag(phi), rtol=1e-12, atol=0):
            problems.append(f"{variant}: manifest diagonal differs from the CSV")

        calls = [(a, k) for name, a, k, _ in captured if name == f"phi_{variant}"]
        if len(calls) != 1:
            problems.append(f"{variant}: expected one call, saw {len(calls)}")
            continue
        args, _ = calls[0]
        ds, specs, holdout = args[0], args[1], args[3]
        f0 = meta["model_labels"].index("forward:0")
        y2, h2 = ds.response**2, holdout.response**2
        if variant == "pair":
            want = float(np.mean((h2[0::2] - h2[1::2]) ** 2) / 2)
        else:
            idx = np.asarray(meta["indices"])
            want = float(np.sum((y2[idx] - h2) ** 2) / (2 * holdout.m))
        if not _close(float(phi[f0, f0]), want, tol=1e-9):
            problems.append(f"{variant}: forward:0 entry {phi[f0, f0]} vs closed form {want}")

        if replace_check and variant == "pair":
            problems += _check_replace_one(ds, specs, args[2], holdout, cfg.seed)
    return units, problems


def _check_replace_one(ds, specs, plan, holdout, seed: int) -> list[str]:
    """A lasso-only replace-one risk vector against a from-scratch run."""
    lasso = tuple(s for s in specs if s.family == "lasso")
    rng = np.random.default_rng(seed)
    i, j = int(rng.integers(ds.n)), int(rng.integers(holdout.m))
    z_new, y_new = holdout.features[j], float(holdout.response[j])
    got = replace_one_cv_risk(ds, lasso, plan, i, (z_new, y_new), fit_all_folds(ds, lasso, plan))
    ds2 = ds.replace_row(i, z_new, y_new)
    want = cv_risk(loss_matrix(ds2, fit_all_folds(ds2, lasso, plan), plan, "squared"))
    if not np.allclose(got.values, want.values, rtol=1e-10, atol=0):
        gap = float(np.max(np.abs(got.values - want.values)))
        return [f"replace-one lasso risks differ from a from-scratch run by {gap}"]
    return []


# ------------------------------------------------------------ sgd_stability


def _sgd_bound_scale(cfg) -> float:
    """2L / beta for the ridge objective on the radius balls."""
    rx, rt, lam = cfg.radius_x, cfg.sgd_radius_theta, cfg.sgd_lam
    lipschitz = rx**2 * (1 + rt) + lam * rt
    smoothness = rx**2 + lam
    return 2 * lipschitz / smoothness


def check_sgd_round(out: Path, cfg) -> tuple[int, list[str]]:
    """Return (trials run, problems) for one stability campaign."""
    problems: list[str] = []
    manifest = json.loads((out / "stability_manifest.json").read_text())
    scale = _sgd_bound_scale(cfg)
    units = 0
    for variant, factor in (("first", 1.0), ("second", 2.0)):
        rows = _rows(out / manifest["files"][variant]["csv"])
        units += len(rows)
        per_n = {n: 0 for n in cfg.n_list}
        over = 0
        for row in rows:
            n = int(row["n"])
            per_n[n] = per_n.get(n, 0) + 1
            bound = scale * n ** (-cfg.sgd_a)
            if variant == "first" and not _close(float(row["bound"]), bound, tol=1e-12):
                problems.append(f"first: CSV bound {row['bound']} vs {bound} at n={n}")
            if not 0.0 <= float(row["value"]) <= factor * bound * (1 + 1e-9):
                over += 1
        if over:
            problems.append(f"{variant}: {over} trials exceed {factor:g} x (2L/beta) n^-a")
        if any(c != cfg.reps for c in per_n.values()):
            problems.append(f"{variant}: trials per n {per_n}, expected {cfg.reps}")
        viol = manifest["aggregates"][variant]["violations"]
        if any(int(v) for v in viol.values()):
            problems.append(f"{variant}: manifest reports violations {viol}")
    return units, problems


def _plain_sgd(Z, y, lam, a, beta, radius):
    theta = np.zeros(Z.shape[1])
    for t in range(1, Z.shape[0] + 1):
        z = Z[t - 1]
        grad = -(y[t - 1] - z @ theta) * z + lam * theta
        theta = theta - t**-a / beta * grad
        nrm = float(np.linalg.norm(theta))
        if nrm > radius:
            theta *= radius / nrm
    return theta


def _ball_rows(rng, n, d, radius):
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    Z = raw * (radius * rng.uniform(size=n) ** (1.0 / d))[:, None]
    y = radius * np.tanh(Z.sum(axis=1) + 0.3 * rng.standard_normal(n))
    return Z, y


def check_sgd_reference(cfg, seed: int, cases: int = 3, n: int = 256) -> list[str]:
    """Reproduce param_first_diff / param_second_diff with a plain SGD loop."""
    problems: list[str] = []
    lam, a, rx, rt = cfg.sgd_lam, cfg.sgd_a, cfg.radius_x, cfg.sgd_radius_theta
    config = SgdConfig.for_ridge(lam, a, rx, rt)
    beta = rx**2 + lam
    rng = np.random.default_rng(seed)
    d = int(cfg.d)
    for case in range(cases):
        Z, y = _ball_rows(rng, n, d, rx)
        zr, yr = _ball_rows(rng, 2, d, rx)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))

        def run(repl):
            Z2, y2 = Z.copy(), y.copy()
            for k, (zk, yk) in repl.items():
                Z2[k], y2[k] = zk, yk
            return _plain_sgd(Z2, y2, lam, a, beta, rt)

        t00, t10 = run({}), run({i: (zr[0], yr[0])})
        t01, t11 = run({j: (zr[1], yr[1])}), run({i: (zr[0], yr[0]), j: (zr[1], yr[1])})
        first = float(np.linalg.norm(t00 - t10))
        second = float(np.linalg.norm(t00 - t10 - t01 + t11))
        got1 = param_first_diff(Z, y, config, i, zr[0], float(yr[0]))
        got2 = param_second_diff(Z, y, config, i, j, zr[0], float(yr[0]), zr[1], float(yr[1]))
        if abs(got1 - first) > 1e-12:
            problems.append(f"case {case}: param_first_diff {got1} vs plain loop {first}")
        if abs(got2 - second) > 1e-12:
            problems.append(f"case {case}: param_second_diff {got2} vs plain loop {second}")
    return problems
