"""Empirical stability probes for replace-one sensitivity.

The asymptotic story for cross-validated risks leans on stability
hypotheses: replacing one training sample moves the fitted parameter by
O(n^-a), moves it by roughly O(n^-2a log n) after a second replacement,
and moves evaluated losses by O(n^-1/2)-scaled amounts.  This module
measures those movements directly.  For single-pass projected SGD the
first-order movement has a fully deterministic bound (2L / beta) n^-a
whose step-ratio precondition we enforce rather than assume; everything
else is Monte Carlo: run trials over an n-grid, take a max or quantile
per n, and fit a log-log slope.

Trials are driven by derived substreams keyed by (purpose, n, trial), so
any subset of a campaign can be replayed in isolation and the trial
order never matters.  The SGD campaigns draw every trial of an n first
and then step all of its trajectories in one call of
``learners.sgd_trajectories``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cv_engine import loss_first_diff  # re-exported; it refits through cv_engine's fold path
from .datamodel import DomainError, _jsonable, write_csv_atomic, write_json_atomic
from .learners import SgdConfig, fit_series, row_norms, sgd_trajectories
from .simgen import SeriesGen, derive_substream, gen_series

__all__ = [
    "StabilityPreconditionError",
    "ScalingFitError",
    "ScalingFit",
    "StabilityReport",
    "sgd_ratio_requirement",
    "check_sgd_precondition",
    "param_first_diff",
    "param_second_diff",
    "loss_first_diff",
    "scaling_fit",
    "bounded_regression_data",
    "sgd_first_diff_campaign",
    "sgd_second_diff_campaign",
    "diff_loss_stability_probe",
]


class StabilityPreconditionError(DomainError):
    """The step-ratio precondition fails, so the stability bound is not claimed."""


class ScalingFitError(ValueError):
    """Log-log fit impossible (degenerate statistics)."""


def sgd_ratio_requirement(n: int, a: float) -> float:
    """Smallest admissible strong-convexity/smoothness ratio at sample size n.

    The first-order bound needs gamma / beta >= a(1-a) / (1 - 2^(a-1))
    * log(n) / n^(1-a); the requirement decays in n, so a config valid at
    the smallest grid size is valid everywhere above it.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if not 0.0 < a < 1.0:
        raise DomainError(f"step exponent must lie in (0, 1), got {a}")
    return a * (1 - a) / (1 - 2.0 ** -(1 - a)) * math.log(n) / n ** (1 - a)


def check_sgd_precondition(config: SgdConfig, n: int) -> None:
    config.validate()
    if config.strong_convexity <= 0:
        raise StabilityPreconditionError("stability bound needs strong convexity > 0")
    ratio = config.strong_convexity / config.smoothness
    need = sgd_ratio_requirement(n, config.step_exponent)
    if ratio < need:
        raise StabilityPreconditionError(
            f"gamma/beta = {ratio:.4f} below the required {need:.4f} at n = {n}; "
            "increase lam or n before claiming the stability bound"
        )


def _check_rows_in_ball(Z: np.ndarray, y: np.ndarray, radius: float) -> None:
    tol = radius * (1 + 1e-9)
    if float(np.max(np.linalg.norm(Z, axis=-1))) > tol or float(np.max(np.abs(y))) > tol:
        raise DomainError(
            "data rows must satisfy the radius bound the SGD constants assume"
        )


def _one_trial(features, response, *rows):
    """A single (n, d) dataset and its replacement rows (z, y), stacked as
    one trial: Z (1, n, d), y (1, n), z_new (1, m, d), y_new (1, m)."""
    Z = np.asarray(features, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
        raise DomainError("features must be (n, d) with a matching response")
    z_new = [np.asarray(z, dtype=np.float64) for z, _ in rows]
    if any(z.shape != (Z.shape[1],) for z in z_new):
        raise DomainError("replacement feature row has the wrong dimension")
    return Z[None], y[None], np.array([z_new]), np.array([[float(v) for _, v in rows]])


def _trial_paths(Z, y, config: SgdConfig, idx, z_new, y_new, pattern) -> np.ndarray:
    """Final SGD iterates of every trial under each replacement pattern.

    ``Z`` (T, n, d) and ``y`` (T, n) stack T trials; trial t replaces its
    rows ``idx[t]`` by the rows ``z_new[t]`` (m, d) and ``y_new[t]`` (m,).
    ``pattern`` lists, per trajectory of a trial, which of those m
    replacements it applies.  Every trial is checked as a lone call would
    be, then one kernel call steps all T * len(pattern) trajectories.
    Returns the iterates as (T, len(pattern), d).
    """
    T, n, d = Z.shape
    check_sgd_precondition(config, n)
    _check_rows_in_ball(Z, y, config.radius_x)
    _check_rows_in_ball(z_new, y_new, config.radius_x)
    if np.any(idx < 0) or np.any(idx >= n):
        raise DomainError(f"indices {idx[(idx < 0) | (idx >= n)].tolist()} outside [0, {n})")
    replace = [
        {int(idx[t, m]): (z_new[t, m], y_new[t, m]) for m in used}
        for t in range(T)
        for used in pattern
    ]
    trial = np.repeat(np.arange(T), len(pattern))
    return sgd_trajectories(Z, y, config, trial, replace).reshape(T, len(pattern), d)


def _first_diffs(Z, y, config: SgdConfig, idx, z_new, y_new) -> np.ndarray:
    """||theta - theta^i|| for each stacked trial (see ``_trial_paths``)."""
    theta = _trial_paths(Z, y, config, idx, z_new, y_new, ((), (0,)))
    return row_norms(theta[:, 0] - theta[:, 1])


def _second_diffs(Z, y, config: SgdConfig, idx, z_new, y_new) -> np.ndarray:
    """||theta - theta^i - theta^j + theta^ij|| for each stacked trial."""
    if np.any(idx[:, 0] == idx[:, 1]):
        raise DomainError("second difference needs two distinct indices")
    theta = _trial_paths(Z, y, config, idx, z_new, y_new, ((), (0,), (1,), (0, 1)))
    return row_norms(theta[:, 0] - theta[:, 1] - theta[:, 2] + theta[:, 3])


def param_first_diff(features, response, config: SgdConfig, i: int, z_new, y_new) -> float:
    """Parameter movement from replacing training row i.

    Runs the full SGD pass on the original and on the replaced data (both
    from a zero start, rows in index order) and returns the Euclidean
    distance between the two final iterates.
    """
    Z, y, z_rows, y_rows = _one_trial(features, response, (z_new, y_new))
    return float(_first_diffs(Z, y, config, np.array([[i]]), z_rows, y_rows)[0])


def param_second_diff(
    features,
    response,
    config: SgdConfig,
    i: int,
    j: int,
    zi_new,
    yi_new,
    zj_new,
    yj_new,
) -> float:
    """Second-order movement: norm of the difference-in-differences.

    Four trajectories: original data, row i replaced, row j replaced,
    and both replaced.  Returns || theta - theta^i - theta^j + theta^ij ||.
    """
    Z, y, z_rows, y_rows = _one_trial(features, response, (zi_new, yi_new), (zj_new, yj_new))
    return float(_second_diffs(Z, y, config, np.array([[i, j]]), z_rows, y_rows)[0])


# ------------------------------------------------------------ scaling fit


def _loglog_line(grid, stats) -> tuple[float, float, float]:
    x = np.log(np.asarray(grid, dtype=np.float64))
    z = np.log(np.asarray(stats, dtype=np.float64))
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ z / sxx)
    intercept = float(z.mean() - slope * x.mean())
    resid = z - (intercept + slope * x)
    dof = len(grid) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return slope, intercept, math.sqrt(sigma2 / sxx)


def _median_slope(report: "StabilityReport") -> None:
    """Fit the per-n medians in place when the grid supports a line."""
    if len(report.n_grid) < 3:
        return
    medians = [float(np.median(report.samples[n])) for n in report.n_grid]
    if any(m <= 0.0 for m in medians):
        return
    slope, intercept, stderr = _loglog_line(report.n_grid, medians)
    report.slope, report.intercept, report.slope_stderr = slope, intercept, stderr


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log n, log statistic)."""

    slope: float
    intercept: float
    stderr: float
    statistic: str
    n_grid: tuple[int, ...]
    values: tuple[float, ...]


def scaling_fit(samples: dict[int, np.ndarray], statistic="max") -> ScalingFit:
    """Fit log(statistic of |samples|) against log(n).

    ``statistic`` is "max" or a quantile level in (0, 1).  Needs at least
    3 grid points and 30 samples per point; raises ``ScalingFitError``
    when any per-n statistic is zero (no power law to fit).
    """
    if isinstance(statistic, str):
        if statistic != "max":
            raise DomainError(f"statistic must be 'max' or a quantile level, got {statistic!r}")
    elif not 0.0 < float(statistic) < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {statistic}")
    grid = sorted(int(n) for n in samples)
    if len(grid) < 3:
        raise DomainError(f"need at least 3 grid points, got {len(grid)}")
    stats = []
    for n in grid:
        vals = np.abs(np.asarray(samples[n], dtype=np.float64))
        if vals.size < 30:
            raise DomainError(f"need at least 30 samples per grid point, got {vals.size} at n={n}")
        s = float(np.max(vals)) if statistic == "max" else float(np.quantile(vals, float(statistic)))
        if s <= 0.0:
            raise ScalingFitError(f"statistic at n={n} is zero; nothing to fit")
        stats.append(s)
    slope, intercept, stderr = _loglog_line(grid, stats)
    label = "max" if statistic == "max" else f"q{float(statistic):g}"
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        statistic=label,
        n_grid=tuple(grid),
        values=tuple(stats),
    )


# ---------------------------------------------------------------- reports


@dataclass
class StabilityReport:
    """Per-trial stability measurements over an n-grid plus summaries.

    ``samples[n]`` holds the per-trial norms, ``bounds[n]`` the
    deterministic bound when one is claimed (first-order SGD only), and
    ``violations[n]`` how many trials exceeded it.  ``slope`` is the
    log-log fit of the per-n medians when the grid supports one.  Loss-
    and risk-level proxies are housed in ``extras`` by the probes that
    compute them.
    """

    kind: str
    n_grid: tuple[int, ...]
    samples: dict[int, np.ndarray]
    bounds: dict[int, float] = field(default_factory=dict)
    violations: dict[int, int] = field(default_factory=dict)
    slope: float | None = None
    slope_stderr: float | None = None
    intercept: float | None = None
    extras: dict = field(default_factory=dict)
    master_seed: int | None = None

    def validate(self) -> None:
        for n in self.n_grid:
            vals = self.samples[n]
            if not np.all(np.isfinite(vals)):
                raise DomainError(f"stability norms must be finite, got a non-finite one at n={n}")
            if np.any(vals < 0.0):
                raise DomainError("stability norms must be nonnegative")
            if n in self.violations and self.violations[n] > vals.size:
                raise DomainError("violation count exceeds trial count")

    def write_csv(self, path) -> Path:
        rows = [["kind", "n", "trial", "value", "bound"]]
        for n in self.n_grid:
            bound = self.bounds.get(n, "")
            for t, val in enumerate(self.samples[n]):
                rows.append([self.kind, n, t, repr(float(val)), bound])
        return write_csv_atomic(path, rows)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "n_grid": list(self.n_grid),
            "trials": {str(n): int(self.samples[n].size) for n in self.n_grid},
            "medians": {str(n): float(np.median(self.samples[n])) for n in self.n_grid},
            "bounds": {str(n): self.bounds[n] for n in self.bounds},
            "violations": {str(n): int(self.violations[n]) for n in self.violations},
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "intercept": self.intercept,
            "master_seed": self.master_seed,
            "extras": _jsonable(self.extras),
        }

    def write_json(self, path) -> Path:
        return write_json_atomic(path, self.summary())


# -------------------------------------------------------------- campaigns


def bounded_regression_data(n: int, d: int, radius_x: float, seed: int):
    """Regression rows whose features and responses respect the radius bound.

    Features are uniform in the radius ball; responses are squashed into
    [-radius, radius] around a fixed unit-coefficient signal, keeping the
    SGD curvature constants honest for any generated row.
    """
    rng = derive_substream(seed, "bounded-regression")
    return _bounded_rows(rng, n, d, radius_x)


def _bounded_rows(rng: np.random.Generator, n: int, d: int, radius_x: float):
    if n < 1 or d < 1 or radius_x <= 0:
        raise DomainError("need positive n, d, and radius")
    raw = rng.standard_normal((n, d))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius_x * rng.uniform(size=n) ** (1.0 / d)
    Z = raw / norms[:, None] * radii[:, None]
    theta_star = np.full(d, 1.0 / math.sqrt(d))
    signal = Z @ theta_star + 0.25 * rng.standard_normal(n)
    y = radius_x * np.tanh(signal / radius_x)
    return Z, y


def _draw_index(rng: np.random.Generator, n: int, a: float, mode: str) -> int:
    if mode == "uniform":
        return int(rng.integers(n))
    if mode == "tail":
        # last ceil(n^a) positions, where the step sizes are still large
        # enough for the movement to scale as n^-a rather than vanish
        window = min(n, math.ceil(n**a))
        return n - 1 - int(rng.integers(window))
    raise DomainError(f"index_mode must be 'uniform' or 'tail', got {mode!r}")


def _trial_stack(trials: int, n: int, d: int, m: int):
    """Empty per-trial arrays a campaign fills at one n: data (trials, n, d)
    and (trials, n), replaced indices (trials, m) and replacement rows
    (trials, m, d) and (trials, m)."""
    return (
        np.empty((trials, n, d)),
        np.empty((trials, n)),
        np.empty((trials, m), dtype=np.intp),
        np.empty((trials, m, d)),
        np.empty((trials, m)),
    )


def _campaign_config(objective: str, lam, step_exponent, radius_x, radius_theta) -> SgdConfig:
    if objective == "ridge_sq":
        return SgdConfig.for_ridge(lam, step_exponent, radius_x, radius_theta)
    if objective == "logistic_ridge":
        return SgdConfig.for_logistic_ridge(lam, step_exponent, radius_x, radius_theta)
    raise DomainError(f"unknown objective {objective!r}")


def sgd_first_diff_campaign(
    n_grid: Sequence[int],
    trials: int,
    *,
    lam: float,
    step_exponent: float = 0.6,
    radius_x: float = 1.0,
    radius_theta: float = 1.0,
    d: int = 4,
    seed: int = 0,
    index_mode: str = "uniform",
    objective: str = "ridge_sq",
) -> StabilityReport:
    """First-order movement trials across an n-grid.

    Every trial draws fresh data, a replacement row, and an index
    (uniform, or from the tail window for slope studies), then measures
    the parameter movement and compares it to the deterministic bound
    (2L / beta) n^-a.  The slope of per-n medians is fitted whenever the
    grid has at least 3 points.
    """
    config = _campaign_config(objective, lam, step_exponent, radius_x, radius_theta)
    n_grid = tuple(int(n) for n in n_grid)
    if trials < 1:
        raise DomainError("need at least one trial")
    for n in n_grid:
        check_sgd_precondition(config, n)
    a = config.step_exponent
    bound_scale = 2.0 * config.lipschitz / config.smoothness
    samples: dict[int, np.ndarray] = {}
    bounds: dict[int, float] = {}
    violations: dict[int, int] = {}
    for n in n_grid:
        Z, y, idx, z_new, y_new = _trial_stack(trials, n, d, 1)
        for t in range(trials):
            rng = derive_substream(seed, "sgd-first", n, t)
            Z[t], y[t] = _bounded_rows(rng, n, d, radius_x)
            idx[t] = _draw_index(rng, n, a, index_mode)
            z_new[t], y_new[t] = _bounded_rows(rng, 1, d, radius_x)
        samples[n] = vals = _first_diffs(Z, y, config, idx, z_new, y_new)
        bounds[n] = bound_scale * n ** (-a)
        violations[n] = int(np.sum(vals > bounds[n] * (1 + 1e-9)))
    rep = StabilityReport(
        kind="sgd-first-diff",
        n_grid=n_grid,
        samples=samples,
        bounds=bounds,
        violations=violations,
        master_seed=seed,
        extras={"index_mode": index_mode, "objective": objective, "lam": lam},
    )
    _median_slope(rep)
    rep.validate()
    return rep


def sgd_second_diff_campaign(
    n_grid: Sequence[int],
    trials: int,
    *,
    lam: float,
    step_exponent: float = 0.6,
    radius_x: float = 1.0,
    radius_theta: float = 1.0,
    d: int = 4,
    seed: int = 0,
    objective: str = "ridge_sq",
) -> StabilityReport:
    """Second-order movement trials; indices drawn from the tail window.

    No deterministic bound is claimed (the guarantee is a rate up to a
    log factor), so the report carries samples and the fitted slope only.
    """
    config = _campaign_config(objective, lam, step_exponent, radius_x, radius_theta)
    n_grid = tuple(int(n) for n in n_grid)
    if trials < 1:
        raise DomainError("need at least one trial")
    for n in n_grid:
        check_sgd_precondition(config, n)
    a = config.step_exponent
    samples: dict[int, np.ndarray] = {}
    for n in n_grid:
        Z, y, idx, z_new, y_new = _trial_stack(trials, n, d, 2)
        for t in range(trials):
            rng = derive_substream(seed, "sgd-second", n, t)
            Z[t], y[t] = _bounded_rows(rng, n, d, radius_x)
            i = _draw_index(rng, n, a, "tail")
            j = i
            while j == i:
                j = _draw_index(rng, n, a, "tail")
            idx[t] = i, j
            z_new[t], y_new[t] = _bounded_rows(rng, 2, d, radius_x)
        samples[n] = _second_diffs(Z, y, config, idx, z_new, y_new)
    rep = StabilityReport(
        kind="sgd-second-diff",
        n_grid=n_grid,
        samples=samples,
        master_seed=seed,
        extras={"objective": objective, "lam": lam},
    )
    _median_slope(rep)
    rep.validate()
    return rep


# ------------------------------------------------------------------ probe


def diff_loss_stability_probe(
    j_r: int,
    j_s: int,
    n_grid: Sequence[int],
    trials: int,
    *,
    decay: float = 2.0,
    noise_sd: float = 1.0,
    seed: int = 0,
) -> StabilityReport:
    """Stability diagnostics for the difference of two series-model losses.

    For each n and trial: draw series data plus three fresh rows (one
    evaluation point, two replacements), evaluate the loss difference of
    the two truncated fits at the evaluation point, and record its value,
    its first difference under one replacement, and its second difference
    under both.  Extras hold per-n variances and the standardized ratios
    sqrt(n) * median|first| / sd and n * median|second| / sd.  A config
    whose truncations do not separate (or whose scaling product reaches
    n) is flagged but still measured.
    """
    if j_r < 1 or j_s < 1:
        raise DomainError("truncation levels must be >= 1")
    if j_r > j_s:
        raise DomainError("the smaller model must come first (j_r <= j_s)")
    n_grid = tuple(int(n) for n in n_grid)
    if trials < 2:
        raise DomainError("need at least two trials for a variance")
    condition = {n: j_s * j_r ** (decay / 2.0) / n for n in n_grid}
    flagged = (j_r == j_s) or any(c >= 1.0 for c in condition.values())
    samples: dict[int, np.ndarray] = {}
    second: dict[int, np.ndarray] = {}
    var_by_n: dict[int, float] = {}
    ratio_first: dict[int, float] = {}
    ratio_second: dict[int, float] = {}
    for n in n_grid:
        firsts = np.empty(trials)
        seconds = np.empty(trials)
        ldiffs = np.empty(trials)
        for t in range(trials):
            rng = derive_substream(seed, "loss-diff", n, t)
            cfg = SeriesGen(
                n=n + 3,
                j_max=j_s,
                decay=decay,
                noise_sd=noise_sd,
                seed=int(rng.integers(2**62)),
            )
            ds, _ = gen_series(cfg)
            Z, y = ds.features[:n], ds.response[:n]
            z0, y0 = ds.features[n], float(ds.response[n])
            i = int(rng.integers(n))
            j = i
            while j == i:
                j = int(rng.integers(n))

            def ldiff(Zt, yt):
                pred_r = float(z0 @ fit_series(Zt, yt, j_r).coef)
                pred_s = float(z0 @ fit_series(Zt, yt, j_s).coef)
                return (y0 - pred_r) ** 2 - (y0 - pred_s) ** 2

            Zi, yi = Z.copy(), y.copy()
            Zi[i], yi[i] = ds.features[n + 1], ds.response[n + 1]
            Zj, yj = Z.copy(), y.copy()
            Zj[j], yj[j] = ds.features[n + 2], ds.response[n + 2]
            Zij, yij = Zi.copy(), yi.copy()
            Zij[j], yij[j] = ds.features[n + 2], ds.response[n + 2]
            l00 = ldiff(Z, y)
            l10 = ldiff(Zi, yi)
            l01 = ldiff(Zj, yj)
            l11 = ldiff(Zij, yij)
            ldiffs[t] = l00
            firsts[t] = abs(l00 - l10)
            seconds[t] = abs(l00 - l10 - l01 + l11)
        samples[n] = firsts
        second[n] = seconds
        var = float(np.var(ldiffs, ddof=1))
        var_by_n[n] = var
        sd = math.sqrt(var) if var > 0 else float("nan")
        ratio_first[n] = math.sqrt(n) * float(np.median(firsts)) / sd if var > 0 else float("nan")
        ratio_second[n] = n * float(np.median(seconds)) / sd if var > 0 else float("nan")
    rep = StabilityReport(
        kind="loss-diff",
        n_grid=n_grid,
        samples=samples,
        master_seed=seed,
        extras={
            "j_r": j_r,
            "j_s": j_s,
            "decay": decay,
            "noise_sd": noise_sd,
            "var_by_n": var_by_n,
            "ratio_first": ratio_first,
            "ratio_second": ratio_second,
            "second_medians": {n: float(np.median(second[n])) for n in n_grid},
            "condition": condition,
            "flagged_out_of_regime": flagged,
        },
    )
    _median_slope(rep)
    rep.validate()
    return rep
