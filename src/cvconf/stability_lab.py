"""Empirical stability probes for replace-one sensitivity.

The asymptotic story for cross-validated risks leans on stability
hypotheses: replacing one training sample moves the fitted parameter by
O(n^-a), and moves it by roughly O(n^-2a log n) after a second
replacement.  This module measures those movements directly for
single-pass projected SGD on the ridge objective.  The first-order
movement has a fully deterministic bound (2L / beta) n^-a whose
step-ratio precondition we enforce rather than assume; everything else
is Monte Carlo: run trials over an n-grid, take the median per n, and
fit a log-log slope.

Every probe measures one replacement difference: with m distinct rows
replaced, the subsets S of the replacements, in the order (), (0,),
(1,), (0, 1), give 2^m datasets, and the probe takes the norm of the
alternating sum over S of (-1)^|S| times the final iterate.

Trials are driven by derived substreams keyed by (purpose, n, trial), so
any subset of a campaign can be replayed in isolation and the trial
order never matters.  ``sgd_campaigns`` draws every trial of every n of
every requested variant into one flat buffer of rows, checks them
against the radius_x ball, then steps all of their trajectories in one
call of ``learners.sgd_trajectories``.  That kernel runs only each
trial's unreplaced trajectory from the first row; a replaced one enters
at its first replaced row as a copy of the unreplaced iterate there, so
a tail-window replacement costs a few steps rather than a full pass.  While a running bound on
the iterate norms stays within radius_theta, the kernel skips the norm
check that the projection needs.  Both skips change no bit: every
result is that of separate passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .datamodel import DomainError, _jsonable, write_csv_atomic, write_json_atomic
from .learners import SgdConfig, _row_index, max_row_norm, row_norms, sgd_trajectories
from .simgen import derive_substream

__all__ = [
    "StabilityPreconditionError",
    "StabilityReport",
    "sgd_ratio_requirement",
    "check_sgd_precondition",
    "param_first_diff",
    "param_second_diff",
    "sgd_campaigns",
]


class StabilityPreconditionError(DomainError):
    """The step-ratio precondition fails, so the stability bound is not claimed."""


def sgd_ratio_requirement(n: int, a: float) -> float:
    """Smallest admissible strong-convexity/smoothness ratio at sample size n.

    The first-order bound needs gamma / beta >= a(1-a) / (1 - 2^(a-1))
    * log(n) / n^(1-a).  The requirement is not monotone in n: it rises
    up to n = e^(1/(1-a)) and decays after that.  At a = 0.6 it is 0.521
    at n = 2, 0.912 at n = 12 and 0.781 at n = 64, so a config valid at
    the smallest grid size can fail at a larger one.  The campaigns
    therefore apply ``check_sgd_precondition`` at every n of the grid.
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
    # max_row_norm and max/min make no temporary copy of the rows
    tol = radius * (1 + 1e-9)
    if max_row_norm(Z) > tol or float(np.max(y)) > tol or float(np.min(y)) < -tol:
        raise DomainError(
            "data rows must satisfy the radius bound the SGD constants assume"
        )


def _subsets(m: int) -> list[tuple[int, ...]]:
    """The subsets of m replacements in binary counting order: (), (0,),
    (1,), (0, 1), ...; those of m - 1 come first."""
    return [tuple(b for b in range(m) if k >> b & 1) for k in range(2**m)]


def _alternating_sum(terms, subsets):
    """sum over S of (-1)^|S| terms[S], added left to right."""
    total = terms[0]
    for term, subset in zip(terms[1:], subsets[1:]):
        total = total - term if len(subset) % 2 else total + term
    return total


def _replacement_diffs(Z, y, lengths, config: SgdConfig, groups) -> list[np.ndarray]:
    """||sum over S of (-1)^|S| theta^S|| for each dataset, one array per group.

    ``Z`` (N, d) and ``y`` (N,) hold the datasets' rows end to end, dataset
    j having ``lengths[j]`` rows.  The datasets fall into consecutive
    groups, each given as (idx, z_new, y_new): its t-th dataset replaces
    its distinct rows ``idx[t]`` (m of them) by the rows ``z_new[t]``
    (m, d) and ``y_new[t]`` (m,).  theta^S is the final SGD iterate with
    the replacements in S applied, S running over ``_subsets(m)``: m = 1
    gives ||theta - theta^i|| and m = 2 ||theta - theta^i - theta^j +
    theta^ij||.  Every dataset is checked as a lone call would be, then
    one kernel call steps the 2^m trajectories of every dataset.
    """
    for n in np.unique(lengths).tolist():
        check_sgd_precondition(config, n)
    _check_rows_in_ball(Z, y, config.radius_x)
    trial, replace, sizes = [], [], []
    first = 0
    for idx, z_new, y_new in groups:
        T, m = idx.shape
        _check_rows_in_ball(z_new, y_new, config.radius_x)
        bad = (idx < 0) | (idx >= lengths[first : first + T, None])
        if np.any(bad):
            raise DomainError(f"indices {idx[bad].tolist()} outside their datasets' rows")
        ordered = np.sort(idx, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise DomainError("the replaced indices of a trial must be distinct")
        subsets = _subsets(m)
        replace += [
            {int(idx[t, b]): (z_new[t, b], y_new[t, b]) for b in subset}
            for t in range(T)
            for subset in subsets
        ]
        trial.append(np.repeat(np.arange(first, first + T), len(subsets)))
        sizes.append(T * len(subsets))
        first += T
    theta = sgd_trajectories(Z, y, lengths, config, np.concatenate(trial), replace)
    norms = []
    for (idx, _, _), block in zip(groups, np.split(theta, np.cumsum(sizes)[:-1])):
        subsets = _subsets(idx.shape[1])
        block = block.reshape(len(idx), len(subsets), -1)
        diff = _alternating_sum([block[:, k] for k in range(len(subsets))], subsets)
        norms.append(row_norms(diff))
    return norms


def _one_trial_diff(features, response, config: SgdConfig, *replacements) -> float:
    """``_replacement_diffs`` of a single (n, d) dataset; each replacement
    is (row index, z, y)."""
    Z = np.asarray(features, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
        raise DomainError("features must be (n, d) with a matching response")
    z_new = [np.asarray(z, dtype=np.float64) for _, z, _ in replacements]
    if any(z.shape != (Z.shape[1],) for z in z_new):
        raise DomainError("replacement feature row has the wrong dimension")
    idx = np.array([[_row_index(i) for i, _, _ in replacements]], dtype=np.intp)
    y_new = np.array([[float(v) for _, _, v in replacements]])
    group = (idx, np.array([z_new]), y_new)
    return float(_replacement_diffs(Z, y, np.array([Z.shape[0]]), config, [group])[0][0])


def param_first_diff(features, response, config: SgdConfig, i: int, z_new, y_new) -> float:
    """Parameter movement from replacing training row i.

    Runs the full SGD pass on the original and on the replaced data (both
    from a zero start, rows in index order) and returns the Euclidean
    distance between the two final iterates.
    """
    return _one_trial_diff(features, response, config, (i, z_new, y_new))


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
    return _one_trial_diff(features, response, config, (i, zi_new, yi_new), (j, zj_new, yj_new))


# -------------------------------------------------------------- slope fit


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


# ---------------------------------------------------------------- reports


@dataclass
class StabilityReport:
    """Per-trial stability measurements over an n-grid plus summaries.

    ``samples[n]`` holds the per-trial norms, ``bounds[n]`` the
    deterministic bound when one is claimed (first-order SGD only), and
    ``violations[n]`` how many trials exceeded it.  ``slope`` is the
    log-log fit of the per-n medians when the grid supports one.
    ``extras`` records the campaign's settings.
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


def _bounded_rows(rng: np.random.Generator, n: int, d: int, radius_x: float):
    """Rows with features uniform in the radius ball and responses squashed
    into [-radius, radius], as the SGD curvature constants assume."""
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


def _grid(n_grid: Sequence[int]) -> tuple[int, ...]:
    """The n-grid as ints; results are keyed by n, so a repeated n is
    refused, as is an empty grid."""
    grid = tuple(int(n) for n in n_grid)
    if not grid:
        raise DomainError("need at least one sample size")
    if len(set(grid)) != len(grid):
        raise DomainError(f"sample sizes must be distinct, got {grid}")
    return grid


def _sgd_campaign(
    config: SgdConfig,
    n_grid: tuple[int, ...],
    trials: int,
    d: int,
    seed: int,
    plans: Sequence[tuple[str, int, str]],
) -> list[dict[int, np.ndarray]]:
    """Per plan (purpose, m, index_mode), the m-th replacement differences
    of ``trials`` trials at every n of the grid.

    Trial t at n of a plan draws from its own substream (seed, purpose, n,
    t): the data, then m distinct indices, then the m replacement rows.
    The data of every trial of every n and plan is drawn straight into
    one flat buffer of rows, and all are measured in one
    ``_replacement_diffs`` call.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    for n in n_grid:
        check_sgd_precondition(config, n)
    a = config.step_exponent
    lengths = np.tile(np.repeat(n_grid, trials), len(plans))
    Z, y = np.empty((int(lengths.sum()), d)), np.empty(int(lengths.sum()))
    row = 0
    groups = []
    for purpose, m, index_mode in plans:
        idx = np.empty((len(n_grid) * trials, m), dtype=np.intp)
        z_new, y_new = np.empty((len(idx), m, d)), np.empty((len(idx), m))
        for k, (n, t) in enumerate(itertools.product(n_grid, range(trials))):
            rng = derive_substream(seed, purpose, n, t)
            Z[row : row + n], y[row : row + n] = _bounded_rows(rng, n, d, config.radius_x)
            row += n
            for b in range(m):
                i = _draw_index(rng, n, a, index_mode)
                while i in idx[k, :b]:
                    i = _draw_index(rng, n, a, index_mode)
                idx[k, b] = i
            z_new[k], y_new[k] = _bounded_rows(rng, m, d, config.radius_x)
        groups.append((idx, z_new, y_new))
    return [
        {n: norms[j * trials : (j + 1) * trials] for j, n in enumerate(n_grid)}
        for norms in _replacement_diffs(Z, y, lengths, config, groups)
    ]


def _report(kind: str, n_grid, samples, seed: int, extras: dict, **fields) -> StabilityReport:
    """A validated report, with the log-log slope of its per-n medians
    when the grid has at least 3 points and every median is positive."""
    rep = StabilityReport(
        kind=kind, n_grid=n_grid, samples=samples, master_seed=seed, extras=extras, **fields
    )
    medians = [float(np.median(samples[n])) for n in n_grid]
    if len(n_grid) >= 3 and all(m > 0.0 for m in medians):
        rep.slope, rep.intercept, rep.slope_stderr = _loglog_line(n_grid, medians)
    rep.validate()
    return rep


def sgd_campaigns(
    variants: Sequence[str],
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
) -> dict[str, StabilityReport]:
    """The ridge SGD campaigns named in ``variants``, "first" and/or
    "second", with every trajectory of every variant stepped in one
    kernel call; each report fits the slope of its per-n medians when
    the grid has at least 3 points.

    A "first" trial draws fresh data, a replacement row and an index
    (``index_mode`` "uniform", or "tail" for slope studies), and its
    movement is compared to the deterministic bound (2L / beta) n^-a.
    "second" draws tail-window indices and claims no bound (the rate
    holds up to a log factor).
    """
    plans = {"first": ("sgd-first", 1, index_mode), "second": ("sgd-second", 2, "tail")}
    variants = tuple(variants)
    if not variants or len(set(variants)) != len(variants) or not set(variants) <= plans.keys():
        raise DomainError(f"variants must be distinct names among first, second; got {variants}")
    config = SgdConfig.for_ridge(lam, step_exponent, radius_x, radius_theta)
    n_grid = _grid(n_grid)
    samples = _sgd_campaign(config, n_grid, trials, d, seed, [plans[v] for v in variants])
    extras = {"objective": "ridge_sq", "lam": lam}
    reports = {}
    for variant, by_n in zip(variants, samples):
        if variant == "first":
            bound_scale = 2.0 * config.lipschitz / config.smoothness
            bounds = {n: bound_scale * n ** (-config.step_exponent) for n in n_grid}
            violations = {n: int(np.sum(by_n[n] > bounds[n] * (1 + 1e-9))) for n in n_grid}
            reports[variant] = _report(
                "sgd-first-diff",
                n_grid,
                by_n,
                seed,
                {"index_mode": index_mode, **extras},
                bounds=bounds,
                violations=violations,
            )
        else:
            reports[variant] = _report("sgd-second-diff", n_grid, by_n, seed, dict(extras))
    return reports
