"""Replace-one stability probes and their log-log slope fits."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cvconf import learners
from cvconf.cli_harness import ExperimentConfig, run_stability
from cvconf.datamodel import DomainError
from cvconf.learners import SgdConfig, sgd_trajectories
from cvconf.simgen import derive_substream
from cvconf.stability_lab import (
    _bounded_rows,
    _check_rows_in_ball,
    _draw_index,
    _report,
    StabilityPreconditionError,
    StabilityReport,
    check_sgd_precondition,
    param_first_diff,
    param_second_diff,
    sgd_campaigns,
    sgd_ratio_requirement,
)


def _sgd_instance(n, lam, a=0.6, d=4, seed=0, radius_theta=1.0):
    cfg = SgdConfig.for_ridge(lam, a, radius_x=1.0, radius_theta=radius_theta)
    Z, y = _bounded_rows(derive_substream(seed, "bounded-regression"), n, d, 1.0)
    return Z, y, cfg


def _fresh_row(d, seed, radius_x=1.0):
    Z, y = _bounded_rows(derive_substream(seed, "bounded-regression"), 1, d, radius_x)
    return Z[0], float(y[0])


# ----------------------------------------------------------- precondition


def test_sgd_ratio_requirement_value():
    # a(1-a)/(1-2^(a-1)) * log(n) / n^(1-a) at n=4096, a=0.6
    assert sgd_ratio_requirement(4096, 0.6) == pytest.approx(0.29594, abs=2e-4)


def test_precondition_accepts_and_rejects():
    ok = SgdConfig.for_ridge(0.6, 0.6, radius_x=1.0, radius_theta=1.0)
    check_sgd_precondition(ok, 4096)  # gamma/beta = 0.375 >= 0.296
    bad = SgdConfig.for_ridge(0.3, 0.6, radius_x=1.0, radius_theta=1.0)
    with pytest.raises(StabilityPreconditionError):
        check_sgd_precondition(bad, 4096)  # 0.231 < 0.296


def test_param_first_diff_enforces_precondition():
    Z, y, _ = _sgd_instance(128, lam=0.3)
    weak = SgdConfig.for_ridge(0.3, 0.6, radius_x=1.0, radius_theta=1.0)
    z_new, y_new = _fresh_row(4, seed=9)
    with pytest.raises(StabilityPreconditionError):
        param_first_diff(Z, y, weak, 5, z_new, y_new)


# ------------------------------------------------------- first difference


def test_param_first_diff_identity_replacement_is_zero():
    Z, y, cfg = _sgd_instance(128, lam=2.5)
    assert param_first_diff(Z, y, cfg, 17, Z[17], y[17]) == 0.0


def test_param_first_diff_within_deterministic_bound():
    n, lam, a = 512, 1.2, 0.6
    cfg = SgdConfig.for_ridge(lam, a, radius_x=1.0, radius_theta=1.0)
    bound = 2 * cfg.lipschitz / cfg.smoothness * n ** (-a)
    rng = derive_substream(7, "bound-trials")
    Z, y = _bounded_rows(derive_substream(3, "bounded-regression"), n, 4, 1.0)
    for trial in range(30):
        i = int(rng.integers(n))
        z_new, y_new = _fresh_row(4, seed=1000 + trial)
        val = param_first_diff(Z, y, cfg, i, z_new, y_new)
        assert 0.0 <= val <= bound * (1 + 1e-9)


def test_param_first_diff_last_step_unrolls_to_gradient_gap():
    n, a = 64, 0.6
    cfg = SgdConfig.for_ridge(4.0, a, radius_x=1.0, radius_theta=5.0)
    Z, y = _bounded_rows(derive_substream(11, "bounded-regression"), n, 3, 1.0)
    z_new, y_new = _fresh_row(3, seed=12)
    theta_prev = sgd_trajectories(Z[: n - 1], y[: n - 1], [n - 1], cfg, [0], [{}])[0]
    g_old = -(y[n - 1] - Z[n - 1] @ theta_prev) * Z[n - 1] + cfg.lam * theta_prev
    g_new = -(y_new - z_new @ theta_prev) * z_new + cfg.lam * theta_prev
    expected = n**-a / cfg.smoothness * np.linalg.norm(g_old - g_new)
    got = param_first_diff(Z, y, cfg, n - 1, z_new, y_new)
    assert got == pytest.approx(expected, rel=1e-12)


def test_param_first_diff_swap_symmetry():
    Z, y, cfg = _sgd_instance(96, lam=3.0, seed=21)
    z_new, y_new = _fresh_row(4, seed=22)
    fwd = param_first_diff(Z, y, cfg, 30, z_new, y_new)
    Z2 = Z.copy()
    y2 = y.copy()
    Z2[30], y2[30] = z_new, y_new
    back = param_first_diff(Z2, y2, cfg, 30, Z[30], y[30])
    assert fwd == back


def test_param_first_diff_rejects_out_of_ball_rows():
    Z, y, cfg = _sgd_instance(64, lam=4.0)
    with pytest.raises(DomainError):
        param_first_diff(Z, y, cfg, 0, 3.0 * np.ones(4), 0.0)


@pytest.mark.parametrize(
    "place", ["feature", "response", "replacement row", "replacement response"]
)
def test_param_first_diff_refuses_a_nan_or_inf_anywhere(place):
    # a NaN fails every comparison, so the radius check must be written to
    # refuse it, as it refuses an inf
    Z, y, cfg = _sgd_instance(256, lam=1.6)
    z_new, y_new = _fresh_row(4, seed=23)
    for bad in (float("nan"), float("inf")):
        args = [Z.copy(), y.copy(), z_new.copy(), y_new]
        if place == "feature":
            args[0][5, 1] = bad
        elif place == "response":
            args[1][5] = bad
        elif place == "replacement row":
            args[2][1] = bad
        else:
            args[3] = bad
        with pytest.raises(DomainError, match="radius bound"):
            param_first_diff(args[0], args[1], cfg, 30, args[2], args[3])


# ------------------------------------------------------ second difference


def test_param_second_diff_identity_replacements_vanish():
    Z, y, cfg = _sgd_instance(96, lam=3.0, seed=31)
    val = param_second_diff(Z, y, cfg, 10, 40, Z[10], y[10], Z[40], y[40])
    assert val == 0.0


def test_param_second_diff_single_identity_telescopes():
    Z, y, cfg = _sgd_instance(96, lam=3.0, seed=32)
    z_new, y_new = _fresh_row(4, seed=33)
    val = param_second_diff(Z, y, cfg, 10, 40, z_new, y_new, Z[40], y[40])
    assert val == 0.0


def test_param_second_diff_requires_distinct_indices():
    Z, y, cfg = _sgd_instance(64, lam=4.0)
    z_new, y_new = _fresh_row(4, seed=34)
    with pytest.raises(DomainError):
        param_second_diff(Z, y, cfg, 7, 7, z_new, y_new, z_new, y_new)


# -------------------------------------------------------------- slope fit


def _power_law_samples(c, exponent, grid, count=30):
    return {n: np.full(count, c * float(n) ** exponent) for n in grid}


def test_report_fits_exact_power_laws():
    grid = (100, 200, 400, 800)
    rep = _report("exact", grid, _power_law_samples(3.0, -0.5, grid), 0, {})
    assert rep.slope == pytest.approx(-0.5, abs=1e-10)
    assert rep.slope_stderr == pytest.approx(0.0, abs=1e-8)
    assert rep.intercept == pytest.approx(np.log(3.0), abs=1e-9)
    rep = _report("exact", grid, _power_law_samples(0.2, -1.5, grid), 0, {})
    assert rep.slope == pytest.approx(-1.5, abs=1e-10)


def test_report_fits_no_slope_through_a_zero_median():
    grid = (100, 200, 400)
    samples = _power_law_samples(3.0, -0.5, grid)
    samples[200] = np.concatenate([np.zeros(16), np.ones(14)])
    rep = _report("zero", grid, samples, 0, {})
    assert rep.slope is None and rep.intercept is None and rep.slope_stderr is None


# -------------------------------------------------------------- campaigns


def test_sgd_first_diff_campaign_unit_scale():
    rep = sgd_campaigns(
        ("first",),
        (256, 512, 1024),
        trials=25,
        lam=1.6,
        step_exponent=0.6,
        seed=5,
        index_mode="tail",
    )["first"]
    assert rep.kind == "sgd-first-diff"
    assert rep.n_grid == (256, 512, 1024)
    for n in rep.n_grid:
        assert rep.samples[n].shape == (25,)
        assert rep.violations[n] == 0
        assert np.all(rep.samples[n] <= rep.bounds[n] * (1 + 1e-9))
    # medians from the tail window scale like n^(-a)
    assert -0.85 <= rep.slope <= -0.45


def test_sgd_first_diff_campaign_uniform_mode_zero_violations():
    rep = sgd_campaigns(
        ("first",), (256,), trials=20, lam=1.6, step_exponent=0.6, seed=6, index_mode="uniform"
    )["first"]
    assert rep.violations[256] == 0
    assert rep.slope is None  # one grid point: no fit


def test_sgd_second_diff_campaign_scales_faster():
    rep = sgd_campaigns(
        ("second",),
        (256, 512, 1024),
        trials=15,
        lam=1.6,
        step_exponent=0.6,
        seed=7,
    )["second"]
    assert rep.kind == "sgd-second-diff"
    assert all(np.all(rep.samples[n] >= 0.0) for n in rep.n_grid)
    assert rep.slope <= -0.7  # second differences decay faster than first


# ------------------------------------- batched campaigns vs a scalar oracle
#
# The oracle is the per-trial campaign body: draw each trial from its own
# substream, then run every trajectory as a separate scalar SGD pass over
# a copy of the data with the replaced rows written in.


def _scalar_sgd(Z, y, cfg, fired=None):
    """One projected SGD pass; ``fired`` collects the steps that project."""
    theta = np.zeros(Z.shape[1])
    for t in range(1, Z.shape[0] + 1):
        z = Z[t - 1]
        grad = -(y[t - 1] - z @ theta) * z + cfg.lam * theta
        theta = theta - t**-cfg.step_exponent / cfg.smoothness * grad
        nrm = float(np.linalg.norm(theta))
        if nrm > cfg.radius_theta:
            theta *= cfg.radius_theta / nrm
            if fired is not None:
                fired.add(t)
    return theta


def _scalar_path(Z, y, cfg, repl, fired=None):
    Z2, y2 = Z.copy(), y.copy()
    for k, (zk, yk) in repl.items():
        Z2[k], y2[k] = zk, yk
    return _scalar_sgd(Z2, y2, cfg, fired)


def _oracle_campaign(order, n_grid, trials, cfg, d, seed, index_mode="tail"):
    """Per-n oracle samples, the drawn indices, and per n the projection
    steps of every trajectory of every trial."""
    samples, drawn, fired = {}, [], {}
    for n in n_grid:
        vals = np.empty(trials)
        fired[n] = []
        for t in range(trials):
            if order == 1:
                rng = derive_substream(seed, "sgd-first", n, t)
                Z, y = _bounded_rows(rng, n, d, cfg.radius_x)
                i = _draw_index(rng, n, cfg.step_exponent, index_mode)
                z_new, y_new = _bounded_rows(rng, 1, d, cfg.radius_x)
                repls = [{}, {i: (z_new[0], float(y_new[0]))}]
                drawn.append((n, i))
            else:
                rng = derive_substream(seed, "sgd-second", n, t)
                Z, y = _bounded_rows(rng, n, d, cfg.radius_x)
                i = _draw_index(rng, n, cfg.step_exponent, "tail")
                j = i
                while j == i:
                    j = _draw_index(rng, n, cfg.step_exponent, "tail")
                zr, yr = _bounded_rows(rng, 2, d, cfg.radius_x)
                ri, rj = {i: (zr[0], float(yr[0]))}, {j: (zr[1], float(yr[1]))}
                repls = [{}, ri, rj, {**ri, **rj}]
                drawn.append((n, i, j))
            steps = [set() for _ in repls]
            th = [_scalar_path(Z, y, cfg, r, f) for r, f in zip(repls, steps)]
            fired[n] += steps
            diff = th[0] - th[1] if order == 1 else th[0] - th[1] - th[2] + th[3]
            vals[t] = float(np.linalg.norm(diff))
        samples[n] = vals
    return samples, drawn, fired


def _mixed_projection_step(fired) -> bool:
    """At some n, one step projects some trajectories and not others."""
    return any(set.union(*steps) - set.intersection(*steps) for steps in fired.values())


@pytest.mark.parametrize("index_mode", ["uniform", "tail"])
def test_first_diff_campaign_matches_scalar_oracle(index_mode):
    grid, trials, d, seed = (2, 3, 40, 97), 12, 3, 50
    cfg = SgdConfig.for_ridge(12.0, 0.6, radius_x=1.0, radius_theta=1.0)
    want, drawn, _ = _oracle_campaign(1, grid, trials, cfg, d, seed, index_mode)
    rep = sgd_campaigns(
        ("first",), grid, trials, lam=12.0, step_exponent=0.6, d=d, seed=seed, index_mode=index_mode
    )["first"]
    for n in grid:
        np.testing.assert_array_equal(rep.samples[n], want[n])
    # replacements at the first and the last row both occur
    assert {(n, 0) for n in grid} & set(drawn)
    assert {(n, n - 1) for n in grid} & set(drawn)


def test_second_diff_campaign_matches_scalar_oracle():
    grid, trials, d, seed = (2, 5, 64, 130), 10, 3, 51
    cfg = SgdConfig.for_ridge(12.0, 0.6, radius_x=1.0, radius_theta=1.0)
    want, drawn, _ = _oracle_campaign(2, grid, trials, cfg, d, seed)
    rep = sgd_campaigns(
        ("second",), grid, trials, lam=12.0, step_exponent=0.6, d=d, seed=seed
    )["second"]
    for n in grid:
        np.testing.assert_array_equal(rep.samples[n], want[n])
    assert any(i > j for _, i, j in drawn) and any(i < j for _, i, j in drawn)
    assert any(0 in (i, j) for _, i, j in drawn)
    assert any(n - 1 in (i, j) for n, i, j in drawn)


@pytest.mark.parametrize("order", [1, 2])
def test_campaigns_match_oracle_when_projection_fires_on_some_rows(order):
    grid, trials, d, seed, radius = (200, 400), 6, 4, 52, 0.1
    cfg = SgdConfig.for_ridge(2.0, 0.6, radius_x=1.0, radius_theta=radius)
    want, _, fired = _oracle_campaign(order, grid, trials, cfg, d, seed, "uniform")
    assert _mixed_projection_step(fired)
    variant = "first" if order == 1 else "second"
    rep = sgd_campaigns(
        (variant,), grid, trials, lam=2.0, radius_theta=radius, d=d, seed=seed, index_mode="uniform"
    )[variant]
    for n in grid:
        np.testing.assert_array_equal(rep.samples[n], want[n])


def _mixed_datasets(lengths, d=3, seed=60):
    """Datasets of the given row counts, end to end, and each one alone."""
    parts = [
        _bounded_rows(derive_substream(seed + j, "bounded-regression"), n, d, 1.0)
        for j, n in enumerate(lengths)
    ]
    Z = np.concatenate([Zj for Zj, _ in parts])
    y = np.concatenate([yj for _, yj in parts])
    return Z, y, parts


@pytest.mark.parametrize("radius_theta", [1.0, 0.05])
def test_sgd_trajectories_mixed_lengths_match_lone_passes(radius_theta):
    lengths = [7, 30, 1, 30, 15]
    cfg = SgdConfig.for_ridge(12.0, 0.6, radius_x=1.0, radius_theta=radius_theta)
    Z, y, parts = _mixed_datasets(lengths)
    row = _fresh_row(3, seed=70)
    trial = [0, 0, 2, 1, 3, 2, 4, 1, 0]
    replace = [{}, {6: row}, {}, {0: row, 29: row}, {12: row}, {0: row}, {}, {}, {3: row, 6: row}]
    got = sgd_trajectories(Z, y, lengths, cfg, trial, replace)
    for k, (j, rows) in enumerate(zip(trial, replace)):
        Zj, yj = parts[j]
        lone = sgd_trajectories(Zj, yj, [lengths[j]], cfg, [0], [rows])[0]
        np.testing.assert_array_equal(got[k], lone)
        np.testing.assert_array_equal(got[k], _scalar_path(Zj, yj, cfg, rows))
    # the replacement at the last row of the shortest datasets took effect
    assert not np.array_equal(got[0], got[1])
    assert not np.array_equal(got[2], got[5])


# 8 trajectories of d = 3 over datasets of 12, 5, 12 and 9 rows; at 96
# elements a block holds 4 steps of all 8, 4 steps of the 7 that outlive
# row 5 and 6 steps of the 5 that outlive row 9, so the blocks are rows
# 0-3, 4, 5-8 and 9-11, and the swaps sit on their first and last rows
_BLOCK_TRIAL = [0, 0, 1, 2, 2, 3, 3, 0]
_BLOCK_ROWS = [{}, {0: 0, 11: 1}, {3: 0, 4: 1}, {4: 1, 8: 0}, {}, {5: 1, 8: 0}, {0: 1}, {9: 0}]


@pytest.mark.parametrize("elems", [1, 96, 1 << 40])
@pytest.mark.parametrize("radius_theta, projects", [(1e-4, "every step"), (100.0, "no step")])
def test_sgd_trajectories_row_blocks_match_lone_passes(monkeypatch, elems, radius_theta, projects):
    # one step per block, blocks that end inside a segment, one block per segment
    monkeypatch.setattr(learners, "_BLOCK_ELEMS", elems)
    lengths = [12, 5, 12, 9]
    cfg = SgdConfig.for_ridge(1.6, 0.6, radius_x=1.0, radius_theta=radius_theta)
    Z, y, parts = _mixed_datasets(lengths, seed=90)
    fresh = [_fresh_row(3, seed=91), _fresh_row(3, seed=92)]
    replace = [{s: fresh[i] for s, i in rows.items()} for rows in _BLOCK_ROWS]
    got = sgd_trajectories(Z, y, lengths, cfg, _BLOCK_TRIAL, replace)
    for k, (j, rows) in enumerate(zip(_BLOCK_TRIAL, replace)):
        Zj, yj = parts[j]
        lone = sgd_trajectories(Zj, yj, [lengths[j]], cfg, [0], [rows])[0]
        np.testing.assert_array_equal(got[k], lone)
        fired = set()
        np.testing.assert_array_equal(got[k], _scalar_path(Zj, yj, cfg, rows, fired))
        want = set(range(1, lengths[j] + 1)) if projects == "every step" else set()
        assert fired == want
    # the swap at row 9 took effect: trajectories 0 and 7 differ only there
    assert not np.array_equal(got[0], got[7])


class _CountingMath:
    """Stands in for ``learners.math``: counts the kernel's exact norm checks,
    its only ``math.sqrt`` calls."""

    inf = math.inf

    def __init__(self):
        self.checks = 0

    def sqrt(self, x):
        self.checks += 1
        return math.sqrt(x)


def _assert_scalar_passes(got, parts, lengths, cfg, trial, replace):
    """Each trajectory equals a scalar pass over its replaced dataset;
    returns the steps at which each pass projected."""
    fired = []
    for k, (j, rows) in enumerate(zip(trial, replace)):
        Zj, yj = parts[j]
        steps = set()
        np.testing.assert_array_equal(got[k], _scalar_path(Zj, yj, cfg, rows, steps))
        fired.append(steps)
    return fired


def test_sgd_trajectories_rows_outside_the_radius_ball_match_scalar_passes():
    # the kernel does not check the radius_x ball.  Rows of norm up to 8
    # make the early steps overshoot, so the iterates leave the radius
    # ball although the responses stay within 0.1; a bound that took the
    # rows to lie in the ball would skip those projections
    lengths = [40, 25]
    cfg = SgdConfig.for_ridge(1.6, 0.6, radius_x=1.0, radius_theta=1.0)
    Z, y, parts = _mixed_datasets(lengths, seed=100)
    Z, y = 8.0 * Z, 0.1 * y
    parts = [(8.0 * Zj, 0.1 * yj) for Zj, yj in parts]
    row = (np.array([8.0, 0.0, 0.0]), -0.1)
    trial, replace = [0, 0, 1, 1], [{}, {20: row}, {}, {0: row}]
    got = sgd_trajectories(Z, y, lengths, cfg, trial, replace)
    fired = _assert_scalar_passes(got, parts, lengths, cfg, trial, replace)
    assert all(fired)  # the projection fired in every trajectory


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["row", "replacement"])
def test_sgd_trajectories_non_finite_rows_match_scalar_passes(bad, where):
    lengths = [30, 30]
    cfg = SgdConfig.for_ridge(1.6, 0.6, radius_x=1.0, radius_theta=1.0)
    Z, y, parts = _mixed_datasets(lengths, seed=110)
    row = _fresh_row(3, seed=111)
    trial, replace = [0, 0, 1, 1], [{}, {4: row}, {}, {9: row}]
    if where == "row":  # row 12 of dataset 0
        Z[12, 1] = bad
        parts[0][0][12, 1] = bad
    else:
        replace[1] = {4: (np.array([0.5, bad, 0.0]), 0.3)}
    got = sgd_trajectories(Z, y, lengths, cfg, trial, replace)
    _assert_scalar_passes(got, parts, lengths, cfg, trial, replace)
    assert not np.all(np.isfinite(got[1]))
    assert np.all(np.isfinite(got[2:]))  # dataset 1 is untouched


def test_sgd_trajectories_bound_skips_and_falls_back_on_a_long_pass(monkeypatch):
    # 3000 rows whose responses stay small until row 2400 and then push the
    # iterates out of the radius ball, so the projection first fires late
    n, d = 3000, 3
    cfg = SgdConfig.for_ridge(1.6, 0.6, radius_x=1.0, radius_theta=0.2)
    Z, y = _bounded_rows(derive_substream(120, "bounded-regression"), n, d, 1.0)
    y[:2400] *= 0.05
    y[2400:] = np.sign(Z[2400:, 0])
    Z[2400:, 0] = np.where(Z[2400:, 0] >= 0, 1.0, -1.0)
    Z[2400:, 1:] = 0.0
    row = _fresh_row(d, seed=121)
    trial, replace = [0, 0, 0], [{}, {100: row}, {2500: row}]
    counter = _CountingMath()
    monkeypatch.setattr(learners, "math", counter)
    got = sgd_trajectories(Z, y, [n], cfg, trial, replace)
    fired = _assert_scalar_passes(got, [(Z, y)], [n], cfg, trial, replace)
    assert min(set.union(*fired)) > 2400
    # the exact check ran on every projecting step and was skipped on most others
    assert len(set.union(*fired)) <= counter.checks < n // 2


@pytest.mark.parametrize("elems", [1, 96, 1 << 40])
@pytest.mark.parametrize("radius_theta", [0.05, 1.0])
def test_sgd_trajectories_late_starts_match_scalar_passes(monkeypatch, elems, radius_theta):
    monkeypatch.setattr(learners, "_BLOCK_ELEMS", elems)
    lengths = [12, 9, 0, 12, 7]
    cfg = SgdConfig.for_ridge(1.6, 0.6, radius_x=1.0, radius_theta=radius_theta)
    Z, y, parts = _mixed_datasets([12, 9, 12, 7], seed=130)
    parts.insert(2, (Z[:0], y[:0]))
    r1, r2 = _fresh_row(3, seed=131), _fresh_row(3, seed=132)
    trial = [0, 0, 0, 0, 0, 1, 1, 1, 3, 3, 2, 4, 4, 4]
    replace = [
        {0: r1},  # dataset 0: starts at row 0 and at the last row,
        {},  # an unreplaced lead,
        {11: r2},
        {5: r1, 8: r2},  # two starts at row 5,
        {5: r2},
        {3: r1},  # dataset 1 has no unreplaced trajectory: the lead
        {6: r2, 1: r1},  # is the trajectory first replaced at row 3
        {3: r2},  # and a tie with it starts at row 3
        {},  # dataset 3: two unreplaced trajectories,
        {},  # the second a copy of the first
        {},  # dataset 2 has no rows
        {6: r1},  # dataset 4: the lead is replaced at its last row
        {0: r2, 6: r2},
        {2: r1},
    ]
    got = sgd_trajectories(Z, y, lengths, cfg, trial, replace)
    fired = _assert_scalar_passes(got, parts, lengths, cfg, trial, replace)
    if radius_theta < 1.0:
        assert all(fired[k] for k in range(len(trial)) if lengths[trial[k]])
    np.testing.assert_array_equal(got[10], np.zeros(3))
    assert not np.array_equal(got[0], got[1]) and not np.array_equal(got[1], got[2])


def test_sgd_trajectories_permuting_trajectories_permutes_result():
    lengths = [9, 4, 12]
    cfg = SgdConfig.for_ridge(12.0, 0.6, radius_x=1.0, radius_theta=1.0)
    Z, y, _ = _mixed_datasets(lengths, seed=80)
    row = _fresh_row(3, seed=81)
    trial = [0, 1, 2, 2, 1, 0]
    replace = [{}, {3: row}, {11: row}, {}, {}, {0: row, 8: row}]
    got = sgd_trajectories(Z, y, lengths, cfg, trial, replace)
    perm = [4, 2, 0, 5, 1, 3]
    permuted = sgd_trajectories(
        Z, y, lengths, cfg, [trial[k] for k in perm], [replace[k] for k in perm]
    )
    np.testing.assert_array_equal(permuted, got[perm])


def test_sgd_trajectories_without_trajectories_returns_empty():
    Z, y, cfg = _sgd_instance(16, lam=12.0)
    out = sgd_trajectories(Z, y, [16], cfg, [], [])
    assert out.shape == (0, 4)


def test_sgd_trajectories_rejects_bad_layout():
    Z, y, cfg = _sgd_instance(16, lam=12.0)
    Z, y = np.concatenate([Z, Z[:10]]), np.concatenate([y, y[:10]])
    lengths = [16, 10]
    row = (Z[0], y[0])
    with pytest.raises(DomainError):  # a (T, n, d) stack, not rows end to end
        sgd_trajectories(np.stack([Z, Z]), np.stack([y, y]), lengths, cfg, [0], [{}])
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, [16, 9], cfg, [0], [{}])  # lengths miss a row
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, [30, -4], cfg, [0], [{}])  # negative length
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, lengths, cfg, [0, 2], [{}, {}])  # no dataset 2
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, lengths, cfg, [0, 1], [{}])  # one replacement dict short
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, lengths, cfg, [0], [{16: row}])  # row index past n
    with pytest.raises(DomainError):  # past its own dataset, inside the longest one
        sgd_trajectories(Z, y, lengths, cfg, [0, 1], [{}, {10: row}])
    with pytest.raises(DomainError):
        sgd_trajectories(Z, y, lengths, cfg, [0], [{3: (np.zeros(5), 0.0)}])  # wrong d


@pytest.mark.parametrize(
    "case", ["float replaced row", "bool replaced row", "float lengths", "float trial"]
)
def test_sgd_trajectories_refuses_non_integer_indices(case):
    # each would otherwise be truncated: row 2, row 1, 300 rows, dataset 0
    Z, y, cfg = _sgd_instance(301, lam=12.0)
    row = (Z[0], y[0])
    args = {"lengths": [301], "trial": [0], "replace": [{}]}
    if case == "float replaced row":
        args["replace"] = [{2.5: row}]
    elif case == "bool replaced row":
        args["replace"] = [{True: row}]
    elif case == "float lengths":
        Z, y = Z[:300], y[:300]
        args["lengths"] = [300.7]
    else:
        args["trial"] = [0.9]
    with pytest.raises(DomainError, match="integers"):
        sgd_trajectories(Z, y, args["lengths"], cfg, args["trial"], args["replace"])


@pytest.mark.parametrize("trial", [[0, False], [True, 1]])
def test_sgd_trajectories_refuses_a_bool_among_integer_trial_indices(trial):
    # numpy reads [0, False] as an int64 array, which would run dataset 0 twice
    Z, y, cfg = _sgd_instance(16, lam=12.0)
    Z, y = np.concatenate([Z, Z]), np.concatenate([y, y])
    with pytest.raises(DomainError, match="trial indices must be integers"):
        sgd_trajectories(Z, y, [16, 16], cfg, trial, [{}, {}])


@pytest.mark.parametrize("i", [3.7, True])
def test_param_first_diff_refuses_a_non_integer_index(i):
    Z, y, cfg = _sgd_instance(64, lam=4.0)
    z_new, y_new = _fresh_row(4, seed=35)
    with pytest.raises(DomainError, match="integers"):
        param_first_diff(Z, y, cfg, i, z_new, y_new)


def test_rows_in_ball_check_allows_only_rounding_past_the_radius():
    y = np.zeros(2)
    _check_rows_in_ball(np.array([[1.0 + 1e-10, 0.0, 0.0], [0.0, 0.6, 0.8]]), y, 1.0)
    with pytest.raises(DomainError, match="radius"):
        _check_rows_in_ball(np.array([[0.0, 0.0, 1.0 + 1e-8], [0.0, 0.6, 0.8]]), y, 1.0)
    with pytest.raises(DomainError, match="radius"):
        _check_rows_in_ball(np.zeros((1, 3)), np.array([-1.0 - 1e-8]), 1.0)


def test_sgd_campaigns_reject_repeated_sample_sizes():
    with pytest.raises(DomainError, match="distinct"):
        sgd_campaigns(("first",), (256, 256, 512), 2, lam=1.6, seed=1)


def test_sgd_campaigns_reject_an_empty_grid():
    with pytest.raises(DomainError, match="at least one sample size"):
        sgd_campaigns(("first",), [], 4, lam=1.6)


def test_sgd_campaigns_refuse_a_float_sample_size():
    # 256.7 is not truncated to n = 256
    with pytest.raises(DomainError, match="integers"):
        sgd_campaigns(("first",), [256.7, 512], 2, lam=1.6)


def test_sgd_campaigns_match_one_variant_campaigns():
    grid, trials, d, seed = (3, 40, 97), 4, 3, 53
    kw = dict(lam=12.0, step_exponent=0.6, d=d, seed=seed)
    both = sgd_campaigns(("second", "first"), grid, trials, index_mode="tail", **kw)
    first = sgd_campaigns(("first",), grid, trials, index_mode="tail", **kw)["first"]
    second = sgd_campaigns(("second",), grid, trials, **kw)["second"]
    for got, want in ((both["first"], first), (both["second"], second)):
        assert got.summary() == want.summary()
        for n in grid:
            np.testing.assert_array_equal(got.samples[n], want.samples[n])
    with pytest.raises(DomainError):
        sgd_campaigns(("first", "first"), grid, trials, **kw)


# --------------------------------------------------------------------- io


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_report_validate_rejects_non_finite_samples(bad):
    with pytest.raises(DomainError, match="n=128"):
        StabilityReport(
            kind="sgd-first-diff",
            n_grid=(64, 128),
            samples={64: np.array([0.1, 0.2]), 128: np.array([0.05, bad])},
        )


def test_report_is_checked_when_built_and_frozen():
    samples = {64: np.array([0.1, 0.2])}
    with pytest.raises(DomainError, match="nonnegative"):
        StabilityReport(kind="k", n_grid=(64,), samples={64: np.array([0.1, -0.2])})
    with pytest.raises(DomainError, match="violation count exceeds trial count"):
        StabilityReport(kind="k", n_grid=(64,), samples=samples, violations={64: 3})
    rep = StabilityReport(kind="k", n_grid=(64,), samples=samples, violations={64: 2})
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.slope = 1.0


def test_report_round_trips_through_csv_and_json(tmp_path):
    # run_stability writes the report that sgd_campaigns returns
    cfg = ExperimentConfig(
        kind="stability",
        family="bounded_regression",
        n_list=(128, 256, 512),
        d=4,
        sgd_lam=2.5,
        sgd_a=0.6,
        reps=30,
        seed=13,
        out=str(tmp_path),
        variant="first",
        index_mode="tail",
    )
    run_stability(cfg)
    rep = sgd_campaigns(
        ("first",),
        (128, 256, 512),
        trials=30,
        lam=2.5,
        step_exponent=0.6,
        seed=13,
        index_mode="tail",
    )["first"]
    csv_path = tmp_path / "stability_first.csv"
    json_path = tmp_path / "stability_first.json"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["kind", "n", "trial", "value"]
    assert len(lines) == 1 + 3 * 30
    blob = json.loads(json_path.read_text())
    assert blob["kind"] == "sgd-first-diff"
    assert blob["slope"] == pytest.approx(rep.slope)
    assert blob["violations"] == {str(n): 0 for n in rep.n_grid}
