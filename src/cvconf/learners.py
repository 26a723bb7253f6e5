"""Learner bank: ridge (least squares at lam = 0), lasso, forward
selection and single-pass SGD.

All fitting functions are pure: identical inputs give identical
outputs, with no dependence on global RNG or iteration order beyond
the documented cyclic/greedy schedules.  The lasso has one solver,
``lasso_bank``, which runs the coordinate descent of many problems
together; ``fit_lasso`` is its one-problem call.  SGD passes likewise
run together in ``sgd_trajectories``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import DomainError, FittedModel


class ConvergenceError(RuntimeError):
    """An iterative fit stopped before reaching its tolerance."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations

    def __reduce__(self):
        # pickling calls __init__ again, so it needs both of its arguments
        return type(self), (self.args[0], self.iterations)


def _check_xy(features, response):
    Z = np.asarray(features, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if Z.ndim != 2:
        raise DomainError(f"features must be 2-d, got shape {Z.shape}")
    if y.ndim != 1 or y.shape[0] != Z.shape[0]:
        raise DomainError(f"response shape {y.shape} does not match {Z.shape[0]} rows")
    return Z, y


# ------------------------------------------------------------------- ridge


def fit_ridge(features, response, lam: float) -> FittedModel:
    """Closed-form ridge: (Z'Z/n + lam I)^{-1} Z'y / n on the given rows.

    lam = 0 delegates to the minimum-norm least-squares solution, so a
    singular design never raises.
    """
    Z, y = _check_xy(features, response)
    if not lam >= 0:
        raise DomainError(f"ridge needs lam >= 0, got {lam}")
    if lam == 0:
        coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
        return FittedModel(family="ridge", coef=coef)
    n = Z.shape[0]
    return FittedModel(family="ridge", coef=_ridge_solve(Z.T @ Z / n, Z.T @ y / n, lam))


def _ridge_solve(gram: np.ndarray, corr: np.ndarray, lam: float) -> np.ndarray:
    """The ridge coefficients (gram + lam I)^{-1} corr, from the Z'Z/n and
    Z'y/n of the training rows; lam > 0."""
    return np.linalg.solve(gram + lam * np.eye(gram.shape[0]), corr)


# ------------------------------------------------------------------- lasso


def lasso_bank(grams, corrs, gram_index, lams, tol: float = 1e-8, max_iter: int = 100_000):
    """Run the cyclic coordinate descent of K lasso problems together.

    Problem k minimizes (1/2) b'Gb - c'b + lams[k] ||b||_1 from a zero
    start, where G = ``grams[gram_index[k]]`` and c =
    ``corrs[gram_index[k]]`` (Z'Z/n and Z'y/n of its training rows).
    Problems read the (G, d, d) stack through the index, so penalties
    and training sets share it without a copy.  Each coordinate step
    soft-thresholds every live problem at once, into buffers reused
    from step to step, and updates the gradient c - Gb only of the
    problems whose coordinate moved; a coordinate whose gram diagonal is
    not positive never moves.  A problem retires
    at the first sweep whose largest move is below ``tol`` and whose
    KKT residual is within 10 * tol.  Every value a problem computes is
    bitwise the one a cyclic loop over its own coordinates computes, so
    its coefficients and sweep count do not depend on the other
    problems of the call.  Grams and corrs must be finite.

    Returns (coefs (K, d), sweeps (K,), converged (K,)); a problem still
    live after ``max_iter`` sweeps reports ``max_iter`` and False.
    """
    grams = np.asarray(grams, dtype=np.float64)
    corrs = np.asarray(corrs, dtype=np.float64)
    gram_index = np.asarray(gram_index, dtype=np.intp)
    lams = np.asarray(lams, dtype=np.float64)
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2] or corrs.shape != grams.shape[:2]:
        raise DomainError(f"need (G, d, d) grams and (G, d) corrs, got {grams.shape}, {corrs.shape}")
    if gram_index.ndim != 1 or lams.shape != gram_index.shape:
        raise DomainError("need one gram index and one penalty per problem")
    if gram_index.size and not (0 <= gram_index.min() and gram_index.max() < grams.shape[0]):
        raise DomainError(f"gram indices must lie in [0, {grams.shape[0]})")
    if not np.all(lams >= 0):
        raise DomainError(f"lasso needs lam >= 0, got {lams[~(lams >= 0)][0]}")
    if not (np.all(np.isfinite(grams)) and np.all(np.isfinite(corrs))):
        raise DomainError("grams and corrs must be finite")
    if tol <= 0 or max_iter < 1:
        raise DomainError(f"need tol > 0 and max_iter >= 1, got {tol}, {max_iter}")
    K, d = gram_index.size, grams.shape[1]
    coefs = np.zeros((K, d))
    sweeps = np.full(K, int(max_iter))
    converged = np.zeros(K, dtype=bool)
    # state of the live problems, compacted as problems retire
    live = np.arange(K)
    gi = gram_index
    lam, neg_lam = lams, -lams
    beta = np.zeros((K, d))
    grad = corrs[gi]  # corr - gram @ 0
    # each live problem's gram diagonal by coordinate, (d, K); dividing by
    # inf sends a skipped coordinate to +-0, which never moves it off its
    # zero start
    diag = np.diagonal(grams, axis1=1, axis2=2).T[:, gi]
    div = np.where(diag > 0.0, diag, np.inf)
    zbuf, bbuf = np.empty(K), np.empty(K)
    for sweep in range(1, int(max_iter) + 1):
        if not live.size:
            break
        n = live.size
        dmax = np.zeros(n)
        zj, bnew = zbuf[:n], bbuf[:n]
        # the column views change only when problems retire, after a sweep
        for j, (b, g, dj, vj) in enumerate(zip(beta.T, grad.T, diag, div)):
            np.multiply(dj, b, out=zj)
            np.add(g, zj, out=zj)
            # soft-threshold: zj - lam above lam, zj + lam below -lam and
            # zj - zj = +0 between, exactly as the three branches give them
            # for finite zj
            np.minimum(zj, lam, out=bnew)
            np.maximum(bnew, neg_lam, out=bnew)
            np.subtract(zj, bnew, out=bnew)
            np.divide(bnew, vj, out=bnew)
            diff = np.subtract(bnew, b, out=zj)
            moved = diff.nonzero()[0]
            if moved.size:
                b[moved] = bnew[moved]
                step = grams[gi[moved], j]
                step *= diff[moved, None]
                grad[moved] -= step
                # fmax skips a NaN move as the scalar comparison would
                np.fmax(dmax, np.abs(diff, out=diff), out=dmax)
        small = np.flatnonzero(dmax < tol)
        if small.size:
            # KKT residual |g - lam| where b > 0, |g + lam| where b < 0 (or
            # NaN), max(|g| - lam, 0) where b == 0; written in place
            g, bs, ls = grad[small], beta[small], lam[small, None]
            r = np.where(bs > 0.0, ls, -ls)
            np.subtract(g, r, out=r)
            np.abs(r, out=r)
            np.abs(g, out=g)
            g -= ls
            np.maximum(g, 0.0, out=g)
            np.copyto(r, g, where=bs == 0.0)
            kkt = np.fmax.reduce(r, axis=1, initial=0.0)
            done = small[kkt <= 10.0 * tol]
            if done.size:
                coefs[live[done]] = beta[done]
                sweeps[live[done]] = sweep
                converged[live[done]] = True
                keep = np.ones(live.size, dtype=bool)
                keep[done] = False
                live, gi, lam, neg_lam = live[keep], gi[keep], lam[keep], neg_lam[keep]
                beta = beta[keep]
                grad = grad[keep]
                diag = diag[:, keep]
                div = div[:, keep]
    coefs[live] = beta
    return coefs, sweeps, converged


def _lasso_fit(coef, sweeps, converged, lam) -> FittedModel:
    """The fitted model of one ``lasso_bank`` problem, or its ConvergenceError."""
    sweeps = int(sweeps)
    if not converged:
        raise ConvergenceError(
            f"lasso did not converge in {sweeps} sweeps at lam={lam:g}", iterations=sweeps
        )
    support = tuple(np.flatnonzero(coef).tolist())
    return FittedModel(family="lasso", coef=coef, support=support, iterations=sweeps)


def fit_lasso(
    features,
    response,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 100_000,
) -> FittedModel:
    """Minimize (1/2n)||y - Z beta||^2 + lam ||beta||_1 by cyclic
    coordinate descent with soft-thresholding from a zero start: one
    problem of ``lasso_bank`` on Z'Z/n and Z'y/n.  The returned fit
    satisfies the KKT conditions to within 10 * tol.
    """
    Z, y = _check_xy(features, response)
    if not lam >= 0:
        raise DomainError(f"lasso needs lam >= 0, got {lam}")
    n = Z.shape[0]
    coefs, sweeps, ok = lasso_bank((Z.T @ Z / n)[None], (Z.T @ y / n)[None], [0], [lam], tol, max_iter)
    return _lasso_fit(coefs[0], sweeps[0], ok[0], lam)


def lasso_max_lam(features, response) -> float:
    """Smallest penalty with an all-zero solution: ||Z'y||_inf / n."""
    Z, y = _check_xy(features, response)
    return float(np.abs(Z.T @ y).max() / Z.shape[0])


DOUBLING_GRID_POINTS = 10


def lasso_grid(features, response, V: int) -> np.ndarray:
    """Descending penalty grid lam_max * 2^i / sqrt(1 - 1/V) for
    i = 0, -1, ..., 1 - DOUBLING_GRID_POINTS.

    The common rescale factor compensates for training folds holding
    only a (1 - 1/V) share of the rows.
    """
    if V < 2:
        raise DomainError(f"need V >= 2, got {V}")
    lam_max = lasso_max_lam(features, response)
    if lam_max == 0:
        raise DomainError("degenerate problem: Z'y is identically zero")
    scale = lam_max / math.sqrt(1 - 1 / V)
    return scale * 2.0 ** -np.arange(DOUBLING_GRID_POINTS, dtype=np.float64)


def lasso_grid_log(features, response, count: int = 50, floor_ratio: float = 1e-3) -> np.ndarray:
    """Log-spaced descending penalties from lam_max down to
    lam_max * floor_ratio."""
    if count < 2:
        raise DomainError(f"need count >= 2, got {count}")
    if not 0 < floor_ratio < 1:
        raise DomainError(f"need floor_ratio in (0, 1), got {floor_ratio}")
    lam_max = lasso_max_lam(features, response)
    if lam_max == 0:
        raise DomainError("degenerate problem: Z'y is identically zero")
    return np.geomspace(lam_max, lam_max * floor_ratio, count)


# ------------------------------------------------------- forward selection


def fit_forward(features, response, steps: int) -> FittedModel:
    """Greedy forward selection for ``steps`` rounds.

    Each round adds the feature whose inclusion minimizes the residual
    sum of squares, breaking ties toward the smallest index; the final
    coefficients are the least-squares refit on the selected support.
    """
    Z, y = _check_xy(features, response)
    n, d = Z.shape
    if steps is None or not 0 <= steps <= d:
        raise DomainError(f"forward needs 0 <= steps <= {d}, got {steps}")
    support: list[int] = []
    for _ in range(steps):
        best_j = -1
        best_rss = np.inf
        for j in range(d):
            if j in support:
                continue
            sub = Z[:, support + [j]]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            resid = y - sub @ coef
            rss = float(resid @ resid)
            if rss < best_rss:
                best_j, best_rss = j, rss
        support.append(best_j)
    coef = np.zeros(d)
    if support:
        sub = Z[:, support]
        sol, *_ = np.linalg.lstsq(sub, y, rcond=None)
        coef[support] = sol
    return FittedModel(
        family="forward", coef=coef, support=tuple(support), iterations=len(support)
    )


# --------------------------------------------------------------------- sgd

# Elements of the largest block of rows ``sgd_trajectories`` gathers at
# once (512 KiB of float64, the rule of ``gaussian_mc.BLOCK_ELEMS``).  The
# blocks only copy rows, so their size changes no value.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class SgdConfig:
    """Projected SGD on the ridge objective (1/2)(y - z'theta)^2 + (lam/2)||theta||^2.

    The step size is t^{-step_exponent} / smoothness.  The curvature
    constants follow from lam and the radii: strong convexity lam,
    smoothness radius_x^2 + lam, and the Lipschitz constant of the loss
    on the radius_theta ball.  Since lam <= smoothness, every step
    satisfies alpha_t <= 2 / (smoothness + strong_convexity).  The
    guarantees assume every data row (y, z) lies in the radius_x ball;
    projection keeps iterates in the radius_theta ball.
    """

    lam: float
    step_exponent: float
    radius_x: float
    radius_theta: float

    @property
    def strong_convexity(self) -> float:
        return self.lam

    @property
    def smoothness(self) -> float:
        return self.radius_x**2 + self.lam

    @property
    def lipschitz(self) -> float:
        return self.radius_x**2 * (1 + self.radius_theta) + self.lam * self.radius_theta

    def validate(self) -> "SgdConfig":
        if not 0 < self.step_exponent < 1:
            raise DomainError(f"step exponent must lie in (0, 1), got {self.step_exponent}")
        if not self.lam >= 0:
            raise DomainError(f"need lam >= 0, got {self.lam}")
        for name in ("radius_x", "radius_theta"):
            if not getattr(self, name) > 0:
                raise DomainError(f"need {name} > 0, got {getattr(self, name)}")
        return self

    @classmethod
    def for_ridge(cls, lam, step_exponent, radius_x, radius_theta):
        return cls(lam, step_exponent, radius_x, radius_theta).validate()


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (K, d) array, bitwise equal to
    ``np.linalg.norm(v[k])`` for every k.

    The stacked matmul reduces each row as ``v[k] @ v[k]`` does, so the
    squares are bitwise those of K separate 1-d dots; ``einsum`` and
    ``(v * v).sum(1)`` associate the sum differently.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def max_row_norm(v) -> float:
    """The largest Euclidean norm among the rows of ``v`` (over its last
    axis); 0.0 when it has no rows, NaN when a row holds a NaN.

    One elementwise ``einsum`` pass sums the squares, several times
    faster than ``row_norms``' one BLAS dot per row; the two may differ
    in the last bits.
    """
    v = np.asarray(v, dtype=np.float64)
    return float(np.sqrt(np.max(np.einsum("...i,...i->...", v, v), initial=0.0)))


def _indices(values, what: str) -> np.ndarray:
    """``values`` as an intp array; a float or bool entry is refused, not
    truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError(f"{what} must be integers, got {arr.dtype} values")
    return arr.astype(np.intp)


def _row_index(s) -> int:
    """A row index as an int; a float or a bool is refused, not truncated."""
    if isinstance(s, (bool, np.bool_)) or not isinstance(s, (int, np.integer)):
        raise DomainError(f"row indices must be integers, got {s!r}")
    return int(s)


def sgd_trajectories(features, response, lengths, config: SgdConfig, trial, replace) -> np.ndarray:
    """Step K single-pass projected SGD trajectories together from zero.

    ``features`` (N, d) and ``response`` (N,) hold the rows of T datasets
    end to end; dataset j has ``lengths[j]`` rows.  Trajectory k reads the
    rows of dataset ``trial[k]`` in ascending order, with step size
    t^{-a} / smoothness at step t = 1..lengths[trial[k]], except that at
    each row index s in the dict ``replace[k]`` it reads the row
    ``replace[k][s] = (z, y)`` instead.  Lengths, trial indices and row
    indices must be integers: a float or a bool is refused, not truncated.

    The kernel skips only work that provably changes no bit.

    Late starts.  Up to its first replaced row s, a trajectory reads its
    dataset's own rows, as does every trajectory of that dataset whose
    first replaced row is not earlier.  So per dataset the lead, the
    trajectory whose first replaced row is latest (none counts as latest;
    a tie goes to the first in ``trial``), runs from the first row, and
    every other trajectory enters at its own s as a copy of the lead's
    iterate there.  The live set changes only at these entries and after
    each dataset's last row, on a schedule fixed before the loop.
    Between two changes the live iterates are one (live, d) array, and
    their rows are gathered by one ``take`` per block of at most
    ``_BLOCK_ELEMS`` elements, laid out (steps, live, 1, d); the block's
    replaced rows are written into that copy, so no dataset is copied.
    Each step computes into buffers allocated once.

    Certified projection skip.  A float ``bound`` stays at or above every
    live iterate's norm.  Let zmax and ymax be the largest row norm and
    the largest |y| among the rows of the call, replacements included.
    A step of size alpha <= 1 / smoothness <= 1 / lam takes an iterate of
    norm at most B to norm at most (1 - alpha lam) B + alpha (zmax B +
    ymax) zmax, and the bound takes that step with a relative and an
    absolute slack of (d + 16) 2^-51 for rounding.  While it lies within
    the radius less that slack, so does every computed iterate norm, and
    each projection factor min(1, radius / norm) would be exactly 1.0
    (sqrt is correctly rounded and monotone), so the norm check and the
    projection are skipped.  Otherwise the exact check runs as in a lone
    pass, and the bound restarts from the largest measured norm, or from
    the radius after a projection.  A NaN or inf in the rows or the
    iterates makes the bound fail its test, so such steps take the exact
    check.  Every row's arithmetic is that of a lone pass, so the (K, d)
    final iterates, in the order of ``trial``, are bitwise those of
    separate passes over the replaced data.
    """
    config.validate()
    Z = np.asarray(features, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    lengths = _indices(lengths, "dataset lengths")
    if Z.ndim != 2 or y.shape != Z.shape[:1]:
        raise DomainError(f"need (N, d) features and (N,) response, got {Z.shape}, {y.shape}")
    if lengths.ndim != 1 or np.any(lengths < 0) or lengths.sum() != Z.shape[0]:
        raise DomainError(
            f"need nonnegative dataset lengths that sum to the {Z.shape[0]} rows, got {lengths}"
        )
    d = Z.shape[1]
    trial = _indices(trial, "trial indices")
    if trial.ndim != 1 or trial.size != len(replace):
        raise DomainError("need one trial index and one replacement dict per trajectory")
    if trial.size and not (0 <= trial.min() and trial.max() < lengths.size):
        raise DomainError(f"trial indices must lie in [0, {lengths.size})")
    K = trial.size
    n_of = lengths[trial]
    first_row = n_of.copy()  # each trajectory's first replaced row, n if none
    swap_s, swap_k, swap_z, swap_y = [], [], [], []  # row index, trajectory, replacement row
    for k, rows in enumerate(replace):
        for s, (z_new, y_new) in rows.items():
            s = _row_index(s)
            if not 0 <= s < n_of[k]:
                raise DomainError(f"replaced row {s} outside [0, {n_of[k]})")
            z_new = np.asarray(z_new, dtype=np.float64)
            if z_new.shape != (d,):
                raise DomainError("replacement feature row has the wrong dimension")
            first_row[k] = min(first_row[k], s)
            swap_s.append(s)
            swap_k.append(k)
            swap_z.append(z_new)
            swap_y.append(float(y_new))
    swap_s = np.asarray(swap_s, dtype=np.intp)
    by_row = np.argsort(swap_s, kind="stable")
    swap_s = swap_s[by_row]
    swap_k = np.asarray(swap_k, dtype=np.intp)[by_row]
    swap_z = np.asarray(swap_z, dtype=np.float64).reshape(by_row.size, d)[by_row]
    swap_y = np.asarray(swap_y, dtype=np.float64)[by_row]
    # per dataset, the trajectory whose first replaced row is latest leads
    by_lead = np.lexsort((-first_row, trial))
    heads = by_lead[np.unique(trial[by_lead], return_index=True)[1]]
    lead_of = np.empty(lengths.size, dtype=np.intp)
    lead_of[trial[heads]] = heads
    lead = lead_of[trial]
    enter = np.where(lead == np.arange(K), 0, first_row)
    # a trajectory that enters after its last row is a copy of its lead's result
    copy = enter == n_of
    by_enter = np.flatnonzero(~copy)
    by_enter = by_enter[np.argsort(enter[by_enter], kind="stable")]
    by_exit = np.argsort(n_of, kind="stable")
    events = np.unique(np.concatenate([enter, n_of]))
    enter_at = np.searchsorted(enter[by_enter], events[:, None] + (0, 1)).tolist()
    exit_at = np.searchsorted(n_of[by_exit], events[:, None] + (0, 1)).tolist()
    offset = (np.cumsum(lengths) - lengths)[trial]  # each trajectory's first row in Z

    a = config.step_exponent
    beta = config.smoothness
    lam = config.lam
    radius = config.radius_theta
    slack = (d + 16) * 2.0**-51
    grow, limit = 1.0 + slack, radius * (1.0 - slack)
    # the largest row norm and |y| the call reads; np.max keeps a NaN
    zmax = float(np.max([max_row_norm(Z), max_row_norm(swap_z)])) * grow
    ymax = float(np.max([max_row_norm(y[:, None]), max_row_norm(swap_y[:, None])])) * grow
    zl, zy = zmax * zmax - lam, zmax * ymax
    bound = 0.0  # at or above every live iterate's norm

    out = np.zeros((K, d))
    theta = np.empty((0, d))
    live = np.empty(0, dtype=np.intp)  # the trajectory of each row of theta
    slot = np.empty(K, dtype=np.intp)  # the row of theta of each live trajectory
    dots = np.empty((K, 1, 1))  # z'theta, then z'theta - y, then ||theta||^2
    grad = np.empty((K, d))
    decay = np.empty_like(grad)  # lam * theta
    done = 0  # steps taken
    with np.errstate(divide="ignore"):  # a zero iterate gives radius / 0 = inf, then min 1
        for stop, (in_lo, in_hi), (out_lo, out_hi) in zip(events.tolist(), enter_at, exit_at):
            L = live.size
            th, g, h, r = theta, grad[:L], decay[:L], dots[:L]
            th_row, th_col, g_row, r_col = th[:, None, :], th[:, :, None], g[:, None, :], r[:, 0]
            r_flat = r[:, 0, 0]
            start = offset[live]
            block = max(1, _BLOCK_ELEMS // max(1, L * d))
            for first in range(done, stop, block):
                last = min(first + block, stop)
                at = (np.arange(first, last)[:, None] + start)[:, :, None]
                zb, yb = Z.take(at, axis=0), y.take(at)  # (steps, live, 1, d), (steps, live, 1)
                lo, hi = np.searchsorted(swap_s, (first, last)).tolist()
                if lo < hi:
                    hit = swap_s[lo:hi] - first, slot[swap_k[lo:hi]], 0
                    zb[hit], yb[hit] = swap_z[lo:hi], swap_y[lo:hi]
                # row_norms and the (y - z'theta) dots are written out here,
                # so a tracer wrapping public functions records no span per step
                for t, z, yt in zip(range(first + 1, last + 1), zb, yb):
                    step = t**-a / beta
                    np.matmul(z, th_col, out=r)
                    # z'theta - y is bitwise -(y - z'theta), but for the
                    # sign of a zero, which theta - step * (+-0) drops
                    np.subtract(r_col, yt, out=r_col)
                    np.multiply(r, z, out=g_row)
                    np.multiply(lam, th, out=h)
                    np.add(g, h, out=g)
                    np.multiply(step, g, out=g)
                    np.subtract(th, g, out=th)
                    bound = (bound * (grow + step * zl) + step * zy) * grow
                    if bound <= limit:
                        continue  # NaN and inf fail the test
                    np.matmul(th_row, th_col, out=r)
                    top = math.sqrt(np.maximum.reduce(r_flat))
                    if top <= radius:
                        bound = top * grow
                        continue  # every factor would be 1.0
                    np.sqrt(r, out=r)
                    np.divide(radius, r, out=r)
                    np.minimum(1.0, r, out=r)
                    np.multiply(th, r_col, out=th)
                    bound = radius * grow if top < math.inf else top
            done = stop
            if out_lo < out_hi and stop:
                # trajectories past their last row retire; a copy reads its lead
                gone = by_exit[out_lo:out_hi]
                out[gone] = theta[slot[np.where(copy[gone], lead[gone], gone)]]
                keep = n_of[live] > stop
                theta, live = theta[keep], live[keep]
                slot[live] = np.arange(live.size)
            if in_lo < in_hi:
                new = by_enter[in_lo:in_hi]
                # an entry at the first row starts from zero, like its lead
                src = theta[slot[lead[new]]] if stop else np.zeros((new.size, d))
                slot[new] = np.arange(live.size, live.size + new.size)
                theta, live = np.concatenate((theta, src)), np.concatenate((live, new))
    return out
