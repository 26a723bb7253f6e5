"""Bands and model confidence sets for cross-validated risks.

Four inferential products share the machinery below: pointwise intervals
(one model at a time, no multiplicity control), a simultaneous band over
all candidates, the band-overlap confidence set, and the sharper set built
from per-candidate risk differences with one-sided calibration.  All of
them treat the loss-matrix column means as the point estimates and draw
critical values from the Gaussian machinery, so results are deterministic
functions of (data, alpha, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import (
    CovEstimate,
    EmptyProblemError,
    aggregate_covariance,
    standardized_correlation,
    variance_floor,
)
from .cv_engine import RiskVector, cv_risk
from .datamodel import DomainError, LossMatrix, _jsonable
from .gaussian_mc import DEFAULT_DRAWS, max_quantiles
from .simgen import derive_substream

__all__ = [
    "BandSet",
    "ModelConfidenceSet",
    "simultaneous_band",
    "pointwise_band",
    "naive_set",
    "cvc_set",
    "check_coverage",
]

# How a screened set's candidate got its critical value (see ModelConfidenceSet).
DECISIONS = frozenset({"low", "high", "drawn", "injected", "none"})


@dataclass(frozen=True)
class BandSet:
    """Per-model confidence intervals sharing one critical value.

    ``kind`` records whether ``z_used`` was calibrated for the maximum over
    models ("simultaneous") or for a single coordinate ("pointwise").
    Intervals are centered at the cross-validated risks in ``center``.
    """

    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    alpha: float
    z_used: float
    kind: str
    n: int

    def __post_init__(self):
        for name in ("lower", "upper", "center"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.lower.shape == self.upper.shape == self.center.shape):
            raise DomainError("band arrays must share one shape")
        if self.kind not in ("simultaneous", "pointwise"):
            raise DomainError(f"unknown band kind {self.kind!r}")
        if np.any(self.lower > self.upper):
            raise DomainError("band has a lower endpoint above its upper endpoint")

    @property
    def p(self) -> int:
        return self.center.shape[0]

    @property
    def half_width(self) -> np.ndarray:
        return (self.upper - self.lower) / 2.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "n": self.n,
            "z_used": _jsonable(float(self.z_used)),
            "center": _jsonable(self.center),
            "lower": _jsonable(self.lower),
            "upper": _jsonable(self.upper),
        }


@dataclass(frozen=True)
class ModelConfidenceSet:
    """Index set of candidate models that survive a screening rule.

    For the band-overlap rule ("naive") the per-candidate statistics are
    the interval endpoints and the overlap threshold.  For the
    difference-based rule ("cvc") they are each candidate's worst
    standardized gap ``max_stat``, its one-sided critical value
    ``z_alpha`` and, in ``decided``, how that value was found:

    - "low": ``max_stat`` is at most Phi^-1(1 - alpha), the lower bound
      on the exact critical value, and ``z_alpha`` holds that bound;
    - "high": ``max_stat`` exceeds Phi^-1(1 - alpha / k), the union
      bound over the candidate's k positive comparisons, and ``z_alpha``
      holds that bound;
    - "drawn": ``z_alpha`` is a Monte Carlo quantile;
    - "injected": ``z_alpha`` was supplied by the caller;
    - "none": every comparison was degenerate, and ``z_alpha`` and
      ``max_stat`` are NaN (a single candidate has no comparison; its
      set leaves both None).

    In every case membership (apart from the sign rule on degenerate
    comparisons) is ``max_stat <= z_alpha``.
    """

    members: tuple[int, ...]
    method: str
    alpha: float
    p: int
    z_alpha: np.ndarray | None = None
    max_stat: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    threshold: float | None = None
    seed: int | None = None
    decided: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(r) for r in self.members))
        if self.method not in ("naive", "cvc"):
            raise DomainError(f"unknown set method {self.method!r}")
        if any(not 0 <= r < self.p for r in self.members):
            raise DomainError("set members must index the candidate list")
        if self.decided is not None:
            object.__setattr__(self, "decided", tuple(str(d) for d in self.decided))
            if len(self.decided) != self.p or not set(self.decided) <= DECISIONS:
                raise DomainError(f"decided needs one of {sorted(DECISIONS)} per candidate")

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "alpha": self.alpha,
            "p": self.p,
            "members": list(self.members),
            "seed": self.seed,
        }
        for name in ("z_alpha", "decided", "max_stat", "lower", "upper"):
            val = getattr(self, name)
            if val is not None:
                out[name] = _jsonable(val)
        if self.threshold is not None:
            out["threshold"] = _jsonable(float(self.threshold))
        return out


def _abs_max(Y: np.ndarray) -> np.ndarray:
    return np.abs(Y).max(axis=1)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def simultaneous_band(
    risks: RiskVector,
    cov: CovEstimate,
    alpha: float,
    *,
    z_hat: float | None = None,
    seed: int | None = None,
    draws: int = DEFAULT_DRAWS,
) -> BandSet:
    """Band risk_r +/- sqrt(sigma_rr) * z / sqrt(n) with a shared critical value.

    When ``z_hat`` is not injected, z is the upper-alpha quantile of the
    max absolute coordinate of a centered Gaussian vector with the
    standardized correlation of ``cov``; coordinates whose variance falls
    below the floor are excluded from the max and get zero-width
    intervals.  If every coordinate is degenerate the band is a point
    band regardless of z.
    """
    _check_alpha(alpha)
    center = np.asarray(risks.values, dtype=np.float64)
    diag = np.clip(np.asarray(cov.lambda_diag, dtype=np.float64), 0.0, None)
    if center.shape[0] != diag.shape[0]:
        raise DomainError("risk vector and covariance diagonal disagree on p")
    if risks.n < 2:
        raise DomainError("need at least two observations")
    scale = np.sqrt(diag)
    if z_hat is None:
        if seed is None:
            raise DomainError("provide either z_hat or a seed for the quantile draw")
        floor = variance_floor(diag)
        try:
            corr, kept, _ = standardized_correlation(cov, floor=floor)
        except EmptyProblemError:
            half = np.zeros_like(center)
            return BandSet(center - half, center + half, center, alpha, 0.0, "simultaneous", risks.n)
        rng = derive_substream(seed, "simultaneous-band")
        z = float(max_quantiles(corr, _abs_max, alpha, draws, rng)[0])
        half = np.zeros_like(center)
        half[kept] = scale[kept] * (z / np.sqrt(risks.n))
    else:
        z = float(z_hat)
        if z < 0.0:
            raise DomainError("injected critical value must be nonnegative")
        half = scale * (z / np.sqrt(risks.n))
    return BandSet(center - half, center + half, center, alpha, z, "simultaneous", risks.n)


def pointwise_band(risks: RiskVector, cov: CovEstimate, alpha: float) -> BandSet:
    """Unadjusted per-model intervals with the two-sided normal multiplier."""
    _check_alpha(alpha)
    center = np.asarray(risks.values, dtype=np.float64)
    diag = np.clip(np.asarray(cov.lambda_diag, dtype=np.float64), 0.0, None)
    if center.shape[0] != diag.shape[0]:
        raise DomainError("risk vector and covariance diagonal disagree on p")
    if risks.n < 2:
        raise DomainError("need at least two observations")
    z = float(ndtri(1.0 - alpha / 2.0))
    half = np.sqrt(diag) * (z / np.sqrt(risks.n))
    return BandSet(center - half, center + half, center, alpha, z, "pointwise", risks.n)


def naive_set(band: BandSet) -> ModelConfidenceSet:
    """Models whose lower endpoint overlaps the smallest upper endpoint."""
    if band.kind != "simultaneous":
        raise DomainError("band-overlap screening needs a simultaneous band")
    threshold = float(np.min(band.upper))
    members = tuple(int(r) for r in np.flatnonzero(band.lower <= threshold))
    return ModelConfidenceSet(
        members=members,
        method="naive",
        alpha=band.alpha,
        p=band.p,
        lower=band.lower,
        upper=band.upper,
        threshold=threshold,
    )


def _resolve_injection(z_inject, p: int) -> np.ndarray:
    z = np.asarray(z_inject, dtype=np.float64)
    if z.ndim == 0:
        z = np.full(p, float(z))
    if z.shape != (p,):
        raise DomainError(f"injected quantiles must be scalar or length {p}")
    if np.any(np.isnan(z)):
        raise DomainError("injected quantiles must not be NaN")
    return z


def cvc_set(
    lm: LossMatrix,
    alpha: float,
    *,
    draws: int = DEFAULT_DRAWS,
    seed: int | None = None,
    z_inject=None,
) -> ModelConfidenceSet:
    """Difference-calibrated confidence set of near-optimal models.

    Candidate r stays in the set when its worst standardized risk gap
    sqrt(n) (risk_r - risk_s) / sd(diff_rs) over positive-variance
    comparisons s is at most the candidate's one-sided critical value,
    and its raw gap is nonpositive against every zero-variance
    comparison.  Every difference variance follows from the fold
    covariance: var(diff_rs) = sigma_rr + sigma_ss - 2 sigma_rs.

    r's exact critical value is the upper-alpha quantile of the max of
    its k positive comparisons, each marginally N(0, 1), so it lies in
    [Phi^-1(1 - alpha), Phi^-1(1 - alpha / k)]: one coordinate gives the
    lower end and the union bound the upper.  A gap at most the lower
    end keeps r and a gap above the upper end drops it, with that bound
    as r's ``z_alpha``; at k = 1 the two ends meet.  Only the remaining
    candidates are drawn: one draw of X ~ N(0, sigma) gives each the
    quantile of max_s (X_r - X_s) / sd(diff_rs), so a call draws
    ``draws x p`` normals when some candidate is undecided and none
    otherwise.  ``decided`` records which case applied to each candidate.
    """
    _check_alpha(alpha)
    n, p = lm.n, lm.p
    if n < 2 * lm.plan.V:
        raise DomainError(f"need n >= 2V for within-fold covariances, got n={n}, V={lm.plan.V}")
    if p == 1:
        return ModelConfidenceSet((0,), "cvc", alpha, 1, seed=seed, decided=("none",))
    if z_inject is None and seed is None:
        raise DomainError("provide either a seed or injected quantiles")
    injected = None if z_inject is None else _resolve_injection(z_inject, p)
    cov = aggregate_covariance(lm)
    positive, sd = _comparisons(cov)
    risks = cv_risk(lm).values
    gaps = risks[:, None] - risks[None, :]
    rows = np.flatnonzero(positive.any(axis=1))
    max_stat = np.full(p, np.nan)
    max_stat[rows] = np.where(positive, np.sqrt(n) * gaps / sd, -np.inf)[rows].max(axis=1)
    z_alpha = np.full(p, np.nan)
    decided = np.full(p, "none", dtype=object)
    if injected is not None:
        z_alpha[rows] = injected[rows]
        decided[rows] = "injected"
    elif rows.size:
        lo = ndtri(1.0 - alpha)
        hi = ndtri(1.0 - alpha / positive[rows].sum(axis=1))
        low, high = max_stat[rows] <= lo, max_stat[rows] > hi
        z_alpha[rows] = np.where(low, lo, hi)
        decided[rows] = np.where(low, "low", np.where(high, "high", "drawn"))
        drawn = rows[~(low | high)]
        if drawn.size:
            z_alpha[drawn] = _pairwise_quantiles(cov, positive, sd, drawn, alpha, draws, seed)
    # the sign rule on degenerate comparisons, then the gap rule where any is positive
    ok = np.all(positive | (gaps <= 0.0), axis=1)
    ok[rows] &= max_stat[rows] <= z_alpha[rows]
    return ModelConfidenceSet(
        members=tuple(np.flatnonzero(ok)),
        method="cvc",
        alpha=alpha,
        p=p,
        z_alpha=z_alpha,
        max_stat=max_stat,
        seed=seed,
        decided=tuple(decided),
    )


def _comparisons(cov: CovEstimate):
    """Which comparisons (r, s) have positive variance, and their sds.

    var(diff_rs) = sigma_rr + sigma_ss - 2 sigma_rs clears the floor of
    candidate r's row or counts as degenerate; degenerate entries get a
    placeholder sd of 1.
    """
    diag = cov.lambda_diag
    dvar = diag[:, None] + diag[None, :] - 2.0 * cov.sigma
    floors = np.array([variance_floor(row) for row in dvar])
    positive = dvar > floors[:, None]  # the diagonal is 0, never positive
    return positive, np.sqrt(np.where(positive, dvar, 1.0))


def _pairwise_quantiles(cov, positive, sd, rows, alpha, draws, seed) -> np.ndarray:
    """Critical values of the candidates ``rows`` from one draw of N(0, sigma).

    Candidate ``r = rows[i]`` gets the upper-alpha quantile of the max of
    (X_r - X_s) / sd[r, s] over the comparisons s in ``positive[r]``, of
    which it needs at least one.  X is sqrt(sigma_rr) * Y_r with
    Y ~ N(0, corr) on every coordinate of nonzero variance, and 0 on the
    others.  Each comparison is a fixed linear map of Y, so the
    comparisons of all rows are the columns of one product ``Y @ W``,
    grouped by candidate, and a block's statistic is the max over each
    group.  No variance floor applies here: a comparison can
    clear its own floor while both of its coordinates sit below the floor
    of sigma, and it still needs its law.  The draws do not depend on
    ``rows``, so a candidate's value is the same whichever other
    candidates are drawn with it.
    """
    corr, kept, _ = standardized_correlation(cov, floor=0.0)
    # lift[:, j] maps Y to X_j: sqrt(sigma_jj) on j's kept coordinate, or 0
    lift = np.zeros((kept.size, cov.sigma.shape[0]))
    lift[np.arange(kept.size), kept] = np.sqrt(cov.lambda_diag[kept])
    compared = positive[rows]
    i, s = np.nonzero(compared)  # row-major, so grouped by candidate
    r = rows[i]
    W = (lift[:, r] - lift[:, s]) / sd[r, s]
    counts = compared.sum(axis=1)
    starts = np.cumsum(counts) - counts

    def statistic(Y):
        return np.maximum.reduceat(Y @ W, starts, axis=1)

    rng = derive_substream(seed, "cvc")
    return max_quantiles(corr, statistic, alpha, draws, rng, width=W.shape[1])


def check_coverage(obj, target) -> bool:
    """Did the band cover the target vector, or the set catch the best index?

    For a band, ``target`` is the vector of target risks and coverage
    means every coordinate lies inside its interval.  For a set,
    ``target`` is either the best index itself or a vector whose argmin
    (smallest index on ties) must be a member.
    """
    if isinstance(obj, BandSet):
        t = np.asarray(target, dtype=np.float64)
        if t.shape != (obj.p,):
            raise DomainError(f"target must have shape ({obj.p},), got {t.shape}")
        return bool(np.all((obj.lower <= t) & (t <= obj.upper)))
    if isinstance(obj, ModelConfidenceSet):
        if np.isscalar(target) or isinstance(target, (int, np.integer)):
            r_star = int(target)
        else:
            t = np.asarray(target, dtype=np.float64)
            if t.shape != (obj.p,):
                raise DomainError(f"target must have shape ({obj.p},), got {t.shape}")
            r_star = int(np.argmin(t))
        if not 0 <= r_star < obj.p:
            raise DomainError(f"target index {r_star} outside [0, {obj.p})")
        return r_star in obj.members
    raise DomainError(f"cannot check coverage for {type(obj).__name__}")
