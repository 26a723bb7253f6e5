"""Bands and model confidence sets for cross-validated risks.

Four inferential products share the machinery below: pointwise intervals
(one model at a time, no multiplicity control), a simultaneous band over
all candidates, the band-overlap confidence set, and the sharper set built
from per-candidate risk differences with one-sided calibration.  All of
them treat the loss-matrix column means as the point estimates and draw
critical values from the Gaussian machinery, so results are deterministic
functions of (data, alpha, seed).  ``critical_values`` draws the band's
and the screened set's critical values at every alpha from one sample;
``simultaneous_band`` and ``cvc_set`` read theirs from its result, or
take an injected value instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .covariance import (
    CovEstimate,
    aggregate_covariance,
    standardized_correlation,
    variance_floor,
)
from .cv_engine import RiskVector, cv_risk
from .datamodel import DomainError, LossMatrix, _integer, _jsonable
from .gaussian_mc import max_quantiles
from .simgen import derive_substream

_normal_quantile = NormalDist().inv_cdf

__all__ = [
    "BandSet",
    "CriticalValues",
    "ModelConfidenceSet",
    "critical_values",
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
    comparisons) is ``max_stat <= z_alpha``.  ``seed`` is that of the
    draw the critical values came from, None when they were injected.
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def _check_source(injected, critical: CriticalValues | None, p: int, name: str) -> None:
    """Refuse both or neither of an injected value and ``critical``, and
    critical values drawn for another number of candidates."""
    if (injected is None) == (critical is None):
        raise DomainError(f"provide exactly one of {name} or critical values")
    if critical is not None and critical.p != p:
        raise DomainError(
            f"critical values were drawn for {critical.p} candidates, but the problem has {p}"
        )


def simultaneous_band(
    risks: RiskVector,
    cov: CovEstimate,
    alpha: float,
    *,
    z_hat: float | None = None,
    critical: CriticalValues | None = None,
) -> BandSet:
    """Band risk_r +/- sqrt(sigma_rr) * z / sqrt(n) with a shared critical value.

    z is either injected as ``z_hat`` or read from ``critical`` (see
    ``critical_values``), where it is the upper-alpha quantile of the max
    absolute coordinate of a centered Gaussian vector with the
    standardized correlation of ``cov``; exactly one of the two is given.
    Coordinates whose variance falls below the floor are excluded from
    the max and get zero-width intervals.  If every coordinate is
    degenerate the band is a point band regardless of z.
    """
    _check_alpha(alpha)
    center = np.asarray(risks.values, dtype=np.float64)
    diag = np.clip(np.asarray(cov.lambda_diag, dtype=np.float64), 0.0, None)
    if center.shape[0] != diag.shape[0]:
        raise DomainError("risk vector and covariance diagonal disagree on p")
    if risks.n < 2:
        raise DomainError("need at least two observations")
    _check_source(z_hat, critical, center.shape[0], "z_hat")
    scale = np.sqrt(diag)
    if critical is not None:
        z = float(critical.band_z[critical.index(alpha, "band_z")])
    else:
        z = float(z_hat)
        if not z >= 0.0:  # a NaN is refused too
            raise DomainError("injected critical value must be nonnegative")
    kept = _band_coordinates(diag)
    half = np.zeros_like(center)
    half[kept] = scale[kept] * (z / np.sqrt(risks.n))
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
    z = _normal_quantile(1.0 - alpha / 2.0)
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
    z_inject=None,
    critical: CriticalValues | None = None,
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
    candidates are drawn, all from one sample, by ``critical_values``,
    whose result is passed as ``critical``.  Exactly one of ``critical``
    and ``z_inject`` (one value for every candidate, or one each) is
    given.  ``decided`` records which case applied to each candidate.
    """
    _check_alpha(alpha)
    n, p = lm.n, lm.p
    _check_source(z_inject, critical, p, "z_inject")
    seed = None if critical is None else critical.seed
    if n < 2 * lm.plan.V:
        raise DomainError(f"need n >= 2V for within-fold covariances, got n={n}, V={lm.plan.V}")
    if p == 1:
        return ModelConfidenceSet((0,), "cvc", alpha, 1, seed=seed, decided=("none",))
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    positive, _, gaps, rows, max_stat = _screen(risks, cov)
    if critical is None:
        injected = _resolve_injection(z_inject, p)
        z_alpha = np.full(p, np.nan)
        decided = np.full(p, "none", dtype=object)
        z_alpha[rows] = injected[rows]
        decided[rows] = "injected"
    else:
        i = critical.index(alpha, "z_alpha")
        z_alpha, decided = critical.z_alpha[i].copy(), critical.decided[i]
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


def _screen(risks: RiskVector, cov: CovEstimate):
    """The screening statistics: (positive, sd, gaps, rows, max_stat).

    ``rows`` are the candidates with at least one positive comparison and
    ``max_stat`` their worst standardized gap (NaN for the others).
    """
    positive, sd = _comparisons(cov)
    values = np.asarray(risks.values, dtype=np.float64)
    gaps = values[:, None] - values[None, :]
    rows = np.flatnonzero(positive.any(axis=1))
    max_stat = np.full(values.shape[0], np.nan)
    max_stat[rows] = np.where(positive, np.sqrt(risks.n) * gaps / sd, -np.inf)[rows].max(axis=1)
    return positive, sd, gaps, rows, max_stat


def _band_coordinates(diag: np.ndarray) -> np.ndarray:
    """Coordinates the band's max reads: variance above the floor."""
    return np.flatnonzero(diag > variance_floor(diag))


def _comparison_columns(cov, kept, positive, sd, rows):
    """The comparisons of candidates ``rows`` as columns of a map of Y.

    Y ~ N(0, corr) lives on the ``kept`` coordinates, and X_j is
    sqrt(sigma_jj) Y_j there and 0 elsewhere.  Column (r, s) maps Y to
    (X_r - X_s) / sd[r, s], for each s in ``positive[r]``; columns are
    grouped by candidate in the order of ``rows``.  Returns the
    ``(kept.size, m)`` map and each candidate's column count.
    """
    # lift[:, j] maps Y to X_j
    lift = np.zeros((kept.size, positive.shape[0]))
    lift[np.arange(kept.size), kept] = np.sqrt(cov.lambda_diag[kept])
    compared = positive[rows]
    i, s = np.nonzero(compared)  # row-major, so grouped by candidate
    r = rows[i]
    return (lift[:, r] - lift[:, s]) / sd[r, s], compared.sum(axis=1)


@dataclass(frozen=True)
class CriticalValues:
    """Every critical value of one problem at each of ``alphas``, from one draw.

    Row i of each array belongs to ``alphas[i]``, and ``p`` is the
    number of candidates they were drawn for.  ``band_z`` holds the
    simultaneous band's z (0 when every coordinate is degenerate), and
    ``z_alpha`` and ``decided`` the screened set's per-candidate values
    and labels as in ``ModelConfidenceSet``; each is None when it was not
    asked for.  ``rank`` is the number of rows of the correlation's
    factor, so the draw took ``draws * rank`` normals; it is 0 when
    nothing needed drawing.
    """

    alphas: tuple[float, ...]
    p: int
    band_z: np.ndarray | None
    z_alpha: np.ndarray | None
    decided: tuple[tuple[str, ...], ...] | None
    draws: int
    rank: int
    seed: int

    def index(self, alpha: float, part: str) -> int:
        """Row of ``alpha``; raises when ``part`` was not drawn at it."""
        if getattr(self, part) is None or float(alpha) not in self.alphas:
            raise DomainError(f"no {part} critical values were drawn at alpha {alpha}")
        return self.alphas.index(float(alpha))


def critical_values(
    risks: RiskVector,
    cov: CovEstimate,
    alphas,
    *,
    seed: int,
    draws: int,
    bands: bool = True,
    sets: bool = True,
) -> CriticalValues:
    """The band's and the screened set's critical values at every alpha, from one draw.

    This is the one source of drawn critical values: ``simultaneous_band``
    and ``cvc_set`` read theirs from its result.  At least one of
    ``bands`` and ``sets`` is asked for.

    With ``bands``, the band's z is the quantile of max |Y_j| over its
    floor-kept coordinates, Y ~ N(0, corr) with corr the standardized
    correlation of ``cov`` over its coordinates of nonzero variance.
    With ``sets``, each candidate is first decided by the exact normal
    bounds of ``cvc_set`` at each alpha; a candidate left undecided at
    any alpha is drawn, and keeps its bound and label at the alphas where
    it was decided.  Candidate r's drawn value is the quantile of
    max_s (X_r - X_s) / sd(diff_rs) over its positive comparisons s,
    X_j = sqrt(sigma_jj) Y_j.  No variance floor applies to that: a
    comparison can clear its own floor while both of its coordinates sit
    below the floor of sigma, and it still needs its law.

    Every drawn value is read from one linear map of Y: the band's
    coordinates and each comparison (X_r - X_s) / sd are its columns,
    the comparisons grouped by candidate, and one ``max_quantiles`` call
    on the stream ``(seed, "critical-values")`` reads all of them at
    every alpha.  A block's statistic takes |Y| of the band's columns in
    place and reads the band and every candidate with one
    ``np.maximum.reduceat``.  The draws depend only on ``cov``, ``seed``
    and ``draws``, so a value is the same, up to rounding in the
    product, whichever other values are drawn with it.  Nothing is drawn
    when no column is needed.
    """
    draws = _integer(draws, "draws")
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise DomainError("need at least one alpha")
    if not (bands or sets):
        raise DomainError("ask for the band's critical values, the set's or both")
    for alpha in alphas:
        _check_alpha(alpha)
    p = risks.p
    diag = np.clip(np.asarray(cov.lambda_diag, dtype=np.float64), 0.0, None)
    if diag.shape[0] != p:
        raise DomainError("risk vector and covariance diagonal disagree on p")
    band = _band_coordinates(diag) if bands else np.empty(0, dtype=np.intp)
    band_z = np.zeros(len(alphas)) if bands else None
    z_alpha = decided = None
    drawn = np.empty(0, dtype=np.intp)
    if sets:
        z_alpha = np.full((len(alphas), p), np.nan)
        decided = np.full((len(alphas), p), "none", dtype=object)
        positive, sd, _, rows, max_stat = _screen(risks, cov)
        k = positive[rows].sum(axis=1)
        for i, alpha in enumerate(alphas):
            lo = _normal_quantile(1.0 - alpha)
            hi = np.array([_normal_quantile(q) for q in (1.0 - alpha / k).tolist()])
            low, high = max_stat[rows] <= lo, max_stat[rows] > hi
            z_alpha[i, rows] = np.where(low, lo, hi)
            decided[i, rows] = np.where(low, "low", np.where(high, "high", "drawn"))
        drawn = np.flatnonzero((decided == "drawn").any(axis=0))
    rank = 0
    if band.size or drawn.size:
        corr, kept = standardized_correlation(cov)
        select = np.zeros((kept.size, band.size))
        select[np.searchsorted(kept, band), np.arange(band.size)] = 1.0
        nb = band.size
        # one segment of columns per statistic column: the band's, if any,
        # then each drawn candidate's comparisons
        sizes = [nb] if nb else []
        linear = select
        if drawn.size:
            W, counts = _comparison_columns(cov, kept, positive, sd, drawn)
            linear = np.hstack([select, W])
            sizes += counts.tolist()
        starts = np.cumsum(sizes) - sizes

        def statistic(Y):
            if nb:
                np.abs(Y[:, :nb], out=Y[:, :nb])
            return np.maximum.reduceat(Y, starts, axis=1)

        rng = derive_substream(seed, "critical-values")
        q, rank = max_quantiles(corr, statistic, alphas, draws, rng, linear=linear)
        if nb:
            band_z = q[:, 0]
        if drawn.size:
            here = decided[:, drawn] == "drawn"
            z_alpha[:, drawn] = np.where(here, q[:, 1 if nb else 0 :], z_alpha[:, drawn])
    return CriticalValues(
        alphas=alphas,
        p=p,
        band_z=band_z,
        z_alpha=z_alpha,
        decided=None if decided is None else tuple(tuple(row) for row in decided),
        draws=draws,
        rank=int(rank),
        seed=seed,
    )


def check_coverage(obj, target) -> bool:
    """Did the band cover the target vector, or the set catch the best index?

    For a band, ``target`` is the vector of target risks and coverage
    means every coordinate lies inside its interval.  For a set,
    ``target`` is either the best index itself, an integer, or a vector
    whose argmin (smallest index on ties) must be a member.
    """
    if isinstance(obj, BandSet):
        t = np.asarray(target, dtype=np.float64)
        if t.shape != (obj.p,):
            raise DomainError(f"target must have shape ({obj.p},), got {t.shape}")
        return bool(np.all((obj.lower <= t) & (t <= obj.upper)))
    if isinstance(obj, ModelConfidenceSet):
        if np.isscalar(target):
            r_star = _integer(target, "target indices")
        else:
            t = np.asarray(target, dtype=np.float64)
            if t.shape != (obj.p,):
                raise DomainError(f"target must have shape ({obj.p},), got {t.shape}")
            r_star = int(np.argmin(t))
        if not 0 <= r_star < obj.p:
            raise DomainError(f"target index {r_star} outside [0, {obj.p})")
        return r_star in obj.members
    raise DomainError(f"cannot check coverage for {type(obj).__name__}")
