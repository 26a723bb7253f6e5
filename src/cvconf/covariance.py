"""Plug-in covariance of loss columns, aggregated across folds.

The estimate for each fold is the empirical covariance of that fold's
loss rows (two-pass centering, divisor fold size minus one), and the
global estimate is the plain average over folds.  Standardization to a
correlation matrix keeps the coordinates of positive variance;
duplicated candidates cost the Gaussian draws nothing, because
``gaussian_mc`` factors the correlation to its numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import DomainError, LossMatrix


class DegenerateFoldError(ValueError):
    """A fold holds fewer than two rows, so its covariance is undefined."""


class EmptyProblemError(ValueError):
    """No coordinate has positive variance."""


@dataclass(frozen=True)
class CovEstimate:
    """Fold-averaged covariance (sigma); ``lambda_diag`` is its diagonal."""

    sigma: np.ndarray

    @property
    def lambda_diag(self) -> np.ndarray:
        return np.diag(self.sigma)


def fold_covariance(lm: LossMatrix, v: int) -> np.ndarray:
    """Empirical covariance of fold v's loss rows."""
    if not 0 <= v < lm.plan.V:
        raise DomainError(f"fold index {v} outside [0, {lm.plan.V})")
    ix = lm.plan.index_sets[v]
    if len(ix) < 2:
        raise DegenerateFoldError(f"fold {v} holds {len(ix)} row(s); need at least 2")
    rows = lm.values[ix]
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / (len(ix) - 1)
    return (cov + cov.T) / 2


def aggregate_covariance(lm: LossMatrix) -> CovEstimate:
    """Average the fold covariances."""
    sigma = fold_covariance(lm, 0)
    for v in range(1, lm.plan.V):
        sigma = sigma + fold_covariance(lm, v)
    sigma = sigma / lm.plan.V
    return CovEstimate(sigma=sigma)


def variance_floor(lambda_diag: np.ndarray) -> float:
    """Relative floor below which a variance counts as degenerate."""
    return 1e-12 * max(float(np.max(lambda_diag)), 1.0)


def standardized_correlation(cov: CovEstimate):
    """Correlation matrix over coordinates of positive variance.

    Returns (corr, kept): corr is k x k over the kept coordinates with a
    unit diagonal and entries clipped to [-1, 1]; kept is an index array
    into the original ordering.
    """
    diag = np.asarray(cov.lambda_diag, dtype=np.float64)
    kept = np.flatnonzero(diag > 0.0)
    if kept.size == 0:
        raise EmptyProblemError("no coordinate has positive variance")
    sub = cov.sigma[np.ix_(kept, kept)]
    inv_scale = 1.0 / np.sqrt(diag[kept])
    corr = sub * inv_scale[:, None] * inv_scale[None, :]
    corr = np.clip((corr + corr.T) / 2, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr, kept
