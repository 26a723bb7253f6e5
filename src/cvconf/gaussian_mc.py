"""Monte Carlo quantiles of statistics of one correlated Gaussian sample.

Critical values for the simultaneous bands and for the one-sided model
comparisons are upper quantiles of maxima of ``Y ~ N(0, C)``, where ``C``
is an estimated correlation matrix.  None of them has a usable closed
form once coordinates are dependent, so they are computed by simulation
from a caller-supplied stream.  One call draws one sample of ``Y`` and
reads every column of a caller's statistic from it, so all critical
values of a problem share the same draws.  Determinism is part of the
contract: the stream fixes the draws, the draws fix the quantiles, and
the block size of the simulation never changes the result.
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import DomainError

__all__ = [
    "BLOCK_ELEMS",
    "DEFAULT_DRAWS",
    "MIN_DRAWS",
    "max_quantiles",
]

DEFAULT_DRAWS = 100_000

# Fewest draws a quantile may rest on.
MIN_DRAWS = 1000

# Elements of the largest array one simulation block may hold (4 MiB of
# float64): larger blocks raise peak memory and do not run faster.
BLOCK_ELEMS = 1 << 19

_SYM_TOL = 1e-8


def conservative_order_index(draws: int, alpha: float) -> int:
    """0-based index of the ceil(draws * (1 - alpha))-th smallest value.

    The small subtraction guards against float representations of
    ``draws * (1 - alpha)`` landing epsilon above an integer; ties resolve
    to the conservative (larger) order statistic.
    """
    k = math.ceil(draws * (1.0 - alpha) - 1e-8)
    k = min(max(k, 1), draws)
    return k - 1


def _check_inputs(corr, alpha: float, draws: int) -> np.ndarray:
    C = np.asarray(corr, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
        raise DomainError(f"correlation must be nonempty square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise DomainError("correlation entries must be finite")
    if float(np.max(np.abs(C - C.T))) > _SYM_TOL:
        raise DomainError("correlation must be symmetric")
    if float(np.max(np.abs(np.diag(C) - 1.0))) > _SYM_TOL:
        raise DomainError("correlation must have unit diagonal")
    if float(np.max(np.abs(C))) > 1.0 + _SYM_TOL:
        raise DomainError("correlation entries must lie in [-1, 1]")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if draws < MIN_DRAWS:
        raise DomainError(f"need at least {MIN_DRAWS} draws, got {draws}")
    return C


def max_quantiles(corr, statistic, alpha: float, draws: int, rng, *, width=None) -> np.ndarray:
    """Upper alpha quantile of every column of ``statistic(Y)``, ``Y ~ N(0, corr)``.

    ``corr`` is factored once by its symmetric eigen square root with
    eigenvalues clipped at zero, so rank-deficient inputs (duplicated
    coordinates) need no jitter; an eigenvalue below ``-tol * max|corr|``
    marks a genuinely indefinite input and raises.  ``statistic`` maps a
    ``(b, q)`` block of draws to a ``(b,)`` or ``(b, m)`` array.  Blocks
    take standard normals from ``rng`` in row order and hold
    ``BLOCK_ELEMS // width`` rows, where ``width`` is the number of
    elements the statistic allocates per draw (default ``q``); it affects
    memory only, never the result.  Returns the conservative order
    statistic of each of the ``m`` columns.
    """
    C = _check_inputs(corr, alpha, draws)
    w, vecs = np.linalg.eigh(C)
    if float(w[0]) < -_SYM_TOL * float(np.max(np.abs(C))):
        raise DomainError(f"correlation is not positive semidefinite (eigenvalue {w[0]:.3g})")
    root = (vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.T
    q = root.shape[0]
    rows = max(1, BLOCK_ELEMS // (width or q))
    stats = None
    done = 0
    while done < draws:
        b = min(rows, draws - done)
        out = np.asarray(statistic(rng.standard_normal((b, q)) @ root)).reshape(b, -1)
        if stats is None:
            stats = np.empty((draws, out.shape[1]))
        stats[done : done + b] = out
        done += b
    k = conservative_order_index(draws, alpha)
    stats.partition(k, axis=0)
    return stats[k].copy()
