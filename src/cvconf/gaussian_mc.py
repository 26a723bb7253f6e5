"""Monte Carlo quantiles of statistics of one correlated Gaussian sample.

Critical values for the simultaneous bands and for the one-sided model
comparisons are upper quantiles of maxima of linear maps of
``Y ~ N(0, C)``, where ``C`` is an estimated correlation matrix.  None of
them has a usable closed form once coordinates are dependent, so they
are computed by simulation from a caller-supplied stream.  ``C`` is
factored as ``F'F`` with ``F`` of its numerical rank ``r`` rows, so a
draw costs ``r`` normals however many coordinates are collinear.  One
call draws one sample and reads every column of a caller's statistic
from it at every requested alpha, so all critical values of a problem
share the same draws.  Determinism is part of the contract: the stream
fixes the draws and the draws fix the quantiles.  The block size does
not change which normals are drawn, but it changes the shape of each
product Z @ (F @ A), so a quantile can move by rounding (4.4e-16 to
6.7e-16 was seen between block sizes); for fixed inputs ``BLOCK_ELEMS``
fixes the blocks and the result.

A call allocates its two buffers once and reuses them for every block,
and draws normals several whole blocks at a time.  Every numpy call
releases and retakes the interpreter lock, and replications run on
threads, so fewer and larger calls per block let them overlap.
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

# Elements of the largest array one simulation block may hold (512 KiB of
# float64).  Blocks this small stay in cache and run no slower than 4 MiB
# ones, and every pool worker holds one, so they keep peak memory down.
BLOCK_ELEMS = 1 << 16

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


def _check_inputs(corr, alphas: np.ndarray, draws: int) -> np.ndarray:
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
    if alphas.size == 0 or not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise DomainError(f"alpha must lie in (0, 1), got {alphas.tolist()}")
    if draws < MIN_DRAWS:
        raise DomainError(f"need at least {MIN_DRAWS} draws, got {draws}")
    return C


def _factor(C: np.ndarray) -> np.ndarray:
    """F of shape (r, q) with F'F = C, r the numerical rank of C.

    Eigenpairs with eigenvalue at most ``w_max * q * eps`` (numpy's
    ``matrix_rank`` tolerance) are dropped, so duplicated or collinear
    coordinates cost no draws.
    """
    w, vecs = np.linalg.eigh(C)
    if float(w[0]) < -_SYM_TOL * float(np.max(np.abs(C))):
        raise DomainError(f"correlation is not positive semidefinite (eigenvalue {w[0]:.3g})")
    keep = w > w[-1] * C.shape[0] * np.finfo(np.float64).eps
    return (vecs[:, keep] * np.sqrt(w[keep])).T


def max_quantiles(
    corr, statistic, alpha, draws: int, rng, *, linear=None, return_rank: bool = False
):
    """Upper alpha quantiles of every column of ``statistic(Y @ linear)``, ``Y ~ N(0, corr)``.

    ``corr`` (q x q) is factored once as F'F by its eigendecomposition,
    keeping the r eigenpairs above the numerical-rank tolerance; an
    eigenvalue below ``-tol * max|corr|`` marks a genuinely indefinite
    input and raises.  Each block takes a ``(b, r)`` array Z of standard
    normals from ``rng`` in row order and hands ``statistic`` the one
    product ``Z @ (F @ linear)``, a ``(b, m)`` array whose rows are
    draws of ``Y @ linear``; ``linear`` (q x m) defaults to the identity.
    ``statistic`` returns a ``(b,)`` or ``(b, k)`` array.  The product
    lives in a buffer that the next block reuses: ``statistic`` may
    overwrite its argument, or return it, but must not keep it.  A block
    holds ``BLOCK_ELEMS // max(r, m)`` rows, which bounds memory; the
    block size shapes each product, so another size can move a quantile
    by rounding.  Normals are drawn ``max(1, max(r, m) // r)`` blocks at
    a time into a second buffer, no larger than a product block; a call
    draws exactly ``draws * r`` normals, the same ones in the same order
    as a draw of each block on its own.  Of each column only the largest
    values that a quantile can be read from are kept, about
    ``2 * draws * max(alpha)`` and a block.

    ``alpha`` is a float or a sequence of them; every quantile is the
    conservative order statistic of the same ``draws`` values of the
    statistic.  A float gives a ``(k,)`` array, a sequence a
    ``(len(alpha), k)`` array with one row per alpha.  With
    ``return_rank`` the result is the pair ``(quantiles, r)``.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    C = _check_inputs(corr, alphas, draws)
    F = _factor(C)
    M = F if linear is None else F @ np.asarray(linear, dtype=np.float64)
    r, m = M.shape
    rows = max(1, BLOCK_ELEMS // max(r, m))
    chunk = rows * max(1, max(r, m) // r)  # whole blocks of normals per draw call
    Z = np.empty((min(chunk, draws), r))
    P = np.empty((min(rows, draws), m))
    ks = [conservative_order_index(draws, a) for a in alphas]
    # Every quantile read is among the `tail` largest values of its column,
    # so the buffer holds 2 * tail values and drops the smallest ones of
    # each column whenever it fills.
    tail = draws - min(ks)
    stats = None
    kept = dropped = 0
    for first in range(0, draws, chunk):
        c = min(chunk, draws - first)
        rng.standard_normal(out=Z[:c])
        for lo in range(0, c, rows):
            b = min(rows, c - lo)
            Y = np.matmul(Z[lo : lo + b], M, out=P[:b])
            out = np.asarray(statistic(Y)).reshape(b, -1)
            if stats is None:
                stats = np.empty((min(draws, 2 * tail + rows), out.shape[1]))
            if kept + b > stats.shape[0]:
                stats[:kept].partition(kept - tail, axis=0)
                stats[:tail] = stats[kept - tail : kept]
                dropped += kept - tail
                kept = tail
            stats[kept : kept + b] = out
            kept += b
    ks = [k - dropped for k in ks]
    stats = stats[:kept]
    stats.partition(sorted(set(ks)), axis=0)
    quantiles = stats[ks] if np.ndim(alpha) else stats[ks[0]].copy()
    return (quantiles, r) if return_rank else quantiles
