#!/usr/bin/env python3
"""Time ``learners.lasso_bank`` per coordinate step at the phi_wide shape.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/kernel_cost.py

The problems are those of the phi_wide refits: n = 1000 rows of d = 100
features, the 10-penalty doubling lasso, and training sets that are the
5-fold complements of the data with one row replaced (800 rows each),
their Z'Z/n and Z'y/n summed from fold blocks as the refits sum them.
A call of K problems holds ceil(K / 10) grams.  Each K is timed as the
median of ``REPEATS`` calls, on one BLAS thread.  A call runs
max(sweeps) x d coordinate steps, and each step pays a fixed numpy call
overhead plus a share per problem, so the script prints the time per
coordinate step and per problem, and the least-squares line
step time = fixed + per_problem x K through the rows.  This is the
measurement behind ``cv_engine.GRAM_STACK_BYTES``: the fixed cost is
paid once per call, so the fewer calls a chunk of refits makes, the less
it pays.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from cvconf.cli_harness import _one_blas_thread
from cvconf.cv_engine import _fold_block, _training_moments
from cvconf.datamodel import make_folds
from cvconf.learners import lasso_bank, lasso_grid
from cvconf.simgen import SparseLinearGen, gen_sparse_linear

SIZES = (64, 128, 256, 512, 1024, 2048)
REPEATS = 15
N, D, V = 1000, 100, 5


def phi_wide_problems(count: int):
    """The Z'Z/n and Z'y/n stacks of ``count`` replace-one training sets
    at the phi_wide shape, and its 10 penalties.  Each set's moments are
    built as the refits build them, from fold blocks, so the kernel sees
    bitwise the problems of the phi refits."""
    ds, _ = gen_sparse_linear(SparseLinearGen(n=N, d=D, s=5, nu=1000.0, seed=1))
    rows, _ = gen_sparse_linear(SparseLinearGen(n=count, d=D, s=5, nu=1000.0, seed=2))
    lams = lasso_grid(ds.features, ds.response, V)
    plan = make_folds(N, V)
    base = [_fold_block(ds, ix) for ix in plan.index_sets]
    grams, corrs = np.empty((count, D, D)), np.empty((count, D))
    for k in range(count):
        # replace row k of fold 0 and refit one of the other folds, as the
        # φ refits do
        swap = (k % plan.index_sets[0].size, rows.features[k], rows.response[k])
        blocks = [_fold_block(ds, plan.index_sets[0], swap)] + base[1:]
        _training_moments(blocks, 1 + k % (V - 1), grams[k], corrs[k])
    return grams, corrs, lams


def main() -> None:
    sets = math.ceil(max(SIZES) / 10)
    grams, corrs, lams = phi_wide_problems(sets)
    rows = []
    for K in SIZES:
        used = math.ceil(K / lams.size)
        gram_index = [k // lams.size for k in range(K)]
        penalties = [lams[k % lams.size] for k in range(K)]
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _, sweeps, ok = lasso_bank(grams[:used], corrs[:used], gram_index, penalties)
            seconds.append(time.perf_counter() - start)
        if not ok.all():
            raise SystemExit(f"a problem of the K = {K} call did not converge")
        steps = int(sweeps.max()) * D
        call = statistics.median(seconds)
        rows.append((K, call * 1e3, steps, call * 1e6 / steps, call * 1e6 / K))
    print(f"{'K':>5} {'call ms':>9} {'steps':>6} {'us/step':>8} {'us/problem':>11}")
    for K, ms, steps, per_step, per_problem in rows:
        print(f"{K:>5} {ms:>9.1f} {steps:>6} {per_step:>8.2f} {per_problem:>11.1f}")
    per_problem, fixed = np.polyfit([r[0] for r in rows], [r[3] for r in rows], 1)
    print(f"step time ~ {fixed:.2f} us + {per_problem:.4f} us per problem")


if __name__ == "__main__":
    with _one_blas_thread("kernel_cost", 1):
        main()
