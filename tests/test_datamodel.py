"""Container types, fold construction, dataset CSV round trips, and the artifact writer."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvconf import cv_engine
from cvconf.datamodel import (
    Dataset,
    DivisibilityError,
    DomainError,
    FoldPlan,
    LearnerSpec,
    LossMatrix,
    make_folds,
    save_dataset_csv,
    write_csv_atomic,
    write_json_atomic,
)
from cvconf.det_variance import (
    HoldoutSet,
    default_holdout_size,
    default_perturb_schedule,
    phi_pair,
    phi_perturb,
)
from cvconf.learners import lasso_grid, lasso_grid_log
from cvconf.simgen import SparseLinearGen
from cvconf.stability_lab import sgd_campaigns


def test_make_folds_strict_first_and_last_block():
    plan = make_folds(10, 5)
    assert plan.n == 10 and plan.V == 5
    assert plan.index_sets[0].tolist() == [0, 1]
    assert plan.index_sets[4].tolist() == [8, 9]


def test_make_folds_balanced_sizes_larger_first():
    plan = make_folds(7, 3, mode="balanced")
    assert [len(ix) for ix in plan.index_sets] == [3, 2, 2]


def test_make_folds_strict_rejects_nondivisible():
    with pytest.raises(DivisibilityError):
        make_folds(7, 3)


def test_make_folds_rejects_bad_domain():
    with pytest.raises(DomainError):
        make_folds(1, 2)
    with pytest.raises(DomainError):
        make_folds(10, 1)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=10))
def test_make_folds_strict_matches_block_formula(V, mult):
    # fold v (1-based) must be exactly {n(v-1)/V + 1, ..., nv/V}
    n = V * mult
    plan = make_folds(n, V)
    for v in range(V):
        lo = n * v // V
        hi = n * (v + 1) // V
        assert plan.index_sets[v].tolist() == list(range(lo, hi))


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=40))
def test_make_folds_balanced_partitions_contiguously(V, extra):
    n = V + extra
    plan = make_folds(n, V, mode="balanced")
    flat = np.concatenate(plan.index_sets)
    assert flat.tolist() == list(range(n))
    sizes = [len(ix) for ix in plan.index_sets]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes
    for v in range(V):
        assert np.array_equal(plan.fold_of[plan.index_sets[v]], np.full(sizes[v], v))


def test_make_folds_deterministic():
    a = make_folds(20, 5)
    b = make_folds(20, 5)
    assert np.array_equal(a.fold_of, b.fold_of)


def _hand_plan(fold_of, index_sets, n=6, V=2):
    return FoldPlan(n=n, V=V, fold_of=np.array(fold_of), index_sets=tuple(map(np.array, index_sets)))


@pytest.mark.parametrize(
    "fold_of, index_sets",
    [
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], [3, 4, 5], [5]]),  # three sets for V = 2
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], []]),  # an empty set
        ([0, 0, 0, 1, 1, 1], [[0, 2, 1], [3, 4, 5]]),  # a set out of order
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], [3, 4, 5.0]]),  # a float index
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], [3, 4, 6]]),  # row 5 missing, row 6 past n
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], [3, 4]]),  # row 5 missing
        ([0, 0, 0, 1, 1, 1], [[0, 1, 2], [2, 3, 4, 5]]),  # row 2 listed twice
        ([0, 0, 1, 1, 1, 1], [[0, 1, 2], [3, 4, 5]]),  # fold_of puts row 2 in fold 1
        ([0, 0, 0, 1, 1], [[0, 1, 2], [3, 4, 5]]),  # fold_of one row short
    ],
    ids=[
        "sets-not-V", "empty-set", "unsorted-set", "float-index",
        "row-past-n", "missing-row", "row-twice", "fold-of-disagrees", "fold-of-short",
    ],
)
def test_fold_plan_refuses_a_plan_that_does_not_partition_the_rows(fold_of, index_sets):
    with pytest.raises(DomainError):
        _hand_plan(fold_of, index_sets)


def test_fold_plan_built_by_hand_scores_every_row():
    # interleaved folds are a partition too, and score every row once
    plan = _hand_plan([0, 1, 0, 1, 0, 1], [[0, 2, 4], [1, 3, 5]])
    assert plan.train_indices(0).tolist() == [1, 3, 5]
    with pytest.raises(DomainError):
        _hand_plan([0, 1, 0, 1, 0, 1], [[0, 2, 4], [1, 3]], n=6)
    with pytest.raises(DomainError):
        _hand_plan([0, 1], [[0], [1]], n=2, V=1)


_DATA = Dataset(np.arange(12.0).reshape(6, 2) % 5, np.arange(6.0))
_HOLD = HoldoutSet(np.ones((2, 2)), np.ones(2))
_SGD = dict(lam=1.6)


@pytest.mark.parametrize(
    "call",
    [
        *(
            pytest.param(lambda w=w: cv_engine.replace_one_cv_risks(
                _DATA, [LearnerSpec("ridge", lam=0.1)], make_folds(6, 2), [],
                cv_engine.fit_all_folds(_DATA, [LearnerSpec("ridge", lam=0.1)], make_folds(6, 2)),
                workers=w), id=f"replace-one-workers-{w!r}")
            for w in (2.5, 0, -3, True)
        ),
        *(
            pytest.param(lambda f=f, w=w: f(_DATA, [LearnerSpec("ridge", lam=0.1)], make_folds(6, 2),
                                            _HOLD, workers=w), id=f"{f.__name__}-workers-{w!r}")
            for f in (phi_pair, phi_perturb)
            for w in (2.5, 0, True)
        ),
        pytest.param(lambda: sgd_campaigns(["first"], [256], True, **_SGD), id="sgd-trials-bool"),
        pytest.param(lambda: sgd_campaigns(["first"], [256], 2.0, **_SGD), id="sgd-trials-float"),
        pytest.param(lambda: sgd_campaigns(["first"], [256], 2, d=2.0, **_SGD), id="sgd-d-float"),
        pytest.param(lambda: sgd_campaigns(["first"], [256], 2, d=-1, **_SGD), id="sgd-d-negative"),
        pytest.param(lambda: make_folds(10.0, 2), id="make-folds-n"),
        pytest.param(lambda: make_folds(10, 2.0), id="make-folds-V"),
        *(
            pytest.param(lambda k=k: SparseLinearGen(**{**dict(n=10, d=4, s=2, nu=1.0, seed=0), k: 2.0}),
                         id=f"generator-{k}")
            for k in ("n", "d", "s")
        ),
        pytest.param(lambda: lasso_grid(_DATA.features, _DATA.response, 2.5), id="lasso-grid-V"),
        pytest.param(lambda: lasso_grid_log(_DATA.features, _DATA.response, 5.0), id="lasso-grid-log-count"),
        pytest.param(lambda: default_holdout_size(2.5), id="holdout-size"),
        pytest.param(lambda: default_perturb_schedule(True, 3), id="perturb-schedule-n"),
        pytest.param(lambda: default_perturb_schedule(6, 3.0), id="perturb-schedule-m"),
    ],
)
def test_public_counts_refuse_non_integers_and_non_positive_workers(call):
    # none is truncated (2.5 to 2, True to 1) or run in-process as one worker
    with pytest.raises(DomainError):
        call()


def test_train_indices_is_ascending_complement():
    plan = make_folds(10, 5)
    tr = plan.train_indices(2)
    assert tr.tolist() == [0, 1, 2, 3, 6, 7, 8, 9]


def test_dataset_clean_builds():
    ds = Dataset(np.ones((4, 2)), np.zeros(4))
    assert (ds.n, ds.d) == (4, 2)


def test_dataset_refuses_row_mismatch_and_nonfinite():
    with pytest.raises(DomainError, match="row counts differ: features has 4, response has 3"):
        Dataset(np.ones((4, 2)), np.zeros(3))

    bad = np.ones((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(DomainError) as err:
        Dataset(bad, np.array([1.0, np.inf, 0.0]))
    assert str(err.value) == (
        "dataset invalid: features contains non-finite entries; "
        "response contains non-finite entries"
    )


@pytest.mark.parametrize("i", [2.7, True])
def test_replace_row_refuses_a_non_integer_index(i):
    ds = Dataset(np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(DomainError, match="integers"):
        ds.replace_row(i, np.ones(2), 1.0)


@pytest.mark.parametrize("steps", [True, 1.5, 2.0])
def test_forward_spec_refuses_non_integer_steps(steps):
    # 1.5 would build and fail only inside the fold loop, as a FitError
    with pytest.raises(DomainError, match="forward steps must be integers"):
        LearnerSpec("forward", steps=steps)
    assert LearnerSpec("forward", steps=np.int64(2)).label() == "forward:2"


@pytest.mark.parametrize("family", ["ridge", "lasso"])
@pytest.mark.parametrize("lam", [True, "0.1", np.bool_(True)])
def test_penalized_spec_refuses_a_non_real_penalty(family, lam):
    # True built and labelled itself ridge:1; "0.1" failed on a bare TypeError
    with pytest.raises(DomainError, match=f"{family} penalties must be real numbers"):
        LearnerSpec(family, lam=lam)
    assert LearnerSpec(family, lam=np.float64(0.5)).label() == f"{family}:0.5"
    assert LearnerSpec(family, lam=2).label() == f"{family}:2"


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(5, 3)), rng.normal(size=5))
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["y", "z1", "z2", "z3"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1:], ds.features)
    assert np.array_equal(back[:, 0], ds.response)


def test_artifact_writer_forms(tmp_path):
    json_path = write_json_atomic(
        tmp_path / "a.json", {"b": (1, np.int64(2)), "a": np.array([0.5, np.inf])}
    )
    assert json_path.read_bytes() == (
        b'{\n  "a": [\n    0.5,\n    null\n  ],\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )
    csv_path = write_csv_atomic(tmp_path / "a.csv", [["y", "z1"], [0.1, np.float64(2.5)], [3, ""]])
    assert csv_path.read_bytes() == b"y,z1\n0.1,2.5\n3,\n"


def test_artifact_writer_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    json_path = write_json_atomic(tmp_path / "a.json", {"old": 1})
    csv_path = write_csv_atomic(tmp_path / "a.csv", [["old"]])
    before = {p.name: p.read_bytes() for p in (json_path, csv_path)}

    def failing_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        write_json_atomic(json_path, {"new": 2})
    with pytest.raises(OSError, match="injected"):
        write_csv_atomic(csv_path, [["new"]])
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_loss_matrix_rejects_nonfinite_and_row_mismatch():
    plan = make_folds(4, 2)
    vals = np.ones((4, 2))
    LossMatrix(vals, plan, ("a", "b"))
    vals_bad = vals.copy()
    vals_bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        LossMatrix(vals_bad, plan, ("a", "b"))
    with pytest.raises(DomainError):
        LossMatrix(np.ones((3, 2)), plan, ("a", "b"))


def test_learner_spec_validation():
    LearnerSpec("ridge", lam=0.0)
    LearnerSpec("lasso", lam=0.3)
    LearnerSpec("forward", steps=2)
    with pytest.raises(DomainError):
        LearnerSpec("lasso", lam=-0.1)
    with pytest.raises(DomainError):
        LearnerSpec("forward", steps=-1)
    with pytest.raises(DomainError):
        LearnerSpec("ridge", lam=float("nan"))
    # least squares is ridge at lam = 0; SGD runs only in the stability campaigns
    for family in ("kitchen_sink", "ols", "sgd", "series"):
        with pytest.raises(DomainError):
            LearnerSpec(family)


def test_learner_spec_is_hashable_value_type():
    a = LearnerSpec("lasso", lam=0.25)
    b = LearnerSpec("lasso", lam=0.25)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_learner_spec_labels():
    assert LearnerSpec("ridge", lam=0.1).label() == "ridge:0.1"
    assert LearnerSpec("lasso", lam=1e-7).label() == "lasso:1e-07"
    assert LearnerSpec("forward", steps=3).label() == "forward:3"
