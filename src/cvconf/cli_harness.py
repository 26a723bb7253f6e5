"""Config-driven experiment harness and command-line entry point.

Campaigns read a sectioned key=value config, run seeded replications in
a worker pool, and emit per-replication CSV tables plus a JSON manifest
whose aggregates are recomputed from the written rows.  This module
alone names, writes, skips and reads back artifact files; the phi and
stability modules only return values.  Every
replication's work is a pure function of (master seed, experiment kind,
n, replication index), so thread scheduling, completion order, and
resumption never change a result: rerunning into the same directory
keeps completed rows verbatim and computes only what is missing.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import dataclasses
import functools
import json
import logging
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .covariance import aggregate_covariance
from .cv_engine import average_fitted_risk_oracle, cv_risk, fit_all_folds, loss_matrix
from .datamodel import (
    Dataset,
    DomainError,
    LearnerSpec,
    _integer,
    _jsonable,
    _real,
    make_folds,
    save_dataset_csv,
    write_csv_atomic,
    write_json_atomic,
)
from .det_variance import HoldoutSet, PhiEstimate, default_holdout_size, phi_pair, phi_perturb
from .gaussian_mc import MIN_DRAWS
from .inference import (
    check_coverage,
    critical_values,
    cvc_set,
    naive_set,
    pointwise_band,
    simultaneous_band,
)
from .learners import DOUBLING_GRID_POINTS, SgdConfig, lasso_grid, lasso_grid_log
from .simgen import SparseLinearGen, gen_sparse_linear, stable_subseed
from .stability_lab import check_sgd_precondition, sgd_campaigns

__all__ = [
    "BASE_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_band_coverage",
    "run_fwd_pointwise",
    "run_cvc_size",
    "run_stability",
    "run_phi",
    "main",
]

_log = logging.getLogger(__name__)


class ConfigError(DomainError):
    """A config file is malformed or inconsistent."""


KINDS = ("band_coverage", "fwd_pointwise", "cvc_size", "stability", "phi")

BASE_COLUMNS = ("rep", "seed", "alpha", "covered", "size_naive", "size_cvc", "ms_elapsed")

_EXTRA_COLUMNS = {
    "band_coverage": ("covered_pw",),
    "cvc_size": ("covered_naive",),
    "fwd_pointwise": ("model",),
}


# ------------------------------------------------------------------ config


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment config file.

    ``d`` is either a fixed width or the literal string ``"n/10"``; use
    :meth:`d_for` to resolve it per sample size.  ``reps`` doubles as
    the trial count for stability campaigns.  A config its kind cannot
    run is refused with a ConfigError when it is built, by
    :func:`load_config`, the constructor or ``dataclasses.replace``, so no
    runner starts on one.
    """

    kind: str
    # generator
    family: str = "sparse_linear"
    n_list: tuple[int, ...] = (100,)
    d: int | str = 20
    s: int = 5
    nu: float = 1000.0
    radius_x: float = 1.0
    # learner bank
    lasso: str = "none"
    lasso_count: int = 50
    lasso_ratio: float = 1e-3
    forward_steps: tuple[int, ...] = ()
    ridge_lams: tuple[float, ...] = ()
    sgd_lam: float = 1.6
    sgd_a: float = 0.6
    sgd_radius_theta: float = 1.0
    # run
    V: int = 5
    alphas: tuple[float, ...] = (0.05,)
    reps: int = 100
    draws: int = 20000
    seed: int = 0
    out: str = "results"
    threads: int = 0
    variant: str = "both"
    index_mode: str = "uniform"
    holdout_m: int = 0

    def d_for(self, n: int) -> int:
        d = n // 10 if self.d == "n/10" else int(self.d)
        if d < 1:
            raise ConfigError(f"resolved feature count {d} at n={n} is not positive")
        return d

    def bank_size(self) -> int:
        lasso = {"none": 0, "log": self.lasso_count, "doubling": DOUBLING_GRID_POINTS}[self.lasso]
        return len(self.forward_steps) + len(self.ridge_lams) + lasso

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # a count is an integer: a float or a bool is refused, never truncated
        counts = ("s", "lasso_count", "V", "reps", "draws", "seed", "threads", "holdout_m")
        values = [(key, getattr(self, key)) for key in counts]
        values += [("n", n) for n in self.n_list] + [("forward_steps", k) for k in self.forward_steps]
        if not isinstance(self.d, str):
            values.append(("d", self.d))
        for key, value in values:
            _integer(value, f"config values of {key}", ConfigError)
        # a real value is a number: a bool or a string is refused
        reals = ("nu", "radius_x", "lasso_ratio", "sgd_lam", "sgd_a", "sgd_radius_theta")
        values = [(key, getattr(self, key)) for key in reals]
        values += [("ridge_lams", lam) for lam in self.ridge_lams]
        values += [("alphas", a) for a in self.alphas]
        for key, value in values:
            _real(value, f"config values of {key}", ConfigError)
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError(f"n must be a list of positive sizes, got {self.n_list}")
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"sample sizes must be distinct, got {self.n_list}")
        if isinstance(self.d, str):
            if self.d != "n/10":
                raise ConfigError(f"d must be an integer or 'n/10', got {self.d!r}")
        elif self.d < 1:
            raise ConfigError(f"need d >= 1, got {self.d}")
        if self.s < 1 or not self.nu > 0:
            raise ConfigError(f"need s >= 1 and nu > 0, got s={self.s}, nu={self.nu}")
        if not self.radius_x > 0:
            raise ConfigError(f"need radius_x > 0, got {self.radius_x}")
        if self.lasso not in ("none", "log", "doubling"):
            raise ConfigError(f"lasso must be none|log|doubling, got {self.lasso!r}")
        if self.lasso_count < 2 or not 0 < self.lasso_ratio < 1:
            raise ConfigError("lasso grid needs count >= 2 and ratio in (0, 1)")
        if any(st < 0 for st in self.forward_steps):
            raise ConfigError("forward steps must be >= 0")
        if any(lam < 0 for lam in self.ridge_lams):
            raise ConfigError("ridge penalties must be >= 0")
        if self.V < 2:
            raise ConfigError(f"need V >= 2, got {self.V}")
        if not self.alphas or any(not 0 < a < 1 for a in self.alphas):
            raise ConfigError(f"alphas must lie strictly in (0, 1), got {self.alphas}")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigError(f"alphas must be distinct, got {self.alphas}")
        if self.reps < 1:
            raise ConfigError(f"need reps >= 1, got {self.reps}")
        if self.seed < 0:
            raise ConfigError(f"need seed >= 0, got {self.seed}")
        if self.draws < MIN_DRAWS:
            raise ConfigError(f"need draws >= {MIN_DRAWS}, got {self.draws}")
        if self.threads < 0:
            raise ConfigError(f"need threads >= 0, got {self.threads}")
        if self.index_mode not in ("uniform", "tail"):
            raise ConfigError(f"index_mode must be uniform|tail, got {self.index_mode!r}")
        if self.holdout_m < 0 or self.holdout_m % 2:
            raise ConfigError(f"holdout_m must be 0 (auto) or even, got {self.holdout_m}")

        if self.kind != "stability":
            if self.family != "sparse_linear":
                raise ConfigError(
                    f"kind {self.kind} needs the sparse_linear generator, got {self.family!r}"
                )
            if self.bank_size() < 1:
                raise ConfigError(f"kind {self.kind} needs a non-empty learner bank")
            # each n is folded and fitted; a rule broken at one n would fail every rep there
            for n in self.n_list:
                if n % self.V:
                    raise ConfigError(f"V={self.V} must divide every n, got n={n}")
                width = self.d_for(n)
                if self.s > width:
                    raise ConfigError(f"need s <= d, got s={self.s}, d={width} at n={n}")
                if any(k > width for k in self.forward_steps):
                    raise ConfigError(f"forward steps must be <= the {width} features at n={n}")
                if self.kind in _REP_WORKERS and n < 2 * self.V:
                    # the fold covariance needs two rows in every fold
                    raise ConfigError(
                        f"kind {self.kind} needs folds of at least 2 rows (n >= 2V), "
                        f"got n={n}, V={self.V}"
                    )
        if self.kind == "phi":
            if self.variant not in ("pair", "perturb", "both"):
                raise ConfigError(f"phi variant must be pair|perturb|both, got {self.variant!r}")
        if self.kind == "stability":
            if self.family != "bounded_regression":
                raise ConfigError("kind stability needs the bounded_regression generator")
            if isinstance(self.d, str):
                raise ConfigError("kind stability needs an integer d")
            if self.variant not in ("first", "second", "both"):
                raise ConfigError(
                    f"stability variant must be first|second|both, got {self.variant!r}"
                )
            if not self.sgd_lam > 0 or not 0 < self.sgd_a < 1 or not self.sgd_radius_theta > 0:
                raise ConfigError("stability needs sgd_lam > 0, sgd_a in (0,1), radius > 0")
            # sgd_campaigns would refuse such an n only after the manifest is written
            sgd = SgdConfig.for_ridge(
                self.sgd_lam, self.sgd_a, self.radius_x, self.sgd_radius_theta
            )
            for n in self.n_list:
                try:
                    check_sgd_precondition(sgd, n)
                except DomainError as exc:
                    raise ConfigError(f"kind stability cannot run at n={n}: {exc}") from exc


def _items(parse):
    return lambda text: tuple(parse(t) for t in text.split(",") if t.strip())


def _int_or_str(text: str):
    try:
        return int(text)
    except ValueError:
        return text.strip()


# config values are parsed by the declared type of their field
_PARSERS = {
    str: str.strip,
    int: int,
    float: float,
    int | str: _int_or_str,
    tuple[int, ...]: _items(int),
    tuple[float, ...]: _items(float),
}

_SECTION_KEYS = {
    "generator": ("family", "n", "d", "s", "nu", "radius_x"),
    "learners": (
        "lasso", "lasso_count", "lasso_ratio", "forward_steps", "ridge_lams", "sgd_lam", "sgd_a",
        "sgd_radius_theta",
    ),
    "run": (
        "kind", "V", "alphas", "reps", "draws", "seed", "out", "threads", "variant", "index_mode",
        "holdout_m",
    ),
}


def _field_of(key: str) -> str:
    """The ExperimentConfig field a config key sets."""
    return "n_list" if key == "n" else key


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a sectioned key=value config file into an ExperimentConfig.

    Sections are [generator], [learners], [run]; keys are case-sensitive
    and unknown keys or sections are errors, so typos never silently
    fall back to defaults.  Keyword overrides (seed, out, reps, threads)
    replace the file's values before the config is built.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    types = typing.get_type_hints(ExperimentConfig)
    fields: dict = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field = _field_of(key)
            try:
                fields[field] = _PARSERS[types[field]](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}") from exc
    if "kind" not in fields:
        raise ConfigError("config must set kind in the [run] section")
    for key, value in overrides.items():
        if value is not None:
            fields[key] = value
    return ExperimentConfig(**fields)


# ----------------------------------------------------------- shared pieces


def _build_bank(cfg: ExperimentConfig, dataset: Dataset):
    """Candidate specs plus config-stable labels.

    Lasso penalties depend on the data (fractions of that dataset's
    lam_max), so lasso labels are grid positions rather than penalty
    values; the other labels name the learner parameter directly.
    """
    specs: list[LearnerSpec] = []
    labels: list[str] = []
    for steps in cfg.forward_steps:
        specs.append(LearnerSpec(family="forward", steps=steps))
        labels.append(f"forward:{steps}")
    for lam in cfg.ridge_lams:
        specs.append(LearnerSpec(family="ridge", lam=lam))
        labels.append(f"ridge:{lam:g}")
    if cfg.lasso == "log":
        lams = lasso_grid_log(dataset.features, dataset.response, cfg.lasso_count, cfg.lasso_ratio)
    elif cfg.lasso == "doubling":
        lams = lasso_grid(dataset.features, dataset.response, cfg.V)
    else:
        lams = ()
    for idx, lam in enumerate(lams):
        specs.append(LearnerSpec(family="lasso", lam=float(lam)))
        labels.append(f"lasso[{idx}]")
    return tuple(specs), tuple(labels)


def _generate(cfg: ExperimentConfig, n: int, seed: int, *, d: int | None = None):
    """The dataset of ``seed`` at ``n``; every kind that draws one here has
    the sparse_linear generator, as its config was checked when built."""
    width = cfg.d_for(n) if d is None else d
    return gen_sparse_linear(SparseLinearGen(n=n, d=width, s=cfg.s, nu=cfg.nu, seed=seed))


def _rep_seed(cfg: ExperimentConfig, n: int, rep: int) -> int:
    """The data seed of replication ``rep`` at ``n``."""
    return stable_subseed(cfg.seed, cfg.kind, n, rep)


def _fitted_problem(cfg: ExperimentConfig, n: int, data_seed: int):
    """Generate the dataset of ``data_seed`` at ``n``, fit the bank on its
    V folds and score it: (labels, loss matrix, fold fits, truth)."""
    ds, truth = _generate(cfg, n, data_seed)
    plan = make_folds(n, cfg.V)
    specs, labels = _build_bank(cfg, ds)
    fits = fit_all_folds(ds, specs, plan)
    return labels, loss_matrix(ds, fits, plan, "squared"), fits, truth


def _rep_problem(cfg: ExperimentConfig, n: int, rep: int):
    """(quantile seed, labels, loss matrix, oracle risks) of one replication."""
    q_seed = stable_subseed(cfg.seed, cfg.kind + "-quantile", n, rep)
    labels, lm, fits, truth = _fitted_problem(cfg, n, _rep_seed(cfg, n, rep))
    return q_seed, labels, lm, average_fitted_risk_oracle(fits, truth)


def _resolve_workers(cfg: ExperimentConfig) -> int:
    """``threads``, or for 0 the cores this process may run on: its affinity
    mask where the OS has one, since ``os.cpu_count`` also counts cores the
    mask excludes."""
    if cfg.threads > 0:
        return cfg.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(setter, getter) of the thread count of the OpenBLAS bundled with
    numpy, or None when this numpy does not export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@contextlib.contextmanager
def _one_blas_thread(kind: str, workers: int):
    """Run BLAS on one thread per pool worker, then restore its count.

    Every product then runs on the worker that called it, whatever the
    worker count: BLAS threads do not compete with the workers for the
    cores, and no output depends on how many threads BLAS would use.
    """
    blas = _openblas_threads()
    if blas is None:
        _log.warning("%s: %d workers; BLAS threads could not be pinned", kind, workers)
        yield
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    _log.info("%s: %d workers, 1 BLAS thread each", kind, workers)
    try:
        yield
    finally:
        set_threads(before)


# --------------------------------------------------- replication campaigns


def _band_rows(cfg: ExperimentConfig, n: int, rep: int):
    q_seed, _, lm, target = _rep_problem(cfg, n, rep)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(risks, cov, cfg.alphas, seed=q_seed, draws=cfg.draws, sets=False)
    rows = []
    for alpha in cfg.alphas:
        band = simultaneous_band(risks, cov, alpha, critical=critical)
        pw = pointwise_band(risks, cov, alpha)
        rows.append(
            {
                "alpha": repr(float(alpha)),
                "covered": str(int(check_coverage(band, target))),
                "size_naive": str(len(naive_set(band).members)),
                "covered_pw": str(int(check_coverage(pw, target))),
            }
        )
    return rows


def _cvc_rows(cfg: ExperimentConfig, n: int, rep: int):
    q_seed, _, lm, target = _rep_problem(cfg, n, rep)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(risks, cov, cfg.alphas, seed=q_seed, draws=cfg.draws)
    rows = []
    for alpha in cfg.alphas:
        band = simultaneous_band(risks, cov, alpha, critical=critical)
        base = naive_set(band)
        cvc = cvc_set(lm, alpha, critical=critical)
        rows.append(
            {
                "alpha": repr(float(alpha)),
                "covered": str(int(check_coverage(cvc, target))),
                "size_naive": str(len(base.members)),
                "size_cvc": str(len(cvc.members)),
                "covered_naive": str(int(check_coverage(base, target))),
            }
        )
    return rows


def _fwd_rows(cfg: ExperimentConfig, n: int, rep: int):
    _, labels, lm, target = _rep_problem(cfg, n, rep)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    rows = []
    for alpha in cfg.alphas:
        pw = pointwise_band(risks, cov, alpha)
        for r, label in enumerate(labels):
            hit = pw.lower[r] <= target[r] <= pw.upper[r]
            rows.append({"alpha": repr(float(alpha)), "covered": str(int(hit)), "model": label})
    return rows


_REP_WORKERS = {
    "band_coverage": _band_rows,
    "cvc_size": _cvc_rows,
    "fwd_pointwise": _fwd_rows,
}


def _columns(kind: str) -> list[str]:
    return list(BASE_COLUMNS) + list(_EXTRA_COLUMNS[kind])


def _rows_per_rep(cfg: ExperimentConfig) -> int:
    if cfg.kind == "fwd_pointwise":
        return len(cfg.alphas) * cfg.bank_size()
    return len(cfg.alphas)


def _read_completed(path: Path, header: Sequence[str], per_rep: int) -> dict[int, list]:
    if not path.exists():
        return {}
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(header):
        raise DomainError(
            f"existing output {path} has a different schema; use a fresh directory"
        )
    groups: dict[int, list] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header) or not cells[0].isdecimal():
            # a torn row would be kept as completed and break the aggregates
            raise ConfigError(
                f"{path} line {number} is not a row of {len(header)} cells with an "
                "integer rep; use a fresh directory"
            )
        groups.setdefault(int(cells[0]), []).append(cells)
    return {rep: rows for rep, rows in groups.items() if len(rows) == per_rep}


def _timed_lines(worker, cfg, n, rep) -> list[list[str]]:
    """CSV rows of one replication, cells in header order ("" if absent).

    ``worker`` returns each row's own cells; the cells every row of the
    replication shares (its rep, data seed and wall time) are set here.
    """
    t0 = time.perf_counter()
    rows = worker(cfg, n, rep)
    ms = repr((time.perf_counter() - t0) * 1e3)
    shared = {"rep": str(rep), "seed": str(_rep_seed(cfg, n, rep)), "ms_elapsed": ms}
    columns = _columns(cfg.kind)
    return [[{**row, **shared}.get(col, "") for col in columns] for row in rows]


def _science_fields(cfg: ExperimentConfig) -> dict:
    """The config as its manifest records it: JSON values, without the
    fields that cannot change an output."""
    echo = dataclasses.asdict(cfg)
    echo.pop("out")
    echo.pop("threads")
    return _jsonable(echo)


def _check_resume(out: Path, kind: str, cfg: ExperimentConfig) -> None:
    """Refuse to add to artifacts that a different config wrote.

    Reads ``<kind>_manifest.json`` in ``out`` if there is one.  For the
    replicated kinds ``reps`` may differ: extending it is a resume.
    """
    path = out / f"{kind}_manifest.json"
    if not path.exists():
        return
    old = _json_object(_read_json(path, "config")["config"], path)
    new = _science_fields(cfg)
    # a key the config no longer has cannot change an output, so only the
    # current keys are compared
    keys = new.keys() - ({"reps"} if kind in _REP_WORKERS else set())
    differ = sorted(k for k in keys if old.get(k) != new.get(k))
    if differ:
        raise ConfigError(
            f"{path} was written by a config that differs in {', '.join(differ)}; "
            "use a fresh directory or the same config"
        )


def _write_manifest(out: Path, kind: str, cfg: ExperimentConfig, **fields) -> dict:
    manifest = {"kind": kind, "config": _science_fields(cfg), **fields}
    write_json_atomic(out / f"{kind}_manifest.json", manifest)
    return manifest


def _open_campaign(cfg: ExperimentConfig, kind: str) -> Path:
    """Check the kind, make the output directory and refuse a mismatched
    resume; then record the config in a manifest before any work, so
    artifacts of a run that stops early are still config-checked."""
    if cfg.kind != kind:
        raise DomainError(f"config kind is {cfg.kind!r} but this campaign runs {kind!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _check_resume(out, kind, cfg)
    _write_manifest(out, kind, cfg, files={}, aggregates={})
    return out


# each manifest aggregate of a kind, and the CSV column it averages
_MEANS = {
    "band_coverage": {
        "coverage": "covered", "mean_size_naive": "size_naive", "coverage_pw": "covered_pw",
    },
    "cvc_size": {
        "coverage": "covered", "mean_size_naive": "size_naive", "mean_size_cvc": "size_cvc",
        "coverage_naive": "covered_naive",
    },
}


def _aggregate_rows(kind: str, rows: list[dict]) -> dict:
    by_alpha: dict[str, list[dict]] = {}
    for row in rows:
        by_alpha.setdefault(row["alpha"], []).append(row)
    out = {}
    for alpha, group in by_alpha.items():
        if kind == "fwd_pointwise":
            by_model: dict[str, list[int]] = {}
            for row in group:
                by_model.setdefault(row["model"], []).append(int(row["covered"]))
            out[alpha] = {
                "reps": len({row["rep"] for row in group}),
                "coverage_by_model": {
                    label: float(np.mean(vals)) for label, vals in sorted(by_model.items())
                },
            }
            continue
        out[alpha] = {"reps": len(group)} | {
            name: float(np.mean([int(r[column]) for r in group]))
            for name, column in _MEANS[kind].items()
        }
    return out


def _in_rep_order(done: dict[int, list[list[str]]]) -> list[list[str]]:
    return [row for rep in sorted(done) for row in done[rep]]


def _run_replicated(cfg: ExperimentConfig, kind: str) -> dict:
    """Futures are consumed in rep order, and after each one the n's CSV is
    rewritten with every replication done so far: an interrupted run keeps
    what it finished, and no output depends on the order reps complete in.
    A resume may extend ``reps`` but not cut off a completed replication."""
    header = _columns(kind)
    per_rep = _rows_per_rep(cfg)
    paths = {n: Path(cfg.out) / f"{kind}_n{n}.csv" for n in cfg.n_list}
    kept = {n: _read_completed(path, header, per_rep) for n, path in paths.items()}
    for n, keep in kept.items():
        if keep and max(keep) >= cfg.reps:
            raise ConfigError(
                f"{paths[n]} holds completed replication {max(keep)}, past reps={cfg.reps}; "
                "a resume may extend reps, never shrink it"
            )
    out = _open_campaign(cfg, kind)
    worker = _REP_WORKERS[kind]
    files: dict[str, str] = {}
    failures: dict[str, list] = {}
    completed: dict[str, int] = {}
    resumed: dict[str, int] = {}
    aggregates: dict[str, dict] = {}
    workers = _resolve_workers(cfg)
    with _one_blas_thread(kind, workers):
        for n in cfg.n_list:
            key, path, done = str(n), paths[n], kept[n]
            resumed[key] = len(done)
            todo = [rep for rep in range(cfg.reps) if rep not in done]
            fails: list[dict] = []
            write_csv_atomic(path, [header, *_in_rep_order(done)])
            pool = ThreadPoolExecutor(max_workers=workers)
            try:
                futures = {rep: pool.submit(_timed_lines, worker, cfg, n, rep) for rep in todo}
                for rep in todo:
                    try:
                        done[rep] = futures[rep].result()
                    except Exception as exc:
                        fails.append(
                            {
                                "rep": rep,
                                "seed": _rep_seed(cfg, n, rep),
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        )
                    write_csv_atomic(path, [header, *_in_rep_order(done)])
            finally:
                # an interrupt drops the queued replications instead of running them
                pool.shutdown(cancel_futures=True)
            files[key] = path.name
            failures[key] = fails
            completed[key] = len(done)
            aggregates[key] = _aggregate_rows(
                kind, [dict(zip(header, row)) for row in _in_rep_order(done)]
            )
    return _write_manifest(
        out,
        kind,
        cfg,
        columns=header,
        files=files,
        reps_completed=completed,
        resumed_reps=resumed,
        failures=failures,
        aggregates=aggregates,
    )


def run_band_coverage(cfg: ExperimentConfig) -> dict:
    """Simultaneous vs pointwise band coverage of the fold-averaged true risks."""
    return _run_replicated(cfg, "band_coverage")


def run_cvc_size(cfg: ExperimentConfig) -> dict:
    """Coverage and size of the two model confidence sets."""
    return _run_replicated(cfg, "cvc_size")


def run_fwd_pointwise(cfg: ExperimentConfig) -> dict:
    """Per-model pointwise interval coverage across the configured bank."""
    return _run_replicated(cfg, "fwd_pointwise")


# --------------------------------------------------- stability / phi kinds


class _Pairs:
    """A campaign's artifacts that are each a CSV and a JSON of one stem,
    ``<stem>.csv`` and ``<stem>.json`` in ``out``.  A rerun keeps a pair
    whose two files are present, and ``read`` reads it back at once, so one
    that does not parse is refused before anything is written; each pair
    written is read back too.  ``read_back`` holds every result."""

    def __init__(self, out: Path, stems: dict, read):
        self.paths = {k: (out / f"{stem}.csv", out / f"{stem}.json") for k, stem in stems.items()}
        self.read = read
        self.read_back = {k: read(*p) for k, p in self.paths.items() if all(f.exists() for f in p)}
        self.kept = list(self.read_back)

    def write(self, key, rows, blob) -> None:
        write_csv_atomic(self.paths[key][0], rows)
        write_json_atomic(self.paths[key][1], blob)
        self.read_back[key] = self.read(*self.paths[key])

    def entry(self, key) -> dict:
        return {"csv": self.paths[key][0].name, "json": self.paths[key][1].name}


def _read_json(path: Path, *keys: str) -> dict:
    """The JSON object in ``path``, refused, naming the file, if it does not
    parse or lacks one of ``keys``."""
    try:
        blob = json.loads(path.read_text())
    except ValueError:
        blob = None
    return _json_object(blob, path, *keys)


def _json_object(blob, path: Path, *keys: str) -> dict:
    """``blob``, read from ``path``, if it is a JSON object with every one of
    ``keys``; otherwise a ConfigError that names the file."""
    if isinstance(blob, dict) and blob.keys() >= set(keys):
        return blob
    raise ConfigError(f"{path} is not a JSON object this campaign wrote; use a fresh directory")


def _stability_rows(report) -> list[list]:
    """One CSV row per trial; the bound is blank where none is claimed."""
    rows = [["kind", "n", "trial", "value", "bound"]]
    for n in report.n_grid:
        bound = report.bounds.get(n, "")
        rows += [[report.kind, n, t, repr(float(v)), bound] for t, v in enumerate(report.samples[n])]
    return rows


def _stability_aggregate(_csv_path: Path, json_path: Path) -> dict:
    blob = _read_json(json_path, "kind", "slope")
    return {"kind": blob["kind"], "slope": blob["slope"], "violations": blob.get("violations", {})}


def run_stability(cfg: ExperimentConfig) -> dict:
    """Replace-one SGD campaigns; artifacts of the same config are skipped
    when already present, and the missing variants run in one call."""
    variants = ("first", "second") if cfg.variant == "both" else (cfg.variant,)
    pairs = _Pairs(Path(cfg.out), {v: f"stability_{v}" for v in variants}, _stability_aggregate)
    out = _open_campaign(cfg, "stability")
    missing = [v for v in variants if v not in pairs.kept]
    if missing:
        reports = sgd_campaigns(
            missing,
            cfg.n_list,
            cfg.reps,
            lam=cfg.sgd_lam,
            step_exponent=cfg.sgd_a,
            radius_x=cfg.radius_x,
            radius_theta=cfg.sgd_radius_theta,
            d=int(cfg.d),
            seed=cfg.seed,
            index_mode=cfg.index_mode,
        )
        for variant, report in reports.items():
            pairs.write(variant, _stability_rows(report), report.summary())
    files = {v: pairs.entry(v) for v in variants}
    return _write_manifest(
        out, "stability", cfg, files=files, skipped=pairs.kept, aggregates=pairs.read_back
    )


def _phi_problem(cfg: ExperimentConfig, n: int):
    """(dataset, specs, folds, hold-out set) of the phi campaign at ``n``."""
    ds, _ = _generate(cfg, n, stable_subseed(cfg.seed, "phi", n))
    m = cfg.holdout_m or default_holdout_size(n)
    # the hold-out keeps the training feature width even when d scales with n
    hold_ds, _ = _generate(cfg, m, stable_subseed(cfg.seed, "phi-holdout", n), d=cfg.d_for(n))
    specs, _ = _build_bank(cfg, ds)
    return ds, specs, make_folds(n, cfg.V), HoldoutSet.from_dataset(hold_ds)


_PHI_KEYS = ("n", "m", "variant", "seed", "p", "indices", "model_labels")


def _phi_artifact(est: PhiEstimate, n: int, seed: int) -> tuple[list, dict]:
    """The phi CSV's rows, the p x p matrix, and its JSON sidecar."""
    values = (n, est.m, est.variant, seed, est.p, est.indices, est.model_labels)
    blob = dict(zip(_PHI_KEYS, values))
    return [[repr(float(v)) for v in row] for row in est.phi], blob


def _phi_diag(csv_path: Path, json_path: Path) -> list[float]:
    """The diagonal of a written phi; a CSV that is not a square matrix of
    numbers, or a sidecar that lacks a key ``_phi_artifact`` writes or
    whose ``p`` is not the CSV's size, is refused."""
    blob = _read_json(json_path, *_PHI_KEYS)
    try:
        phi = [[float(v) for v in line.split(",")] for line in csv_path.read_text().splitlines()]
    except ValueError:
        phi = []
    if not phi or any(len(row) != len(phi) for row in phi):
        raise ConfigError(f"{csv_path} is not a square matrix of numbers; use a fresh directory")
    if blob["p"] != len(phi):
        raise ConfigError(
            f"{json_path} gives p = {blob['p']!r} for a {len(phi)} x {len(phi)} phi; "
            "use a fresh directory"
        )
    return [row[r] for r, row in enumerate(phi)]


def run_phi(cfg: ExperimentConfig) -> dict:
    """Hold-out variance estimates per n; artifacts of the same config are
    skipped when present.

    The replace-one refits run on ``threads`` forked workers (see
    ``cv_engine.replace_one_cv_risks``), and BLAS runs on one thread for
    the whole campaign, so the bytes written depend on neither count.
    """
    workers = _resolve_workers(cfg)
    variants = ("pair", "perturb") if cfg.variant == "both" else (cfg.variant,)
    stems = {(v, n): f"phi_{v}_n{n}" for n in cfg.n_list for v in variants}
    pairs = _Pairs(Path(cfg.out), stems, _phi_diag)
    with _one_blas_thread("phi", workers):
        out = _open_campaign(cfg, "phi")
        for n in cfg.n_list:
            missing = [v for v in variants if (v, n) not in pairs.kept]
            if missing:
                ds, specs, plan, holdout = _phi_problem(cfg, n)
                for variant in missing:
                    estimate = phi_pair if variant == "pair" else phi_perturb
                    est = estimate(ds, specs, plan, holdout, workers=workers)
                    pairs.write((variant, n), *_phi_artifact(est, n, cfg.seed))
    files = {v: {str(n): pairs.entry((v, n)) for n in cfg.n_list} for v in variants}
    diags = {v: {str(n): {"diag": pairs.read_back[v, n]} for n in cfg.n_list} for v in variants}
    skipped = [f"{v}:{n}" for v, n in pairs.kept]
    return _write_manifest(out, "phi", cfg, files=files, skipped=skipped, aggregates=diags)


# -------------------------------------------------------- one-shot commands


def _one_shot_seed(cfg: ExperimentConfig, n: int) -> int:
    """The data seed every one-shot command (``gen``, ``band``, ``cvc``) of
    one config uses at ``n``."""
    return stable_subseed(cfg.seed, "gen", n)


# the kinds each one-shot command refuses: a stability config's rows are
# drawn inside its campaign, and phi and stability configs set no alphas
# or draws for a band or a set
_ONE_SHOT_REFUSES = {
    "gen": ("stability",), "band": ("phi", "stability"), "cvc": ("phi", "stability"),
}


def _one_shot_out(cfg: ExperimentConfig, command: str) -> Path:
    """Refuse a config of a kind ``command`` cannot run, before any file
    is written; then make the output directory."""
    if cfg.kind in _ONE_SHOT_REFUSES[command]:
        raise ConfigError(f"{command} cannot run a config of kind {cfg.kind!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _one_shot(cfg: ExperimentConfig, command: str) -> None:
    """``band`` or ``cvc``: simultaneous bands or CVC sets, one per alpha,
    on one generated dataset, written to ``<command>.json``."""
    out = _one_shot_out(cfg, command)
    n = cfg.n_list[0]
    labels, lm, _, _ = _fitted_problem(cfg, n, _one_shot_seed(cfg, n))
    q_seed = stable_subseed(cfg.seed, command + "-quantile", n)
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(
        risks, cov, cfg.alphas, seed=q_seed, draws=cfg.draws,
        bands=command == "band", sets=command == "cvc",
    )
    if command == "band":
        key, item = "bands", "band"
        results = [simultaneous_band(risks, cov, a, critical=critical) for a in cfg.alphas]
    else:
        key, item = "sets", "set"
        results = [cvc_set(lm, a, critical=critical) for a in cfg.alphas]
    entries = [
        {"alpha": float(alpha), item: res.to_dict()} for alpha, res in zip(cfg.alphas, results)
    ]
    blob = {"n": n, "seed": cfg.seed, "draws": cfg.draws, "rank": critical.rank}
    write_json_atomic(out / f"{command}.json", {**blob, "labels": list(labels), key: entries})


def _one_shot_gen(cfg: ExperimentConfig) -> None:
    out = _one_shot_out(cfg, "gen")
    for n in cfg.n_list:
        ds, _ = _generate(cfg, n, _one_shot_seed(cfg, n))
        save_dataset_csv(ds, out / f"dataset_n{n}.csv")


# -------------------------------------------------------------------- CLI


_CAMPAIGNS = {
    "coverage": run_band_coverage,
    "fwd": run_fwd_pointwise,
    "cvc-size": run_cvc_size,
    "stability": run_stability,
    "phi": run_phi,
}


def main(argv=None) -> int:
    """Run one command; a refused config or input, or a file that cannot
    be read or written, prints ``cvconf: error: <message>`` on stderr and
    returns 2."""
    parser = argparse.ArgumentParser(
        prog="cvconf",
        description="Seeded cross-validation inference experiments from config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("band", "cvc", "coverage", "fwd", "cvc-size", "stability", "phi", "gen"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--reps", type=int, help="override the replication/trial count")
        p.add_argument("--threads", type=int, help="override the worker count (0 = auto)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        cfg = load_config(
            args.config, seed=args.seed, out=args.out, reps=args.reps, threads=args.threads
        )
        if args.command in _CAMPAIGNS:
            _CAMPAIGNS[args.command](cfg)
        elif args.command in ("band", "cvc"):
            _one_shot(cfg, args.command)
        else:
            _one_shot_gen(cfg)
    except (DomainError, OSError) as exc:
        print(f"cvconf: error: {exc}", file=sys.stderr)
        return 2
    return 0
