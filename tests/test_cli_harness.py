"""Config-driven experiment harness: parsing, campaigns, CSV/JSON emission."""

import dataclasses
import json
import logging
import multiprocessing
import re
import subprocess
import sys
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cvconf import cli_harness, inference
from cvconf.cli_harness import (
    BASE_COLUMNS,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run_band_coverage,
    run_cvc_size,
    run_fwd_pointwise,
    run_phi,
    run_stability,
)
from cvconf.covariance import aggregate_covariance
from cvconf.cv_engine import cv_risk, fit_all_folds, loss_matrix
from cvconf.datamodel import Dataset, DomainError, LearnerSpec, make_folds
from cvconf.det_variance import HoldoutSet, phi_pair
from cvconf.gaussian_mc import MIN_DRAWS
from cvconf.inference import check_coverage, critical_values, cvc_set, naive_set, simultaneous_band
from cvconf.learners import lasso_grid
from cvconf.simgen import SparseLinearGen, gen_sparse_linear, stable_subseed

REPO = Path(__file__).parents[1]
SHIPPED_CONFIGS = sorted(REPO.glob("scripts/configs/*.ini")) + sorted(
    REPO.glob("bench/configs/*.ini")
)


def _write_config(path, sections):
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        for k, v in kv.items():
            lines.append(f"{k} = {v}")
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _band_sections(out, **run_over):
    run = {
        "kind": "band_coverage",
        "V": 5,
        "alphas": "0.2",
        "reps": 3,
        "draws": 4000,
        "seed": 11,
        "out": out,
        "threads": 1,
    }
    run.update(run_over)
    return {
        "generator": {"family": "sparse_linear", "n": 80, "d": 6, "s": 2, "nu": 50},
        "learners": {"lasso": "log", "lasso_count": 4, "lasso_ratio": 0.01},
        "run": run,
    }


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _strip_ms(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    drop = header.index("ms_elapsed")
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[drop]
        out.append(",".join(cells))
    return "\n".join(out)


# ---------------------------------------------------------------- parsing


def test_load_config_round_trip(tmp_path):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    cfg = load_config(p)
    assert cfg.kind == "band_coverage"
    assert cfg.family == "sparse_linear"
    assert cfg.n_list == (80,)
    assert cfg.d == 6 and cfg.s == 2 and cfg.nu == 50.0
    assert cfg.lasso == "log" and cfg.lasso_count == 4 and cfg.lasso_ratio == 0.01
    assert cfg.V == 5 and cfg.alphas == (0.2,) and cfg.reps == 3
    assert cfg.draws == 4000 and cfg.seed == 11 and cfg.threads == 1
    assert cfg.out == str(tmp_path / "o")


def test_load_config_d_rule(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["generator"]["d"] = "n/10"
    cfg = load_config(_write_config(tmp_path / "c.ini", sec))
    assert cfg.d == "n/10"
    assert cfg.d_for(1000) == 100
    assert cfg.d_for(64) == 6
    sec["generator"]["d"] = 7
    cfg = load_config(_write_config(tmp_path / "c2.ini", sec))
    assert cfg.d_for(1000) == 7


def test_load_config_rejects_unknown_key(tmp_path):
    # the series generator's keys are gone with it
    for section, key in (
        ("run", "bogus"),
        ("generator", "j_max"),
        ("generator", "decay"),
        ("generator", "noise_sd"),
        ("learners", "series_truncations"),
    ):
        sec = _band_sections(tmp_path / "o")
        sec[section][key] = 1
        with pytest.raises(ConfigError, match=key):
            load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_wraps_a_malformed_file(tmp_path):
    twice = tmp_path / "twice.ini"
    twice.write_text("[run]\nkind = band_coverage\nkind = cvc_size\n")
    headless = tmp_path / "headless.ini"
    headless.write_text("kind = band_coverage\n[run]\nreps = 2\n")
    for path in (twice, headless):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(path)


def test_config_keys_and_fields_agree():
    # every key sets a field, every field has exactly one key, and every
    # field's declared type has a parser
    keys = [key for keys in cli_harness._SECTION_KEYS.values() for key in keys]
    targets = [cli_harness._field_of(key) for key in keys]
    fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
    assert sorted(targets) == sorted(fields)
    types = typing.get_type_hints(ExperimentConfig)
    assert all(types[field] in cli_harness._PARSERS for field in fields)


def test_load_config_rejects_unknown_section(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["extra"] = {"x": 1}
    with pytest.raises(DomainError):
        load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_keys_are_case_sensitive(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["run"]["Reps"] = 7
    with pytest.raises(DomainError):
        load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_validates_values(tmp_path):
    for patch in ({"alphas": "1.5"}, {"reps": 0}, {"kind": "bogus"}):
        sec = _band_sections(tmp_path / "o", **patch)
        with pytest.raises(DomainError):
            load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_rejects_duplicate_alphas(tmp_path):
    # a repeated alpha would pool its rows into one aggregate with twice the reps
    sec = _cvc_sections(tmp_path / "o")
    sec["run"]["alphas"] = "0.1, 0.1"
    with pytest.raises(ConfigError, match="distinct"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig(kind="cvc_size", alphas=(0.05, 0.1, 0.05))


def test_a_config_that_load_config_refuses_cannot_be_built(tmp_path):
    # a runner handed it would write its manifest and CSV and record every
    # replication as a failure
    out = tmp_path / "o"
    out.mkdir()
    shape = dict(kind="cvc_size", n_list=(60,), d=6, s=2, lasso="doubling", out=str(out))
    refusal = f"need draws >= {MIN_DRAWS}, got 10"
    with pytest.raises(ConfigError, match=refusal):
        run_cvc_size(ExperimentConfig(**shape, draws=10))
    valid = ExperimentConfig(**shape, reps=2)
    with pytest.raises(ConfigError, match=refusal):
        run_cvc_size(dataclasses.replace(valid, draws=10))
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("reps", 2.5), ("V", 5.0), ("draws", 20000.0), ("threads", True), ("holdout_m", 2.0),
        ("s", 2.0), ("n_list", (60, 100.0)), ("seed", 1.0), ("d", 6.0), ("lasso_count", 5.0),
        ("forward_steps", (1.0,)),
    ],
)
def test_a_config_refuses_a_non_integer_count(field, value):
    # load_config parses these with int, so only the constructor or
    # dataclasses.replace could hand a runner one
    valid = ExperimentConfig(kind="cvc_size", n_list=(60,), d=6, s=2, lasso="doubling")
    key = "n" if field == "n_list" else field
    with pytest.raises(ConfigError, match=f"config values of {key} must be integers"):
        dataclasses.replace(valid, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("nu", True), ("radius_x", "1.0"), ("lasso_ratio", np.bool_(True)), ("sgd_lam", True),
        ("sgd_a", "0.6"), ("sgd_radius_theta", True), ("ridge_lams", (0.1, True)),
        ("alphas", ("0.05",)),
    ],
)
def test_a_config_refuses_a_non_real_value(field, value):
    # nu = True built; a string failed later on a bare TypeError or not at all
    valid = ExperimentConfig(kind="cvc_size", n_list=(60,), d=6, s=2, lasso="doubling")
    with pytest.raises(ConfigError, match=f"config values of {field} must be real numbers"):
        dataclasses.replace(valid, **{field: value})


def test_load_config_rejects_duplicate_sample_sizes(tmp_path):
    # results are keyed and split back by n, so a repeated n has no rows of its own
    sec = _stability_sections(tmp_path / "o")
    sec["generator"]["n"] = "256, 256"
    with pytest.raises(ConfigError, match="distinct"):
        load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_rejects_draws_below_sampler_floor(tmp_path):
    sec = _band_sections(tmp_path / "o", draws=MIN_DRAWS - 1)
    with pytest.raises(ConfigError, match="draws"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    sec = _band_sections(tmp_path / "o", draws=MIN_DRAWS)
    assert load_config(_write_config(tmp_path / "c.ini", sec)).draws == MIN_DRAWS


# a config that breaks one of these rules at any n would fail every rep there


def test_load_config_rejects_n_that_V_does_not_divide(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["generator"]["n"] = "80, 102"
    with pytest.raises(ConfigError, match="divide"):
        load_config(_write_config(tmp_path / "c.ini", sec))


@pytest.mark.parametrize("kind", ["band_coverage", "fwd_pointwise", "cvc_size"])
def test_load_config_rejects_folds_of_one_row(tmp_path, kind):
    # every rep would fail in the fold covariance; phi computes none
    sec = _band_sections(tmp_path / "o", kind=kind)
    sec["generator"].update(n=5, d=2, s=1)
    sec["learners"] = {"lasso": "none", "ridge_lams": "0, 1"}
    with pytest.raises(ConfigError, match="at least 2 rows"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    sec["generator"]["n"] = 10
    assert load_config(_write_config(tmp_path / "c.ini", sec)).n_list == (10,)
    sec["generator"]["n"] = 5
    sec["run"]["kind"] = "phi"
    assert load_config(_write_config(tmp_path / "c.ini", sec)).V == 5


@pytest.mark.parametrize(
    "path", SHIPPED_CONFIGS, ids=lambda path: f"{path.parent.parent.name}/{path.name}"
)
def test_shipped_configs_load(path):
    load_config(path)  # validated on load


SCRIPT_RUNS = [
    match.groups()
    for script in sorted(REPO.glob("scripts/*.sh"))
    for match in re.finditer(r"python3 -m cvconf (\S+) +--config (\S+)", script.read_text())
]


def test_shipped_scripts_run_the_configs_they_name():
    kinds = {
        "coverage": "band_coverage",
        "fwd": "fwd_pointwise",
        "cvc-size": "cvc_size",
        "stability": "stability",
        "phi": "phi",
    }
    assert len(SCRIPT_RUNS) >= 8
    for command, config in SCRIPT_RUNS:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0, command
        cfg = load_config(REPO / config)
        if command in kinds:
            assert cfg.kind == kinds[command], (command, config)


def test_load_config_rejects_a_stability_precondition_that_fails_at_some_n(tmp_path):
    # the campaign would write its manifest, then refuse to run
    sec = _stability_sections(tmp_path / "o")
    sec["learners"]["sgd_lam"] = 0.1
    with pytest.raises(ConfigError, match="n=256.*gamma/beta"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    sec = _stability_sections(tmp_path / "o")
    sec["generator"]["n"] = "1, 256"
    with pytest.raises(ConfigError, match="n=1.*n >= 2"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    assert not (tmp_path / "o").exists()


def test_bank_size_counts_the_built_bank():
    # _rows_per_rep trusts bank_size to tell complete fwd_pointwise reps on resume
    checked = 0
    for path in SHIPPED_CONFIGS:
        cfg = load_config(path)
        if cfg.kind == "stability":
            continue
        for n in cfg.n_list:
            ds, _ = cli_harness._generate(cfg, n, cli_harness._one_shot_seed(cfg, n))
            specs, labels = cli_harness._build_bank(cfg, ds)
            assert cfg.bank_size() == len(specs) == len(labels), (path.name, n)
            checked += 1
    assert checked >= 6


def test_load_config_rejects_a_feature_width_below_one(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["generator"].update(n="5, 80", d="n/10")
    with pytest.raises(ConfigError, match="feature count 0"):
        load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_rejects_more_signals_than_features(tmp_path):
    sec = _band_sections(tmp_path / "o")
    sec["generator"].update(s=5, d=4)
    with pytest.raises(ConfigError, match="s <= d"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    sec["generator"]["d"] = 5
    assert load_config(_write_config(tmp_path / "c.ini", sec)).s == 5


def test_load_config_rejects_forward_steps_wider_than_the_features(tmp_path):
    sec = _band_sections(tmp_path / "o", kind="fwd_pointwise")
    sec["generator"]["d"] = 10
    sec["learners"] = {"forward_steps": "3, 12"}
    with pytest.raises(ConfigError, match="<= the 10 features"):
        load_config(_write_config(tmp_path / "c.ini", sec))
    sec["learners"] = {"forward_steps": "3, 10"}
    assert load_config(_write_config(tmp_path / "c.ini", sec)).forward_steps == (3, 10)


def test_load_config_requires_kind(tmp_path):
    sec = _band_sections(tmp_path / "o")
    del sec["run"]["kind"]
    with pytest.raises(DomainError):
        load_config(_write_config(tmp_path / "c.ini", sec))


def test_load_config_cli_overrides(tmp_path):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    cfg = load_config(p, seed=99, reps=5, out=str(tmp_path / "other"), threads=2)
    assert cfg.seed == 99 and cfg.reps == 5 and cfg.threads == 2
    assert cfg.out == str(tmp_path / "other")


# ----------------------------------------------------------- band campaign


def test_band_coverage_csv_schema(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o")))
    run_band_coverage(cfg)
    path = tmp_path / "o" / "band_coverage_n80.csv"
    header, rows = _read_rows(path)
    assert header == list(BASE_COLUMNS) + ["covered_pw"]
    assert [r["rep"] for r in rows] == ["0", "1", "2"]
    for rep, row in enumerate(rows):
        assert int(row["seed"]) == stable_subseed(11, "band_coverage", 80, rep)
        assert row["alpha"] == repr(0.2)
        assert row["covered"] in ("0", "1")
        assert row["covered_pw"] in ("0", "1")
        assert 1 <= int(row["size_naive"]) <= 4
        assert row["size_cvc"] == ""
        float(row["ms_elapsed"])


def test_band_coverage_manifest_matches_csv(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o")))
    run_band_coverage(cfg)
    _, rows = _read_rows(tmp_path / "o" / "band_coverage_n80.csv")
    blob = json.loads((tmp_path / "o" / "band_coverage_manifest.json").read_text())
    assert blob["kind"] == "band_coverage"
    agg = blob["aggregates"]["80"][repr(0.2)]
    assert agg["reps"] == 3
    assert agg["coverage"] == pytest.approx(np.mean([int(r["covered"]) for r in rows]))
    assert agg["coverage_pw"] == pytest.approx(np.mean([int(r["covered_pw"]) for r in rows]))
    assert agg["mean_size_naive"] == pytest.approx(np.mean([int(r["size_naive"]) for r in rows]))
    assert blob["failures"]["80"] == []
    assert blob["reps_completed"]["80"] == 3


def test_band_coverage_deterministic_across_dirs_and_threads(tmp_path):
    cfg_a = load_config(_write_config(tmp_path / "a.ini", _band_sections(tmp_path / "a")))
    cfg_b = load_config(
        _write_config(tmp_path / "b.ini", _band_sections(tmp_path / "b", threads=2))
    )
    run_band_coverage(cfg_a)
    run_band_coverage(cfg_b)
    assert _strip_ms(tmp_path / "a" / "band_coverage_n80.csv") == _strip_ms(
        tmp_path / "b" / "band_coverage_n80.csv"
    )
    # manifests echo only science fields, so they agree verbatim
    assert (tmp_path / "a" / "band_coverage_manifest.json").read_text() == (
        tmp_path / "b" / "band_coverage_manifest.json"
    ).read_text()


def test_band_coverage_resumes_completed_reps(tmp_path):
    out = tmp_path / "o"
    cfg2 = load_config(_write_config(tmp_path / "c2.ini", _band_sections(out, reps=2)))
    run_band_coverage(cfg2)
    first_two = (out / "band_coverage_n80.csv").read_text().strip().splitlines()[1:3]
    cfg4 = load_config(_write_config(tmp_path / "c4.ini", _band_sections(out, reps=4)))
    run_band_coverage(cfg4)
    lines = (out / "band_coverage_n80.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[1:3] == first_two  # preserved verbatim, timings included
    blob = json.loads((out / "band_coverage_manifest.json").read_text())
    assert blob["resumed_reps"]["80"] == 2
    fresh = load_config(_write_config(tmp_path / "cf.ini", _band_sections(tmp_path / "f", reps=4)))
    run_band_coverage(fresh)
    assert _strip_ms(out / "band_coverage_n80.csv") == _strip_ms(
        tmp_path / "f" / "band_coverage_n80.csv"
    )


def test_band_coverage_resume_with_fewer_reps_raises(tmp_path):
    out = tmp_path / "o"
    sec = _band_sections(out)
    sec["generator"]["n"] = "60, 80"
    run_band_coverage(load_config(_write_config(tmp_path / "a.ini", sec)))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    sec["run"]["reps"] = 1
    with pytest.raises(ConfigError, match="replication 2, past reps=1"):
        run_band_coverage(load_config(_write_config(tmp_path / "b.ini", sec)))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_band_coverage_resume_over_a_torn_row_raises(tmp_path):
    # a row cut short, or one whose rep is not an integer, is refused
    # before any work, and every file is left as it was
    out = tmp_path / "o"
    run_band_coverage(load_config(_write_config(tmp_path / "a.ini", _band_sections(out, reps=2))))
    path = out / "band_coverage_n80.csv"
    lines = path.read_text().splitlines()
    for bad in (",".join(lines[2].split(",")[:3]), "x" + lines[2]):
        path.write_text("\n".join([*lines[:2], bad]) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = load_config(_write_config(tmp_path / "b.ini", _band_sections(out, reps=3)))
        with pytest.raises(ConfigError, match=f"{path.name} line 3"):
            run_band_coverage(cfg)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_band_coverage_resume_with_different_draws_raises(tmp_path):
    out = tmp_path / "o"
    run_band_coverage(load_config(_write_config(tmp_path / "a.ini", _band_sections(out))))
    before = (out / "band_coverage_n80.csv").read_bytes()
    other = load_config(_write_config(tmp_path / "b.ini", _band_sections(out, draws=5000)))
    with pytest.raises(ConfigError, match="draws"):
        run_band_coverage(other)
    assert (out / "band_coverage_n80.csv").read_bytes() == before


def test_resume_compares_only_the_keys_the_config_has(tmp_path):
    out = tmp_path / "o"
    run_band_coverage(load_config(_write_config(tmp_path / "a.ini", _band_sections(out, reps=2))))
    manifest = out / "band_coverage_manifest.json"
    blob = json.loads(manifest.read_text())
    # the removed series keys at their last defaults, as older manifests carry them
    blob["config"].update(j_max=8, decay=2.0, noise_sd=1.0, series_truncations=[])
    manifest.write_text(json.dumps(blob))
    first_two = (out / "band_coverage_n80.csv").read_text().splitlines()[1:3]
    cfg3 = load_config(_write_config(tmp_path / "b.ini", _band_sections(out, reps=3)))
    run_band_coverage(cfg3)
    assert (out / "band_coverage_n80.csv").read_text().splitlines()[1:3] == first_two
    assert json.loads(manifest.read_text())["resumed_reps"]["80"] == 2
    # a key the config still has is compared as before
    current = json.loads(manifest.read_text())
    for key, value in (("d", 7), ("family", "series")):
        changed = {**current, "config": {**current["config"], key: value}}
        manifest.write_text(json.dumps(changed))
        with pytest.raises(ConfigError, match=f"differs in {key};"):
            run_band_coverage(cfg3)


def test_band_coverage_full_rerun_is_bitwise_stable(tmp_path):
    out = tmp_path / "o"
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(out)))
    run_band_coverage(cfg)
    before = (out / "band_coverage_n80.csv").read_bytes()
    run_band_coverage(cfg)
    assert (out / "band_coverage_n80.csv").read_bytes() == before


def test_band_rows_nested_across_alpha(tmp_path):
    sec = _band_sections(tmp_path / "o", alphas="0.5, 0.05", reps=8, draws=2000)
    sec["generator"].update({"n": 60, "d": 4})
    sec["learners"]["lasso_count"] = 3
    cfg = load_config(_write_config(tmp_path / "c.ini", sec))
    run_band_coverage(cfg)
    header, rows = _read_rows(tmp_path / "o" / "band_coverage_n60.csv")
    assert [r["alpha"] for r in rows[:2]] == [repr(0.5), repr(0.05)]
    for rep in range(8):
        wide, narrow = rows[2 * rep + 1], rows[2 * rep]
        assert wide["alpha"] == repr(0.05) and narrow["alpha"] == repr(0.5)
        # same quantile stream: the alpha=0.05 band contains the alpha=0.5 band
        assert int(narrow["covered"]) <= int(wide["covered"])
        assert int(narrow["size_naive"]) <= int(wide["size_naive"])


def test_per_rep_failures_recorded_not_fatal(tmp_path, monkeypatch):
    # a band computation that fails on every replication: the
    # campaign still completes and reports them
    def failing_band(*args, **kwargs):
        raise DomainError("injected sampler failure")

    monkeypatch.setattr(cli_harness, "simultaneous_band", failing_band)
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o")))
    run_band_coverage(cfg)
    header, rows = _read_rows(tmp_path / "o" / "band_coverage_n80.csv")
    assert rows == []
    blob = json.loads((tmp_path / "o" / "band_coverage_manifest.json").read_text())
    assert blob["reps_completed"]["80"] == 0
    assert len(blob["failures"]["80"]) == 3
    entry = blob["failures"]["80"][0]
    assert entry["rep"] == 0 and "DomainError" in entry["error"]


class _Crash(BaseException):
    """Stands in for an interrupt: not an Exception, so not a per-rep failure."""


def _crash_at(monkeypatch, n, rep, seed=11):
    # the band of replication `rep` at `n` is the one read from its quantile seed's draw
    real = cli_harness.simultaneous_band
    doomed = stable_subseed(seed, "band_coverage-quantile", n, rep)

    def band(*args, **kwargs):
        if kwargs["critical"].seed == doomed:
            raise _Crash(f"injected crash at n={n}, rep={rep}")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_harness, "simultaneous_band", band)


def test_band_coverage_crash_keeps_finished_reps_and_resumes(tmp_path, monkeypatch):
    out = tmp_path / "o"
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(out, reps=4)))
    with monkeypatch.context() as m:
        _crash_at(m, 80, 2)
        with pytest.raises(_Crash):
            run_band_coverage(cfg)
    _, rows = _read_rows(out / "band_coverage_n80.csv")
    assert [r["rep"] for r in rows] == ["0", "1"]
    assert sorted(p.name for p in out.iterdir()) == [
        "band_coverage_manifest.json",
        "band_coverage_n80.csv",
    ]
    # the manifest written before any work is still one summarize.py prints
    summarize = Path(__file__).parents[1] / "scripts" / "summarize.py"
    printed = subprocess.run(
        [sys.executable, str(summarize), str(out / "band_coverage_manifest.json")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "[band_coverage]" in printed.stdout

    run_band_coverage(cfg)
    whole = tmp_path / "w"
    run_band_coverage(
        load_config(_write_config(tmp_path / "w.ini", _band_sections(whole, reps=4)))
    )
    assert _strip_ms(out / "band_coverage_n80.csv") == _strip_ms(
        whole / "band_coverage_n80.csv"
    )
    resumed = json.loads((out / "band_coverage_manifest.json").read_text())
    uninterrupted = json.loads((whole / "band_coverage_manifest.json").read_text())
    assert resumed.pop("resumed_reps") == {"80": 2}
    assert uninterrupted.pop("resumed_reps") == {"80": 0}
    assert resumed == uninterrupted


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread getter, with the count set to 2 for the test."""
    blas = cli_harness._openblas_threads()
    if blas is None:
        pytest.skip("this numpy exports no OpenBLAS thread setter")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def test_pool_workers_run_one_blas_thread_and_restore_the_count(
    tmp_path, monkeypatch, blas_threads
):
    seen = []
    real = cli_harness._band_rows

    def band_rows(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setitem(cli_harness._REP_WORKERS, "band_coverage", band_rows)
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o", threads=2)))
    run_band_coverage(cfg)
    assert seen == [1, 1, 1]
    assert blas_threads() == 2


def test_crash_restores_the_blas_thread_count(tmp_path, monkeypatch, blas_threads):
    cfg = load_config(_write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o", reps=4)))
    with monkeypatch.context() as m:
        _crash_at(m, 80, 2)
        with pytest.raises(_Crash):
            run_band_coverage(cfg)
    assert blas_threads() == 2


def test_campaign_logs_its_worker_model(tmp_path, monkeypatch, caplog, blas_threads):
    caplog.set_level(logging.INFO, logger="cvconf.cli_harness")
    run_band_coverage(
        load_config(_write_config(tmp_path / "a.ini", _band_sections(tmp_path / "a", threads=2)))
    )
    assert caplog.messages == ["band_coverage: 2 workers, 1 BLAS thread each"]
    caplog.clear()
    monkeypatch.setattr(cli_harness, "_openblas_threads", lambda: None)
    run_band_coverage(
        load_config(_write_config(tmp_path / "b.ini", _band_sections(tmp_path / "b", threads=2)))
    )
    assert caplog.messages == ["band_coverage: 2 workers; BLAS threads could not be pinned"]
    assert blas_threads() == 2
    # the worker model stays out of the manifest
    assert (tmp_path / "a" / "band_coverage_manifest.json").read_text() == (
        tmp_path / "b" / "band_coverage_manifest.json"
    ).read_text()


def test_resume_after_crash_with_different_draws_raises(tmp_path, monkeypatch):
    out = tmp_path / "o"
    sec = _band_sections(out, reps=2)
    sec["generator"]["n"] = "60, 80"
    cfg = load_config(_write_config(tmp_path / "a.ini", sec))
    with monkeypatch.context() as m:
        _crash_at(m, 80, 1)
        with pytest.raises(_Crash):
            run_band_coverage(cfg)
    finished = (out / "band_coverage_n60.csv").read_bytes()
    sec["run"]["draws"] = 5000
    other = load_config(_write_config(tmp_path / "b.ini", sec))
    with pytest.raises(ConfigError, match="draws"):
        run_band_coverage(other)
    assert (out / "band_coverage_n60.csv").read_bytes() == finished


# ------------------------------------------------------------ cvc campaign


def _cvc_sections(out):
    return {
        "generator": {"family": "sparse_linear", "n": 60, "d": "n/10", "s": 2, "nu": 50},
        "learners": {"lasso": "doubling"},
        "run": {
            "kind": "cvc_size",
            "V": 5,
            "alphas": "0.1",
            "reps": 3,
            "draws": 3000,
            "seed": 23,
            "out": out,
            "threads": 1,
        },
    }


def test_cvc_size_campaign_matches_library_oracle(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _cvc_sections(tmp_path / "o")))
    run_cvc_size(cfg)
    header, rows = _read_rows(tmp_path / "o" / "cvc_size_n60.csv")
    assert header == list(BASE_COLUMNS) + ["covered_naive"]
    assert len(rows) == 3
    for row in rows:
        assert 1 <= int(row["size_cvc"]) <= 10
        assert 1 <= int(row["size_naive"]) <= 10
        assert row["covered"] in ("0", "1") and row["covered_naive"] in ("0", "1")
    # independent reconstruction of replication 0 from the seed contract
    data_seed = stable_subseed(23, "cvc_size", 60, 0)
    q_seed = stable_subseed(23, "cvc_size-quantile", 60, 0)
    ds, truth = gen_sparse_linear(SparseLinearGen(n=60, d=6, s=2, nu=50, seed=data_seed))
    specs = tuple(
        LearnerSpec(family="lasso", lam=float(lam))
        for lam in lasso_grid(ds.features, ds.response, 5)
    )
    plan = make_folds(60, 5)
    fits = fit_all_folds(ds, specs, plan)
    lm = loss_matrix(ds, fits, plan, "squared")
    # the campaign's own call: one draw, for the band and the set together
    risks, cov = cv_risk(lm), aggregate_covariance(lm)
    critical = critical_values(risks, cov, cfg.alphas, seed=q_seed, draws=cfg.draws)
    base = naive_set(simultaneous_band(risks, cov, 0.1, critical=critical))
    mcs = cvc_set(lm, 0.1, critical=critical)
    from cvconf.cv_engine import average_fitted_risk_oracle

    target = average_fitted_risk_oracle(fits, truth)
    assert int(rows[0]["seed"]) == data_seed
    assert int(rows[0]["size_cvc"]) == len(mcs.members)
    assert int(rows[0]["covered"]) == int(check_coverage(mcs, target))
    assert int(rows[0]["size_naive"]) == len(base.members)
    assert int(rows[0]["covered_naive"]) == int(check_coverage(base, target))


def test_cvc_size_manifest_sizes(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _cvc_sections(tmp_path / "o")))
    run_cvc_size(cfg)
    _, rows = _read_rows(tmp_path / "o" / "cvc_size_n60.csv")
    blob = json.loads((tmp_path / "o" / "cvc_size_manifest.json").read_text())
    agg = blob["aggregates"]["60"][repr(0.1)]
    assert agg["mean_size_cvc"] == pytest.approx(np.mean([int(r["size_cvc"]) for r in rows]))
    assert agg["mean_size_naive"] == pytest.approx(np.mean([int(r["size_naive"]) for r in rows]))
    assert agg["coverage"] == pytest.approx(np.mean([int(r["covered"]) for r in rows]))
    assert agg["coverage_naive"] == pytest.approx(
        np.mean([int(r["covered_naive"]) for r in rows])
    )


@pytest.mark.parametrize("kind", ["cvc_size", "band_coverage"])
def test_one_sampler_call_per_replication(tmp_path, monkeypatch, kind):
    calls = []
    real = inference.max_quantiles

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args[2], out[1]))
        return out

    monkeypatch.setattr(inference, "max_quantiles", counted)
    sec = _cvc_sections(tmp_path / "o") if kind == "cvc_size" else _band_sections(tmp_path / "o")
    sec["run"]["alphas"] = "0.1, 0.5"
    cfg = load_config(_write_config(tmp_path / "c.ini", sec))
    worker = cli_harness._REP_WORKERS[kind]
    for rep in range(3):
        rows = worker(cfg, cfg.n_list[0], rep)
        assert [r["alpha"] for r in rows] == [repr(0.1), repr(0.5)]
        assert len(calls) == rep + 1
    assert all(alphas == (0.1, 0.5) and rank >= 1 for alphas, rank in calls)


def test_cvc_size_deterministic_across_threads(tmp_path, monkeypatch):
    decided = []
    real = cli_harness.cvc_set

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        decided.extend(out.decided)
        return out

    monkeypatch.setattr(cli_harness, "cvc_set", recorded)
    for name, threads in (("a", 1), ("b", 2)):
        sec = _cvc_sections(tmp_path / name)
        sec["run"]["threads"] = threads
        run_cvc_size(load_config(_write_config(tmp_path / f"{name}.ini", sec)))
    assert "drawn" in decided
    assert _strip_ms(tmp_path / "a" / "cvc_size_n60.csv") == _strip_ms(
        tmp_path / "b" / "cvc_size_n60.csv"
    )
    assert (tmp_path / "a" / "cvc_size_manifest.json").read_text() == (
        tmp_path / "b" / "cvc_size_manifest.json"
    ).read_text()


# ------------------------------------------------------------ fwd campaign


def _fwd_sections(out):
    return {
        "generator": {"family": "sparse_linear", "n": 60, "d": 10, "s": 5, "nu": 100},
        "learners": {
            "forward_steps": "3, 5, 7",
            "lasso": "log",
            "lasso_count": 3,
            "lasso_ratio": 0.05,
        },
        "run": {
            "kind": "fwd_pointwise",
            "V": 5,
            "alphas": "0.1",
            "reps": 2,
            "draws": 2000,
            "seed": 31,
            "out": out,
            "threads": 1,
        },
    }


def test_fwd_pointwise_rows_per_model(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _fwd_sections(tmp_path / "o")))
    run_fwd_pointwise(cfg)
    header, rows = _read_rows(tmp_path / "o" / "fwd_pointwise_n60.csv")
    assert header == list(BASE_COLUMNS) + ["model"]
    labels = ["forward:3", "forward:5", "forward:7", "lasso[0]", "lasso[1]", "lasso[2]"]
    assert len(rows) == 2 * len(labels)
    assert [r["model"] for r in rows[: len(labels)]] == labels
    for row in rows:
        assert row["covered"] in ("0", "1")
        assert row["size_naive"] == "" and row["size_cvc"] == ""


def test_fwd_manifest_per_model_coverage(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _fwd_sections(tmp_path / "o")))
    run_fwd_pointwise(cfg)
    _, rows = _read_rows(tmp_path / "o" / "fwd_pointwise_n60.csv")
    blob = json.loads((tmp_path / "o" / "fwd_pointwise_manifest.json").read_text())
    per_model = blob["aggregates"]["60"][repr(0.1)]["coverage_by_model"]
    want = np.mean([int(r["covered"]) for r in rows if r["model"] == "forward:5"])
    assert per_model["forward:5"] == pytest.approx(want)


# ------------------------------------------------- stability and phi kinds


def _stability_sections(out, variant="first"):
    return {
        "generator": {"family": "bounded_regression", "n": 256, "d": 4, "radius_x": 1.0},
        "learners": {"sgd_lam": 1.6, "sgd_a": 0.6, "sgd_radius_theta": 1.0},
        "run": {
            "kind": "stability",
            "variant": variant,
            "index_mode": "uniform",
            "reps": 6,
            "seed": 3,
            "out": out,
            "threads": 1,
        },
    }


def test_stability_campaign_first(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _stability_sections(tmp_path / "o")))
    run_stability(cfg)
    csv_path = tmp_path / "o" / "stability_first.csv"
    blob = json.loads((tmp_path / "o" / "stability_first.json").read_text())
    assert blob["kind"] == "sgd-first-diff"
    assert blob["violations"] == {"256": 0}
    assert blob["slope"] is None
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 6
    manifest = json.loads((tmp_path / "o" / "stability_manifest.json").read_text())
    assert manifest["aggregates"]["first"]["violations"] == {"256": 0}


def test_stability_campaign_both_and_skip(tmp_path):
    sec = _stability_sections(tmp_path / "o", variant="both")
    sec["run"]["reps"] = 3
    cfg = load_config(_write_config(tmp_path / "c.ini", sec))
    run_stability(cfg)
    for variant, kind in (("first", "sgd-first-diff"), ("second", "sgd-second-diff")):
        blob = json.loads((tmp_path / "o" / f"stability_{variant}.json").read_text())
        assert blob["kind"] == kind
    before = (tmp_path / "o" / "stability_second.csv").read_bytes()
    run_stability(cfg)
    assert (tmp_path / "o" / "stability_second.csv").read_bytes() == before
    manifest = json.loads((tmp_path / "o" / "stability_manifest.json").read_text())
    assert sorted(manifest["skipped"]) == ["first", "second"]


def test_stability_both_writes_the_bytes_of_separate_variants(tmp_path):
    artifacts = {}
    for variant in ("both", "first", "second"):
        sec = _stability_sections(tmp_path / variant, variant=variant)
        sec["generator"]["n"] = "256, 300"
        sec["run"]["reps"] = 3
        run_stability(load_config(_write_config(tmp_path / f"{variant}.ini", sec)))
        artifacts[variant] = {
            p.name: p.read_bytes() for p in (tmp_path / variant).glob("stability_*")
        }
    for variant in ("first", "second"):
        for ext in ("csv", "json"):
            name = f"stability_{variant}.{ext}"
            assert artifacts["both"][name] == artifacts[variant][name]


def test_stability_resume_runs_only_the_missing_variant(tmp_path, monkeypatch):
    sec = _stability_sections(tmp_path / "o", variant="both")
    sec["run"]["reps"] = 3
    cfg = load_config(_write_config(tmp_path / "c.ini", sec))
    run_stability(cfg)
    out = tmp_path / "o"
    first = (out / "stability_first.csv").read_bytes()
    second = (out / "stability_second.csv").read_bytes()
    for ext in ("csv", "json"):
        (out / f"stability_second.{ext}").unlink()
    calls = []
    real = cli_harness.sgd_campaigns

    def recording(variants, *args, **kwargs):
        calls.append(tuple(variants))
        return real(variants, *args, **kwargs)

    monkeypatch.setattr(cli_harness, "sgd_campaigns", recording)
    run_stability(cfg)
    assert calls == [("second",)]
    assert (out / "stability_first.csv").read_bytes() == first
    assert (out / "stability_second.csv").read_bytes() == second
    manifest = json.loads((out / "stability_manifest.json").read_text())
    assert manifest["skipped"] == ["first"]
    assert sorted(manifest["files"]) == ["first", "second"]


def _refused_resume(argv, out, capsys, name):
    """``main(argv)`` exits 2 with one error line naming ``name``, and every
    file in ``out`` is left as it was."""
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cvconf: error: ") and err.count("\n") == 1 and name in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_stability_resume_over_a_json_that_does_not_parse_is_refused(tmp_path, capsys):
    p = _write_config(tmp_path / "c.ini", _stability_sections(tmp_path / "o", variant="both"))
    assert main(["stability", "--config", str(p)]) == 0
    (tmp_path / "o" / "stability_first.json").write_text("not json")
    argv = ["stability", "--config", str(p)]
    _refused_resume(argv, tmp_path / "o", capsys, "stability_first.json")


def _phi_sections(out):
    return {
        "generator": {"family": "sparse_linear", "n": 40, "d": 3, "s": 2, "nu": 10},
        "learners": {"forward_steps": "0"},
        "run": {
            "kind": "phi",
            "variant": "both",
            "holdout_m": 8,
            "V": 5,
            "reps": 1,
            "seed": 5,
            "out": out,
            "threads": 1,
        },
    }


def test_phi_campaign_matches_library_oracle(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _phi_sections(tmp_path / "o")))
    run_phi(cfg)
    for variant in ("pair", "perturb"):
        sidecar = json.loads((tmp_path / "o" / f"phi_{variant}_n40.json").read_text())
        assert sidecar["n"] == 40 and sidecar["m"] == 8 and sidecar["variant"] == variant
    text = (tmp_path / "o" / "phi_pair_n40.csv").read_text().strip().splitlines()
    got = float(text[-1].split(",")[-1])
    ds, _ = gen_sparse_linear(
        SparseLinearGen(n=40, d=3, s=2, nu=10, seed=stable_subseed(5, "phi", 40))
    )
    hold_ds, _ = gen_sparse_linear(
        SparseLinearGen(n=8, d=3, s=2, nu=10, seed=stable_subseed(5, "phi-holdout", 40))
    )
    est = phi_pair(
        ds,
        (LearnerSpec(family="forward", steps=0),),
        make_folds(40, 5),
        HoldoutSet.from_dataset(hold_ds),
    )
    assert got == float(est.phi[0, 0])
    manifest = json.loads((tmp_path / "o" / "phi_manifest.json").read_text())
    assert manifest["aggregates"]["pair"]["40"]["diag"] == [float(est.phi[0, 0])]


def test_phi_campaign_rerun_bitwise(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", _phi_sections(tmp_path / "o")))
    run_phi(cfg)
    before = (tmp_path / "o" / "phi_perturb_n40.csv").read_bytes()
    run_phi(cfg)
    assert (tmp_path / "o" / "phi_perturb_n40.csv").read_bytes() == before


def _phi_bytes(out, threads) -> dict[str, bytes]:
    """The phi CSVs and JSONs of a mixed-bank campaign at two n."""
    sec = _phi_sections(out)
    sec["generator"].update(n="40, 60", d=4)
    sec["learners"] = {"forward_steps": "0, 2", "ridge_lams": "0.1", "lasso": "doubling"}
    sec["run"]["threads"] = threads
    run_phi(load_config(_write_config(Path(f"{out}.ini"), sec)))
    assert multiprocessing.active_children() == []
    return {p.name: p.read_bytes() for p in sorted(Path(out).glob("phi_*_n*.*"))}


def test_phi_bytes_do_not_depend_on_the_worker_count(tmp_path):
    one = _phi_bytes(tmp_path / "one", 1)
    assert len(one) == 8
    assert _phi_bytes(tmp_path / "two", 2) == one


def test_phi_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch, blas_threads):
    seen = []
    real = cli_harness.phi_pair

    def phi_pair(*args, **kwargs):
        seen.append(blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_harness, "phi_pair", phi_pair)
    set_threads = cli_harness._openblas_threads()[0]
    set_threads(1)
    want = _phi_bytes(tmp_path / "blas1", 1)
    set_threads(2)
    for threads in (1, 2):
        assert _phi_bytes(tmp_path / f"blas2-{threads}", threads) == want
        assert blas_threads() == 2
    assert seen == [1] * 6  # two n per run


def test_phi_resume_over_a_cell_that_is_not_a_number_is_refused(tmp_path, capsys):
    p = _write_config(tmp_path / "c.ini", _phi_sections(tmp_path / "o"))
    assert main(["phi", "--config", str(p)]) == 0
    path = tmp_path / "o" / "phi_pair_n40.csv"
    path.write_text("abc\n")
    _refused_resume(["phi", "--config", str(p)], tmp_path / "o", capsys, path.name)


@pytest.mark.parametrize(
    "name, blob",
    [
        ("phi_pair_n40.json", {}),
        ("phi_perturb_n40.json", {"n": 999, "variant": "perturb"}),
        # every key, but a p that is not the CSV's 1 x 1
        ("phi_pair_n40.json", {
            "n": 40, "m": 8, "variant": "pair", "seed": 5, "p": 2, "indices": [0],
            "model_labels": ["forward:0"],
        }),
    ],
)
def test_phi_resume_over_a_sidecar_it_did_not_write_is_refused(tmp_path, capsys, name, blob):
    p = _write_config(tmp_path / "c.ini", _phi_sections(tmp_path / "o"))
    assert main(["phi", "--config", str(p)]) == 0
    (tmp_path / "o" / name).write_text(json.dumps(blob))
    _refused_resume(["phi", "--config", str(p)], tmp_path / "o", capsys, name)


@pytest.mark.parametrize("text", ["{", "[]", '{"config": [1]}', '{"config": "x"}'])
def test_resume_over_a_manifest_that_does_not_parse_is_refused(tmp_path, capsys, text):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o", reps=2))
    assert main(["coverage", "--config", str(p)]) == 0
    (tmp_path / "o" / "band_coverage_manifest.json").write_text(text)
    argv = ["coverage", "--config", str(p)]
    _refused_resume(argv, tmp_path / "o", capsys, "band_coverage_manifest.json")


def test_phi_resume_with_different_seed_raises(tmp_path):
    sec = _phi_sections(tmp_path / "o")
    sec["run"]["seed"] = 1
    run_phi(load_config(_write_config(tmp_path / "a.ini", sec)))
    manifest = (tmp_path / "o" / "phi_manifest.json").read_bytes()
    sec["run"]["seed"] = 2
    with pytest.raises(ConfigError, match="seed"):
        run_phi(load_config(_write_config(tmp_path / "b.ini", sec)))
    assert (tmp_path / "o" / "phi_manifest.json").read_bytes() == manifest


# -------------------------------------------------------------------- CLI


def test_main_gen_writes_dataset(tmp_path):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    assert main(["gen", "--config", str(p), "--out", str(tmp_path / "g")]) == 0
    table = np.loadtxt(tmp_path / "g" / "dataset_n80.csv", delimiter=",", skiprows=1)
    assert table.shape == (80, 7)
    want, _ = gen_sparse_linear(
        SparseLinearGen(n=80, d=6, s=2, nu=50, seed=stable_subseed(11, "gen", 80))
    )
    np.testing.assert_allclose(table[:, 1:], want.features, rtol=0, atol=1e-12)


def test_main_band_and_cvc_one_shots(tmp_path):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    assert main(["band", "--config", str(p)]) == 0
    blob = json.loads((tmp_path / "o" / "band.json").read_text())
    entry = blob["bands"][0]
    assert entry["alpha"] == 0.2
    assert len(entry["band"]["lower"]) == 4
    assert entry["band"]["kind"] == "simultaneous"
    assert main(["cvc", "--config", str(p)]) == 0
    sets = json.loads((tmp_path / "o" / "cvc.json").read_text())["sets"]
    assert sets[0]["set"]["method"] == "cvc"
    assert len(sets[0]["set"]["members"]) >= 1


def test_one_shots_share_the_exported_dataset(tmp_path):
    # the band's centers are the CV risks of the very rows `gen` exported
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    assert main(["gen", "--config", str(p)]) == 0
    assert main(["band", "--config", str(p)]) == 0
    table = np.loadtxt(tmp_path / "o" / "dataset_n80.csv", delimiter=",", skiprows=1)
    ds = Dataset(table[:, 1:], table[:, 0])
    specs, _ = cli_harness._build_bank(load_config(p), ds)
    plan = make_folds(80, 5)
    risks = cv_risk(loss_matrix(ds, fit_all_folds(ds, specs, plan), plan, "squared"))
    band = json.loads((tmp_path / "o" / "band.json").read_text())["bands"][0]["band"]
    np.testing.assert_array_equal(risks.values, band["center"])


def test_one_shots_record_the_factor_rank(tmp_path, monkeypatch):
    ranks = []
    real = inference.max_quantiles

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        ranks.append(out[1])
        return out

    monkeypatch.setattr(inference, "max_quantiles", recorded)
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o", alphas="0.2, 0.05"))
    assert main(["band", "--config", str(p)]) == 0
    blob = json.loads((tmp_path / "o" / "band.json").read_text())
    assert ranks == [blob["rank"]] and 1 <= blob["rank"] <= len(blob["labels"])
    assert [e["alpha"] for e in blob["bands"]] == [0.2, 0.05]
    assert main(["cvc", "--config", str(p)]) == 0
    blob = json.loads((tmp_path / "o" / "cvc.json").read_text())
    drawn = any("drawn" in e["set"]["decided"] for e in blob["sets"])
    assert blob["rank"] == (ranks[1] if drawn else 0) and len(ranks) == 1 + drawn


def test_main_coverage_subcommand_with_overrides(tmp_path):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    out = tmp_path / "cli_out"
    assert main(
        ["coverage", "--config", str(p), "--seed", "77", "--reps", "2", "--out", str(out)]
    ) == 0
    _, rows = _read_rows(out / "band_coverage_n80.csv")
    assert len(rows) == 2
    assert int(rows[0]["seed"]) == stable_subseed(77, "band_coverage", 80, 0)


def test_main_kind_mismatch_errors(tmp_path, capsys):
    p = _write_config(tmp_path / "c.ini", _cvc_sections(tmp_path / "o"))
    assert main(["coverage", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    want = "config kind is 'cvc_size' but this campaign runs 'band_coverage'"
    assert err == f"cvconf: error: {want}\n"


@pytest.mark.parametrize(
    "command, sections",
    [
        ("gen", _stability_sections),
        ("band", _stability_sections),
        ("cvc", _stability_sections),
        ("band", _phi_sections),
        ("cvc", _phi_sections),
    ],
)
def test_one_shots_refuse_a_kind_they_cannot_run(tmp_path, capsys, command, sections):
    # refused before the output directory is made; main reports it in one line
    cfg = load_config(_write_config(tmp_path / "c.ini", sections(tmp_path / "o")))
    with pytest.raises(ConfigError, match=f"{command} cannot run a config of kind '{cfg.kind}'"):
        if command == "gen":
            cli_harness._one_shot_gen(cfg)
        else:
            cli_harness._one_shot(cfg, command)
    assert main([command, "--config", str(tmp_path / "c.ini")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cvconf: error: ") and err.count("\n") == 1
    assert "Traceback" not in err and cfg.kind in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, sections",
    [("coverage", _band_sections), ("phi", _phi_sections), ("stability", _stability_sections)],
    ids=["coverage", "phi", "stability"],
)
def test_a_negative_seed_is_refused_before_anything_is_written(tmp_path, capsys, command, sections):
    p = _write_config(tmp_path / "c.ini", sections(tmp_path / "o"))
    with pytest.raises(ConfigError, match="seed >= 0"):
        load_config(p, seed=-1)
    assert main([command, "--config", str(p), "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cvconf: error: need seed >= 0") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_reports_a_bad_config_file_in_one_line(tmp_path, capsys):
    p = tmp_path / "c.ini"
    p.write_text("[run]\nkind = band_coverage\nreps = many\n")
    assert main(["coverage", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cvconf: error: bad value for 'reps'") and err.count("\n") == 1


def test_main_reports_an_output_path_that_is_a_file_in_one_line(tmp_path, capsys):
    p = _write_config(tmp_path / "c.ini", _band_sections(tmp_path / "o"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["gen", "--config", str(p), "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cvconf: error: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_main_rejects_band_kind_for_series_generator(tmp_path):
    # bounded_regression has no risk oracle; series is no longer a generator
    sec = _band_sections(tmp_path / "o")
    for family in ("bounded_regression", "series"):
        sec["generator"] = {"family": family, "n": 80}
        with pytest.raises(ConfigError, match=family):
            load_config(_write_config(tmp_path / "c.ini", sec))


def test_resolve_workers_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(cli_harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli_harness.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cli_harness._resolve_workers(SimpleNamespace(threads=0)) == 2
    assert cli_harness._resolve_workers(SimpleNamespace(threads=3)) == 3
    monkeypatch.delattr(cli_harness.os, "sched_getaffinity")
    assert cli_harness._resolve_workers(SimpleNamespace(threads=0)) == 8
