#!/usr/bin/env python3
"""Campaign benchmark for cvconf: three workloads, end-to-end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cvc_p50 --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of its workload until the timed rounds add up
to ``--seconds``.  A round is one call of a public campaign runner from
``cvconf.cli_harness`` into a fresh output directory, because the runners
skip or resume artifacts that already exist.  After the rounds, the
outputs of every round are checked (see ``checks.py``) and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``units_per_s`` and ``peak_rss_mb``.  With ``--trace 1`` rounds alternate
untraced and traced, and the metrics are per-layer self times and counts
per unit of work from the traced rounds (see ``tracer.py``), plus the
tracing overhead.  The package is imported from ``src/`` of the checkout,
as the tests do with ``PYTHONPATH=src``; it is not installed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import cvconf
    from cvconf import (
        cli_harness,
        covariance,
        cv_engine,
        datamodel,
        det_variance,
        gaussian_mc,
        inference,
        learners,
        simgen,
        stability_lab,
    )
except ImportError as exc:
    sys.exit(f"bench: cannot import cvconf from {ROOT / 'src'}: {exc}")
if Path(cvconf.__file__).resolve().parent != (ROOT / "src" / "cvconf").resolve():
    sys.exit(f"bench: imported cvconf from {cvconf.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402  (after the path set-up above)
import tracer as tracing  # noqa: E402

MODULES = (
    cli_harness,
    covariance,
    cv_engine,
    datamodel,
    det_variance,
    gaussian_mc,
    inference,
    learners,
    simgen,
    stability_lab,
)
SETUP_PROBES = 5
WORKERS = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    config: str
    runner: str
    # cli_harness names whose calls the checks need (arguments and result)
    capture: tuple[str, ...] = ()
    # config overrides besides seed and out
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "cvc_p50": Workload(
        "cvc_p50.ini",
        "run_cvc_size",
        ("simultaneous_band", "cvc_set"),
        {"reps": WORKERS, "threads": WORKERS},
    ),
    "phi_wide": Workload("phi_wide.ini", "run_phi", ("phi_pair", "phi_perturb")),
    "sgd_stability": Workload("sgd_stability.ini", "run_stability"),
}


def round_config(name: str, seed: int, k: int, out: Path):
    wl = WORKLOADS[name]
    key = hashlib.sha256(f"{name}:{seed}:{k}".encode()).digest()
    round_seed = int.from_bytes(key[:4], "little") >> 1
    return cli_harness.load_config(
        HERE / "configs" / wl.config, seed=round_seed, out=str(out), **wl.overrides
    )


# ------------------------------------------------------------------ rounds


@dataclass
class Round:
    k: int
    cfg: object
    out: Path
    seconds: float
    traced: bool
    captured: list
    units: int = 0
    failed: int = 0


class _Capture:
    """Record (name, args, kwargs, result) of calls made through cli_harness."""

    def __init__(self, names):
        self.names, self.calls, self._saved = names, [], []

    def __enter__(self):
        for name in self.names:
            fn = getattr(cli_harness, name)
            self._saved.append((name, fn))
            setattr(cli_harness, name, self._wrap(name, fn))
        return self

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result

        return recorded

    def __exit__(self, *exc):
        for name, fn in reversed(self._saved):
            setattr(cli_harness, name, fn)
        return False


def run_round(name: str, seed: int, k: int, run_dir: Path, tracer=None) -> Round:
    wl = WORKLOADS[name]
    out = run_dir / f"round{k}"
    cfg = round_config(name, seed, k, out)
    with _Capture(wl.capture) as cap:
        if tracer is None:
            t0 = time.perf_counter()
            getattr(cli_harness, wl.runner)(cfg)
            dt = time.perf_counter() - t0
        else:
            with tracer:
                t0 = time.perf_counter()
                with tracer.root("bench.round"):
                    getattr(cli_harness, wl.runner)(cfg)
                dt = time.perf_counter() - t0
    print(f"bench: {name} round {k}{' traced' if tracer else ''}: {dt:.3f} s", file=sys.stderr)
    return Round(k, cfg, out, dt, tracer is not None, cap.calls)


def check_rounds(name: str, rounds: list[Round], seed: int) -> list[str]:
    """Fill in units and failures of each round; return every problem found."""
    problems: list[str] = []
    for rnd in rounds:
        if name == "cvc_p50":
            attempted, rnd.failed, found = checks.check_cvc_round(rnd.out, rnd.cfg, rnd.captured)
            rnd.units = attempted - rnd.failed
        elif name == "phi_wide":
            rnd.units, found = checks.check_phi_round(rnd.out, rnd.cfg, rnd.captured, rnd.k == 0)
        else:
            rnd.units, found = checks.check_sgd_round(rnd.out, rnd.cfg)
        problems += [f"round {rnd.k}: {p}" for p in found]
    if name == "sgd_stability":
        problems += checks.check_sgd_reference(rounds[0].cfg, seed)
    return problems


# ---------------------------------------------------------------- set-up


def setup_probe(name: str) -> None:
    """Do what a run does before its first timed unit, then report the time."""
    round_config(name, 0, 0, OUT / "probe")
    print(f"READY {time.monotonic()!r}", flush=True)


def setup_seconds(name: str) -> list[float]:
    """Process start to ready, measured on fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--probe-setup"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        out.append(float(ready[-1].split()[1]) - t0)
    return out


# ---------------------------------------------------------------- metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


# per-layer timings and call counts named in the README
SELF_TIMES = (
    "gaussian_mc.max_quantile",
    "gaussian_mc.psd_factor",
    "covariance.aggregate_covariance",
    "covariance.difference_covariance",
    "inference.simultaneous_band",
    "inference.naive_set",
    "inference.cvc_set",
    "learners.fit_lasso",
    "learners.fit_ridge",
    "learners.fit_forward",
    "learners.fit_sgd",
    "cv_engine.fit_all_folds",
    "cv_engine.loss_matrix",
    "cv_engine.replace_one_cv_risk",
    "det_variance.phi_pair",
    "det_variance.phi_perturb",
    "stability_lab.param_first_diff",
    "stability_lab.param_second_diff",
)
CALLS = (
    "gaussian_mc.max_quantile",
    "gaussian_mc.psd_factor",
    "covariance.difference_covariance",
    "learners.fit_lasso",
    "learners.fit_sgd",
    "cv_engine.replace_one_cv_risk",
)
COUNTS = (
    "gaussian_mc.normals_drawn",
    "learners.lasso_sweeps",
    "learners.lasso_gram_builds",
    "learners.sgd_steps",
)
GROUPS = {
    "stability_lab.campaign.s": (
        "stability_lab.sgd_first_diff_campaign",
        "stability_lab.sgd_second_diff_campaign",
    ),
}
LAYERS = ("bench",) + tuple(m.__name__.rsplit(".", 1)[-1] for m in MODULES)


def layer_metrics(tracer, traced: list[Round], untraced: list[Round]):
    self_s, wait_s, calls, threads = tracing.analyse(tracer.spans)
    units = sum(r.units for r in traced)
    per = 1.0 / units
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.s"] = _metric(self_s[name] * per, "s/unit")
    for name in CALLS:
        m[f"{name}.calls"] = _metric(calls[name] * per, "count/unit")
    for name in COUNTS:
        m[name] = _metric(tracer.counts[name] * per, "count/unit")
    for metric, names in GROUPS.items():
        m[metric] = _metric(sum(self_s[n] for n in names) * per, "s/unit")

    def layer_total(layer, table):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    m["simgen.generate.s"] = _metric(layer_total("simgen", self_s) * per, "s/unit")
    m["cli_harness.campaign.s"] = _metric(layer_total("cli_harness", self_s) * per, "s/unit")
    m["cli_harness.pool_wait.s"] = _metric(layer_total("cli_harness", wait_s) * per, "s/unit")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = _metric(layer_total(layer, self_s) * per, "s/unit")
    cost = [statistics.median(r.seconds / r.units for r in rs) for rs in (traced, untraced)]
    m["trace.overhead_s"] = _metric(cost[0] - cost[1], "s/unit")
    m["trace.spans"] = _metric(len(tracer.spans) * per, "count/unit")
    gap = max(abs(root - parts) for root, parts in threads.values())
    m["trace.balance_err_s"] = _metric(gap, "s")
    return m, self_s, wait_s, threads, gap


def write_trace(name, seed, tracer, self_s, wait_s, threads) -> Path:
    path = OUT / f"trace-{name}-seed{seed}.json"
    blob = {
        "workload": name,
        "seed": seed,
        "columns": ["id", "name", "start", "end", "parent", "thread"],
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "self_s": dict(self_s),
        "wait_s": {k: v for k, v in wait_s.items() if v},
        "threads": {str(t): {"root_s": a, "self_plus_wait_s": b} for t, (a, b) in threads.items()},
    }
    path.write_text(json.dumps(blob) + "\n")
    return path


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        setup_probe(args.workload)
        return 0
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    name = args.workload
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        metrics = {}
        if not args.trace:
            setup = setup_seconds(name)
            print(f"bench: setup probes {[round(s, 3) for s in setup]}", file=sys.stderr)
        rounds: list[Round] = []
        tracer = tracing.Tracer(MODULES) if args.trace else None
        timed = 0.0
        while timed < args.seconds:
            rnd = run_round(name, args.seed, len(rounds), run_dir)
            rounds.append(rnd)
            timed += rnd.seconds
            if tracer is not None:
                rnd = run_round(name, args.seed, len(rounds), run_dir, tracer)
                rounds.append(rnd)
                timed += rnd.seconds
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = check_rounds(name, rounds, args.seed)
        attempted = sum(r.units + r.failed for r in rounds)
        failed = sum(r.failed for r in rounds)
        if tracer is None:
            rates = [r.units / r.seconds for r in rounds]
            print(f"bench: units/s per round {[round(x, 4) for x in rates]}", file=sys.stderr)
            metrics["setup_s"] = _metric(statistics.median(setup), "s")
            metrics["units_per_s"] = _metric(sum(r.units for r in rounds) / timed, "1/s")
            metrics["peak_rss_mb"] = _metric(peak_mb, "MiB")
        else:
            traced = [r for r in rounds if r.traced]
            plain = [r for r in rounds if not r.traced]
            metrics, self_s, wait_s, threads, gap = layer_metrics(tracer, traced, plain)
            if gap > 1e-6:
                problems.append(f"layer self and wait times miss a thread's wall time by {gap} s")
            path = write_trace(name, args.seed, tracer, self_s, wait_s, threads)
            print(f"bench: spans written to {path}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
