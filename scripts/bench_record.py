#!/usr/bin/env python3
"""Record a before/after benchmark comparison as one BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 scripts/bench_record.py --base HEAD --label 7 [--claim WORKLOAD:METRIC ...]

``--base`` names a git revision; its committed files are exported into a
temporary directory and serve as the parent tree.  The checkout this
script lives in (working tree included) is the changed tree.  For every
workload in ``BENCHMARK.json`` the script runs ``bench/run.py --trace 0
--seconds <run_seconds>`` in both trees, ``PAIRS`` times each, with
seeds 1..PAIRS.  The two runs of a pair
share a seed and alternate order (parent first on odd pairs, change
first on even ones), so slow drift of the machine hits both sides.  Each
run is a fresh process started from its own tree, so it imports that
tree's ``src/``.

The output holds every run (seed, order, wall time, the run's JSON
line), per side the median and quartiles of each end-to-end metric, per
pair the change/parent ratio and how many pairs the change won, an
environment block, and the Tier-1 wall time of both trees.  Each
end-to-end metric of each workload also gets a ``verdict`` (see
``verdict``) against the bound ``BENCHMARK.json`` fixes for it; a metric
named by ``--claim WORKLOAD:METRIC`` (repeatable) is a claimed gain.  The
record is written to ``BENCH_<label>.json`` at the root of the checkout
after each workload.  Nothing else should run on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from cvconf.cli_harness import _openblas_threads  # noqa: E402
from cvconf.datamodel import write_json_atomic  # noqa: E402

PAIRS = 10  # the fewest alternating pairs that can back a claimed gain
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


def export_tree(rev: str, dest: Path) -> Path:
    """Committed files of ``rev`` under ``dest`` (git archive, no worktree)."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return {"wall_s": wall, "result": json.loads(lines[-1])}


def tier1(tree: Path) -> dict:
    """Wall time, summary line and slowest tests of the Tier-1 suite in ``tree``."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        TIER1, cwd=tree, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [ln for ln in lines if ln.split()[1:2] == ["call"]]
    return {"wall_s": wall, "returncode": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": slowest}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            claimed: bool = False) -> str:
    """How the change's runs of one metric compare with the parent's, pair by pair.

    ``parent[k]`` and ``change[k]`` are the two runs of pair k; ``better``
    is ``"higher"`` or ``"lower"`` and ``bound`` the relative worsening
    ``BENCHMARK.json`` allows.

    - ``"claim met"``: the metric is ``claimed``, the change wins at least
      nine tenths of the pairs (ties count for neither side), and its
      median is better than the parent's by more than the parent's
      interquartile range.
    - ``"unresolved"``: the parent's interquartile range exceeds the bound
      (relative to its median), so the runs cannot tell a regression,
      unless every run of the change is better than every run of the
      parent.
    - ``"worse"``: the change's median is worse than the parent's by more
      than the bound.
    - ``"within bound"``: otherwise, including a claimed gain not met.
    """
    sign = 1.0 if better == "higher" else -1.0
    base, new = quartiles(parent), quartiles(change)
    gain = sign * (new["median"] - base["median"])
    wins = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
    if claimed and 10 * wins >= 9 * len(parent) and gain > base["iqr"]:
        return "claim met"
    beats_all = min(sign * c for c in change) > max(sign * a for a in parent)
    if base["iqr"] > bound * abs(base["median"]) and not beats_all:
        return "unresolved"
    if -gain > bound * abs(base["median"]):
        return "worse"
    return "within bound"


def parse_claims(values: list[str], spec: dict) -> dict[str, set[str]]:
    """``WORKLOAD:METRIC`` strings as the claimed metrics of each workload,
    each name checked against ``BENCHMARK.json``."""
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    claims: dict[str, set[str]] = {}
    for value in values:
        workload, _, metric = value.partition(":")
        if workload not in workloads or metric not in metrics:
            raise ValueError(f"--claim {value!r}: need WORKLOAD:METRIC, a workload of "
                             f"{sorted(workloads)} and an end-to-end metric of {sorted(metrics)}")
        claims.setdefault(workload, set()).add(metric)
    return claims


def summarize(pairs: list[dict], end_to_end: dict[str, dict], claimed: set[str]) -> dict:
    """Per-metric medians and quartiles per side, the pairwise comparison
    and its verdict.

    ``end_to_end`` maps each metric name to its ``BENCHMARK.json`` entry
    (``better`` and ``bound``); ``claimed`` names the claimed metrics.
    """
    out = {}
    for name, spec in pairs[0]["parent"]["result"]["metrics"].items():
        side = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        ratios = [c / a for a, c in zip(side["parent"], side["change"])]
        better, bound = end_to_end[name]["better"], end_to_end[name]["bound"]
        higher = better == "higher"
        wins = sum((c > a) if higher else (c < a) for a, c in zip(side["parent"], side["change"]))
        out[name] = {
            "unit": spec["unit"],
            "better": better,
            "bound": bound,
            "parent": quartiles(side["parent"]),
            "change": quartiles(side["change"]),
            "ratio_change_over_parent": quartiles(ratios),
            "change_wins": f"{wins}/{len(pairs)}",
            "claimed": name in claimed,
            "verdict": verdict(side["parent"], side["change"], better, bound, name in claimed),
        }
    return out


def environment() -> dict:
    """The machine and libraries; ``fork_start_method`` says whether the phi
    refits could run on their process pool."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _openblas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "usable_cores": cores,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "openblas_threads": blas[1]() if blas is not None else None,
        "fork_start_method": "fork" in multiprocessing.get_all_start_methods(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent tree")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="an end-to-end metric this change claims to improve (repeatable)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        claims = parse_claims(args.claim, spec)
    except ValueError as exc:
        ap.error(str(exc))
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    out = ROOT / f"BENCH_{args.label}.json"
    base_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                              capture_output=True, text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": export_tree(base_sha, Path(tmp)), "change": ROOT}
        record = {
            "label": args.label,
            "base": base_sha,
            "command": f"bench/run.py --trace 0 --seconds {seconds:g} --seed <pair>",
            "claims": sorted(args.claim),
            "env": environment(),
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for k in range(1, PAIRS + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                pair = {"seed": k, "order": list(order)}
                for side in order:
                    pair[side] = bench_run(trees[side], workload, k, seconds)
                    res = pair[side]["result"]
                    print(f"{workload} pair {k} {side}: correct={res['correct']} "
                          f"failed={res['failed']} "
                          + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                          file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {
                "runs": pairs,
                "all_correct": all(p[s]["result"]["correct"] for p in pairs for s in trees),
                "failed": sum(p[s]["result"]["failed"] for p in pairs for s in trees),
                "summary": summarize(pairs, end_to_end, claims.get(workload, set())),
            }
            for metric, res in record["workloads"][workload]["summary"].items():
                print(f"{workload} {metric}: {res['verdict']}", file=sys.stderr)
            write_json_atomic(out, record)
        record["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
        for side, res in record["tier1"].items():
            print(f"tier-1 {side}: {res['wall_s']:.1f} s, {res['summary']}", file=sys.stderr)
    write_json_atomic(out, record)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
