"""The names the benchmark and its kernel-cost script read from cvconf
resolve, so a refactor of ``src/`` that breaks them fails here rather than
in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from cvconf import cli_harness

REPO = Path(__file__).resolve().parents[1]


def _load(monkeypatch, name: str, path: str):
    """Execute the file ``path`` of the repo as module ``name``, registered in
    sys.modules for the test only, so the benchmark's own imports find it."""
    spec = importlib.util.spec_from_file_location(name, REPO / path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_modules_load_and_name_harness_functions(monkeypatch):
    # bench/run.py puts src/ on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load(monkeypatch, "checks", "bench/checks.py")
    tracer = _load(monkeypatch, "tracer", "bench/tracer.py")
    run = _load(monkeypatch, "bench_run", "bench/run.py")
    assert run.WORKLOADS
    for workload in run.WORKLOADS.values():
        for name in (workload.runner, *workload.capture):
            assert callable(getattr(cli_harness, name)), name
    module, name = tracer.POOL_ITEM
    assert callable(getattr(importlib.import_module(f"cvconf.{module}"), name))
    assert callable(cli_harness._timed_lines)


def test_the_kernel_cost_problems_build(monkeypatch):
    kernel_cost = _load(monkeypatch, "kernel_cost", "scripts/kernel_cost.py")
    grams, corrs, lams = kernel_cost.phi_wide_problems(2)
    assert grams.shape == (2, 100, 100) and corrs.shape == (2, 100) and lams.size == 10
    assert np.all(np.isfinite(grams)) and np.all(np.isfinite(corrs))
