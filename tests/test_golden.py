"""Golden bytes: seeded runs of every shipped and benchmark config write
exactly the files listed in ``golden.sha256``.

Each run below is one or more ``cvconf`` commands into one fresh
``--out`` directory; the list holds the sha256 of every file there
afterwards, keyed ``<run>/<file>``.  The replication CSVs' ``ms_elapsed``
column is a wall time, so it is dropped by its header name before
hashing.  The runs cover 2 reps of every replicated kind, the phi
campaigns (``phi_wide`` at 1 and 2 workers, which must agree byte for
byte), the stability campaigns (``stability_tail`` at its full 60
trials), the quickstart's one-shot commands, and
a rerun into the same directory for ``phi`` and ``stability``, which
hashes the manifest the skip path writes.  The list was taken with numpy
2.4 and its bundled OpenBLAS on x86-64.  A change that means to move
these bytes regenerates it and says why; that is an edit to a check.
``python3 tests/test_golden.py``, from any directory and without
``PYTHONPATH``, runs every run and only then replaces the list, in one
atomic write, so a run that fails leaves the old list whole.
"""

import hashlib
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script, the package may not be on the path
    sys.path.insert(0, str(REPO / "src"))

from cvconf.cli_harness import main  # noqa: E402
from cvconf.datamodel import _replace_file  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.sha256")
SHIPPED = REPO / "scripts/configs"
BENCH = REPO / "bench/configs"

_SGD_STABILITY = ("stability", BENCH / "sgd_stability.ini", "--seed", "1", "--reps", "2")
_PHI_TRAJECTORY = ("phi", SHIPPED / "phi_trajectory.ini")
_PHI_WIDE = ("phi", BENCH / "phi_wide.ini", "--seed", "1", "--threads")

# run -> (the golden entries it must match, the commands it runs in order)
RUNS = {
    "sgd_stability": ("sgd_stability", [_SGD_STABILITY]),
    "stability": ("stability", [("stability", SHIPPED / "stability.ini", "--reps", "2")]),
    "stability_rerun": ("stability_rerun", [_SGD_STABILITY] * 2),
    "stability_tail": ("stability_tail", [("stability", SHIPPED / "stability_tail.ini")]),
    "coverage": ("coverage", [("coverage", SHIPPED / "band_coverage.ini", "--reps", "2")]),
    "fwd": ("fwd", [("fwd", SHIPPED / "fwd_pointwise.ini", "--reps", "2")]),
    "cvc_size": ("cvc_size", [("cvc-size", SHIPPED / "cvc_size.ini", "--reps", "2")]),
    "cvc_p50": ("cvc_p50", [("cvc-size", BENCH / "cvc_p50.ini", "--seed", "1", "--reps", "2")]),
    "phi_trajectory": ("phi_trajectory", [_PHI_TRAJECTORY]),
    "phi_rerun": ("phi_rerun", [_PHI_TRAJECTORY] * 2),
    "phi_wide_threads1": ("phi_wide", [(*_PHI_WIDE, "1")]),
    "phi_wide_threads2": ("phi_wide", [(*_PHI_WIDE, "2")]),
    "quickstart": (
        "quickstart",
        [(command, SHIPPED / "band_coverage.ini") for command in ("gen", "band", "cvc")],
    ),
}


def _digest(path: Path) -> str:
    """sha256 of a file, a CSV's ``ms_elapsed`` column left out."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = data.decode().splitlines()
        header = lines[0].split(",") if lines else []
        if "ms_elapsed" in header:
            col = header.index("ms_elapsed")
            cells = [line.split(",") for line in lines]
            data = "".join(",".join(c[:col] + c[col + 1 :]) + "\n" for c in cells).encode()
    return hashlib.sha256(data).hexdigest()


def _run(run: str, root: Path) -> dict[str, str]:
    """Run ``run``'s commands into ``root / run``; the digest of each file,
    keyed by the run's golden prefix."""
    prefix, commands = RUNS[run]
    out = root / run
    for command, config, *args in commands:
        assert main([command, "--config", str(config), *args, "--out", str(out)]) == 0
    return {f"{prefix}/{p.name}": _digest(p) for p in sorted(out.iterdir())}


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_seeded_outputs_match_the_golden_bytes(run, tmp_path):
    prefix = RUNS[run][0]
    want = {name: digest for name, digest in _golden().items() if name.startswith(f"{prefix}/")}
    assert want
    assert _run(run, tmp_path) == want


def test_every_shipped_and_bench_config_has_golden_bytes():
    # a new config cannot ship without a run, and so golden entries, of its own
    configs = {*SHIPPED.glob("*.ini"), *BENCH.glob("*.ini")}
    run = {config for _, commands in RUNS.values() for _, config, *_ in commands}
    assert sorted(configs - run) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for run in RUNS:
            digests.update(_run(run, Path(tmp)))
    _replace_file(GOLDEN, "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {GOLDEN}")
