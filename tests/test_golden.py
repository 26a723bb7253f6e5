"""Golden bytes: seeded stability runs write exactly the files listed in
``golden_stability.sha256``.

The list holds the sha256 of every file that ``cvconf stability`` writes
at ``--reps 2`` for the benchmark's ``sgd_stability.ini`` (``--seed 1``)
and the shipped ``stability.ini`` (``--seed 20253``, its own seed).  It
was taken with numpy 2.4 and its bundled OpenBLAS on x86-64.  A change
that means to move these bytes regenerates the list and says why; that
is an edit to a check.
"""

import hashlib
from pathlib import Path

import pytest

from cvconf.cli_harness import main

REPO = Path(__file__).parents[1]
GOLDEN = Path(__file__).with_name("golden_stability.sha256")
RUNS = {
    "sgd_stability": (REPO / "bench/configs/sgd_stability.ini", 1),
    "stability": (REPO / "scripts/configs/stability.ini", 20253),
}


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_seeded_stability_outputs_match_the_golden_bytes(run, tmp_path):
    config, seed = RUNS[run]
    out = tmp_path / run
    argv = ["stability", "--config", str(config), "--seed", str(seed), "--reps", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    got = {f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    want = {name: digest for name, digest in _golden().items() if name.startswith(f"{run}/")}
    assert len(want) == 5
    assert got == want
