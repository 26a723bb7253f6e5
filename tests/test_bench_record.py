"""The verdicts ``scripts/bench_record.py`` writes, on synthetic pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", REPO / "scripts/bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
verdict = bench_record.verdict

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


def _shifted(by, values=PARENT):
    return [v + by for v in values]


def test_a_claim_is_met_by_nine_wins_in_ten_and_a_gap_beyond_the_parents_iqr():
    assert verdict(PARENT, _shifted(10.0), "higher", 0.25, claimed=True) == "claim met"
    # the same runs read the other way round: a lower-is-better claim
    assert verdict(_shifted(10.0), PARENT, "lower", 0.25, claimed=True) == "claim met"
    # one lost pair of ten still meets it
    change = _shifted(10.0)
    change[0] = PARENT[0] - 1.0
    assert verdict(PARENT, change, "higher", 0.25, claimed=True) == "claim met"
    # the same gain, not claimed, is only within the bound
    assert verdict(PARENT, _shifted(10.0), "higher", 0.25) == "within bound"


def test_a_claim_is_not_met_by_eight_wins_or_a_gap_inside_the_parents_iqr():
    change = _shifted(10.0)
    change[0], change[1] = PARENT[0] - 1.0, PARENT[1]  # one loss, one tie
    assert verdict(PARENT, change, "higher", 0.25, claimed=True) == "within bound"
    # every pair won, but the medians differ by 3 < 4.5
    assert verdict(PARENT, _shifted(3.0), "higher", 0.25, claimed=True) == "within bound"


def test_a_median_worse_than_the_bound_is_worse():
    # +20% of a lower-is-better metric against a 15% bound
    assert verdict(PARENT, [1.2 * v for v in PARENT], "lower", 0.15) == "worse"
    assert verdict(PARENT, [1.1 * v for v in PARENT], "lower", 0.15) == "within bound"
    assert verdict(PARENT, [0.7 * v for v in PARENT], "higher", 0.25) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]  # IQR 45
    assert verdict(wide, _shifted(1.0, wide), "higher", 0.25) == "unresolved"
    assert verdict(wide, _shifted(-50.0, wide), "higher", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(wide, _shifted(100.0, wide), "higher", 0.25) == "within bound"
    assert verdict(wide, _shifted(-100.0, wide), "lower", 0.25) == "within bound"


def test_claims_name_a_benchmark_workload_and_end_to_end_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    claims = bench_record.parse_claims(["phi_wide:units_per_s", "phi_wide:setup_s"], spec)
    assert claims == {"phi_wide": {"units_per_s", "setup_s"}}
    for bad in ("phi_wide", "phi:units_per_s", "phi_wide:units", "phi_wide:trace.spans"):
        with pytest.raises(ValueError, match="WORKLOAD:METRIC"):
            bench_record.parse_claims([bad], spec)
