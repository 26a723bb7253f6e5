"""``scripts/compare_outputs.py`` on two tiny output directories."""

import importlib.util
import math
from pathlib import Path

REPO = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", REPO / "scripts/compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_numbers_and_text_are_compared_file_by_file(tmp_path, capsys):
    a = _write(
        tmp_path / "a",
        {
            "r.csv": "rep,phi,label,ms_elapsed\n0,1.0,x,5\n1,2.0,y,6\n",
            "m.json": '{"phi": [4.0, 0.5], "ok": true, "name": "run"}',
            "same.csv": "a\n1\n",
            "notes.txt": "one\n",
            "only_a.csv": "a\n",
        },
    )
    b = _write(
        tmp_path / "b",
        {
            # a last-bit change, and another wall time, which is left out
            "r.csv": "rep,phi,label,ms_elapsed\n0,1.0000000000000002,x,900\n1,2.0,y,7\n",
            "m.json": '{"phi": [4.5, 0.5], "ok": false, "name": "run"}',
            "same.csv": "a\n1\n",
            "notes.txt": "two\n",
            "only_b.json": "{}",
        },
    )
    assert compare_outputs.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "m.json: 2 numbers, max abs diff 0.5, max rel diff 0.111, text differs",
        "notes.txt: 0 numbers, max abs diff 0, max rel diff 0, text differs",
        "r.csv: 4 numbers, max abs diff 2.22e-16, max rel diff 2.22e-16, text same",
        "same.csv: 1 numbers, max abs diff 0, max rel diff 0, text same",
        f"only_a.csv: only in {a}",
        f"only_b.json: only in {b}",
    ]


def test_nan_and_infinite_differences():
    nan, inf = math.nan, math.inf
    assert compare_outputs.differences([nan, inf, 0.0], [nan, inf, -0.0]) == (0.0, 0.0)
    assert compare_outputs.differences([nan, 1.0], [1.0, 1.0]) == (inf, inf)
    assert compare_outputs.differences([inf], [1.0]) == (inf, inf)
    assert compare_outputs.differences([0.0], [2.0]) == (2.0, 1.0)


def test_a_changed_count_of_numbers_is_a_text_difference(tmp_path):
    a = _write(tmp_path / "a", {"r.csv": "x\n1\n2\n"})
    b = _write(tmp_path / "b", {"r.csv": "x\n1\n"})
    assert compare_outputs.compare(a, b) == [
        "r.csv: 2 numbers, max abs diff 0, max rel diff 0, text differs"
    ]
