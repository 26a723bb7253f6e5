#!/usr/bin/env python3
"""Compare the output files of two runs, number by number.

Usage (from the root of a checkout):

    python3 scripts/compare_outputs.py DIR_A DIR_B

For each file name present in both directories, one line gives the
largest absolute and relative difference over its numbers and whether
the rest of its content matches.  The numbers are every CSV cell that
parses as a float and every JSON number (a bool is text); the rest is
the file with each number replaced by a placeholder, so a changed
label, key, column or count of numbers shows as ``text differs``.  A
file of another kind is compared as text only.  The relative difference
of a and b is |a - b| / max(|a|, |b|), 0 where both are 0; two NaNs
count as equal and one NaN as an infinite difference.  The wall-time
column ``ms_elapsed`` of a CSV is left out, as ``tests/test_golden.py``
leaves it out.  Files found in one directory only are listed after.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

SKIPPED_COLUMNS = ("ms_elapsed",)
NUMBER = "<number>"


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_parts(text: str) -> tuple[list[float], list]:
    """The numeric cells of a CSV in reading order and its text with each
    of them replaced by ``NUMBER``."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    keep = [k for k, name in enumerate(header) if name not in SKIPPED_COLUMNS]
    numbers, skeleton = [], []
    for row in rows:
        cells = [row[k] for k in keep if k < len(row)] + row[len(header):]
        out = []
        for cell in cells:
            value = _float(cell)
            if value is None:
                out.append(cell)
            else:
                numbers.append(value)
                out.append(NUMBER)
        skeleton.append(out)
    return numbers, skeleton


def _json_parts(value) -> tuple[list[float], object]:
    """The numbers of a JSON value in document order and the value with
    each of them replaced by ``NUMBER``."""
    numbers: list[float] = []

    def walk(node):
        if isinstance(node, dict):
            return {key: walk(item) for key, item in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))
            return NUMBER
        return node

    return numbers, walk(value)


def parts(path: Path) -> tuple[list[float], object]:
    """(numbers, the rest) of one output file."""
    text = path.read_text()
    if path.suffix == ".csv":
        return _csv_parts(text)
    if path.suffix == ".json":
        return _json_parts(json.loads(text))
    return [], text


def differences(a: list[float], b: list[float]) -> tuple[float, float]:
    """The largest absolute and relative difference of paired numbers."""
    top_abs = top_rel = 0.0
    for x, y in zip(a, b):
        if math.isnan(x) and math.isnan(y) or x == y:
            continue
        gap = abs(x - y)
        rel = gap / max(abs(x), abs(y))
        # one NaN, or an infinity against a finite number
        top_abs = max(top_abs, math.inf if math.isnan(gap) else gap)
        top_rel = max(top_rel, math.inf if math.isnan(rel) else rel)
    return top_abs, top_rel


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One report line per file name in both directories, then one per
    file found in one of them only."""
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    lines = []
    for name in sorted(names_a & names_b):
        numbers_a, rest_a = parts(dir_a / name)
        numbers_b, rest_b = parts(dir_b / name)
        same = rest_a == rest_b and len(numbers_a) == len(numbers_b)
        top_abs, top_rel = differences(numbers_a, numbers_b)
        lines.append(
            f"{name}: {len(numbers_a)} numbers, max abs diff {top_abs:.3g}, "
            f"max rel diff {top_rel:.3g}, text {'same' if same else 'differs'}"
        )
    for only, names in ((dir_a, names_a - names_b), (dir_b, names_b - names_a)):
        lines += [f"{name}: only in {only}" for name in sorted(names)]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    sys.stdout.writelines(line + "\n" for line in compare(args.dir_a, args.dir_b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
