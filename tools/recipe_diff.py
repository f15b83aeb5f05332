"""Compare the CSV files of two output trees cell by cell.

Usage: ``python tools/recipe_diff.py DIR_A DIR_B``.  For each ``*.csv``
under either directory whose bytes differ from the file at the same
relative path under the other, it prints one line: the path, the number of
differing cells and the largest relative difference among them,
|a - b| / max(|a|, |b|).  A differing cell that is not a number on both
sides makes that difference ``nan``; a file of another shape, or on one
side only, is named as such.  So a change in the last bits of a recipe's
numbers shows its size, which ``diff -rq`` does not.  The exit status is 1
if any CSV differs, else 0.

A file whose text parses as a JSON object, as ``recipe --format json``
writes into the recipe's ``.csv`` names, is read as the rows of its CSV
form: its ``columns``, each of its ``rows`` and each of its ``notes``, with
each cell as its JSON text, so that 1 and 1.0 differ (by 0).  Any other
file is read as CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return list(csv.reader(io.StringIO(text, newline="")))
    rows = [payload.get("columns", []), *payload.get("rows", [])]
    rows += [[note] for note in payload.get("notes", [])]
    return [[json.dumps(cell) for cell in row] for row in rows]


def _relative(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.nan
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.nan


def compare(path_a: Path, path_b: Path) -> str | None:
    """One line on how two CSV files differ, or None if their bytes are equal."""
    if path_a.read_bytes() == path_b.read_bytes():
        return None
    rows_a, rows_b = _rows(path_a), _rows(path_b)
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return "differ in shape"
    pairs = [(a, b) for ra, rb in zip(rows_a, rows_b) for a, b in zip(ra, rb) if a != b]
    # max() would drop a nan; a non-numeric difference must show.
    worst = max((_relative(a, b) for a, b in pairs), key=lambda r: (math.isnan(r), r),
                default=0.0)
    return f"{len(pairs)} cells differ, max relative difference {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/recipe_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b) for p in d.rglob("*.csv")})
    differ = False
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            line = f"only in {dir_a if a.is_file() else dir_b}"
        else:
            line = compare(a, b)
        if line is not None:
            differ = True
            print(f"{name}: {line}")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
