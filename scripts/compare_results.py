#!/usr/bin/env python3
"""Compare two copies of results/ by value, for a BLAS whose bytes differ.

    python scripts/compare_results.py COMMITTED_DIR REGENERATED_DIR

The committed bytes rest on a dgemm that fuses each Hadamard layer's
multiply-add. On a BLAS that rounds the two products separately, the last
digits of the full-precision probabilities in JSON move, and so do the
angle search's cells, which sit at a flat maximum. Those values must agree
to PROBABILITY_TOL and SEARCH_TOL; every other cell and key must be equal
as written. Prints each difference and exits 1 if there is any.
"""

import csv
import json
import sys
from pathlib import Path

PROBABILITY_TOL = 1e-12
SEARCH_TOL = 1e-7
# Angle-table columns that follow the search; abs_difference is
# |phase_search - phase_closed_form|.
SEARCH_COLUMNS = {"phase_search", "abs_difference"}


def compare_csv(old: Path, new: Path) -> list[str]:
    with old.open(newline="") as f, new.open(newline="") as g:
        old_rows, new_rows = list(csv.reader(f)), list(csv.reader(g))
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return [f"{old.name}: header or row count differs"]
    header = old_rows[0]
    problems = []
    for line, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
        for column, a, b in zip(header, a_row, b_row):
            if a == b:
                continue
            if column not in SEARCH_COLUMNS or abs(float(a) - float(b)) > SEARCH_TOL:
                problems.append(f"{old.name}:{line} {column}: {a} != {b}")
    return problems


def compare_json(a, b, where: str) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [p for key in a for p in compare_json(a[key], b[key], f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in compare_json(x, y, f"{where}[{i}]")]
    if where.endswith("_prob") and isinstance(a, float) and isinstance(b, float):
        return [] if abs(a - b) <= PROBABILITY_TOL else [f"{where}: {a!r} != {b!r}"]
    return [] if a == b and type(a) is type(b) else [f"{where}: {a!r} != {b!r}"]


def compare_dirs(old_dir: Path, new_dir: Path) -> list[str]:
    old_names = sorted(p.name for p in old_dir.iterdir())
    new_names = sorted(p.name for p in new_dir.iterdir())
    if old_names != new_names:
        return [f"file sets differ: {old_names} != {new_names}"]
    problems = []
    for name in old_names:
        old, new = old_dir / name, new_dir / name
        if old.read_bytes() == new.read_bytes():
            continue
        if name.endswith(".json"):
            problems += compare_json(json.loads(old.read_text()), json.loads(new.read_text()), name)
        elif name.endswith(".csv"):
            problems += compare_csv(old, new)
        else:
            problems.append(f"{name}: bytes differ")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = compare_dirs(Path(argv[0]), Path(argv[1]))
    print("\n".join(problems) or "results agree by value")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
