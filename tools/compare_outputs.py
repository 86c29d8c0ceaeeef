#!/usr/bin/env python3
"""Compare the CSV, metadata, stdout and stderr outputs of two runs, file by file.

    python tools/compare_outputs.py DIR_A DIR_B

CSV, ``*_meta.json``, ``stdout.txt`` and ``stderr.txt`` files (the
captured stdout of `tools/standard_outputs.py`, and the exit code and
stderr of its refused runs) are matched by their path relative to each
directory. For each one a line is printed: ``byte-identical``, or per
column two measures of the largest difference: relative to the column's
size in A, max|B - A| / max|A| (the absolute max|B - A| where column A is
all zero), and relative to each value, max |B - A| / |A| (the absolute
|B - A| where A is 0). The second shows what the first hides: a value that
is small beside its column's maximum and moved in its own leading digits.
In a CSV, comment lines (``#``) and the header row must match exactly. In
a metadata file, each numeric leaf is a column named by its key path, and
the items of a list share their list's column (``diagnostics.mass`` holds
the mass of every history sample); every other leaf must match exactly.
A stdout or stderr file names the lines that differ. The exit code is 0
when every file is in both directories and byte-identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _table(path: Path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    body = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return comments, rows[0], body


def _report(names, cols_a, cols_b) -> str:
    by_col, by_value = [], []
    for name, col_a, col_b in zip(names, cols_a, cols_b):
        col_a, col_b = np.asarray(col_a, dtype=float), np.asarray(col_b, dtype=float)
        d, a = np.abs(col_b - col_a), np.abs(col_a)
        diff, scale = float(np.max(d, initial=0.0)), float(np.max(a, initial=0.0))
        by_col.append(f"{name} {diff / scale if scale > 0 else diff:.2g}")
        rel = np.divide(d, a, out=d.copy(), where=a > 0)
        by_value.append(f"{name} {float(np.max(rel, initial=0.0)):.2g}")
    return "max|d|/max|col|: " + ", ".join(by_col) + "; max|d|/|a|: " + ", ".join(by_value)


def compare_csv(a: Path, b: Path) -> str:
    """The report line for one pair of CSV files."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical"
    (ca, ha, xa), (cb, hb, xb) = _table(a), _table(b)
    if ca != cb or ha != hb or xa.shape != xb.shape:
        return "comments, header or row count differ"
    return _report(ha, xa.T, xb.T)


def _leaves(obj, path: str = ""):
    """(key path, value) of every leaf; list items share their list's path."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, path)
    else:
        yield path, obj


def _columns(path: Path) -> dict:
    cols: dict = {}
    for name, value in _leaves(json.loads(path.read_text())):
        cols.setdefault(name, []).append(value)
    return cols


def _numeric(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def compare_json(a: Path, b: Path) -> str:
    """The report line for one pair of metadata files."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical"
    ca, cb = _columns(a), _columns(b)
    if ca.keys() != cb.keys() or any(len(ca[k]) != len(cb[k]) for k in ca):
        return "keys or list lengths differ"
    other = [k for k in ca if not (_numeric(ca[k]) and _numeric(cb[k])) and ca[k] != cb[k]]
    if other:
        return "non-numeric values differ: " + ", ".join(other)
    names = [k for k in ca if _numeric(ca[k]) and _numeric(cb[k])]
    return _report(names, [ca[k] for k in names], [cb[k] for k in names])


def compare_text(a: Path, b: Path) -> str:
    """The report line for one pair of stdout or stderr files."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical"
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    lines = [str(i + 1) for i in range(max(len(la), len(lb)))
             if la[i:i + 1] != lb[i:i + 1]]
    return "lines differ: " + ", ".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.relative_to(d) for d in (args.dir_a, args.dir_b)
                    for pattern in ("*.csv", "*_meta.json", "stdout.txt", "stderr.txt")
                    for p in d.rglob(pattern)})
    ok = bool(names)
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {args.dir_a if a.exists() else args.dir_b}")
            ok = False
            continue
        compare = {".json": compare_json, ".txt": compare_text}.get(name.suffix, compare_csv)
        report = compare(a, b)
        print(f"{name}: {report}")
        ok = ok and report == "byte-identical"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
