#!/usr/bin/env python3
"""Compare the CSV outputs of two runs, file by file.

    python tools/compare_outputs.py DIR_A DIR_B

CSV files are matched by their path relative to each directory. For each
one a line is printed: ``byte-identical``, or per column the largest
difference relative to the column's size in A, max|B - A| / max|A| (the
absolute max|B - A| where column A is all zero). Comment lines (``#``) and
the header row must match exactly. The exit code is 0 when every CSV is in
both directories and byte-identical, else 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _table(path: Path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    body = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return comments, rows[0], body


def compare_csv(a: Path, b: Path) -> str:
    """The report line for one pair of files."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical"
    (ca, ha, xa), (cb, hb, xb) = _table(a), _table(b)
    if ca != cb or ha != hb or xa.shape != xb.shape:
        return "comments, header or row count differ"
    parts = []
    for name, col_a, col_b in zip(ha, xa.T, xb.T):
        diff = float(np.max(np.abs(col_b - col_a), initial=0.0))
        scale = float(np.max(np.abs(col_a), initial=0.0))
        parts.append(f"{name} {diff / scale if scale > 0 else diff:.2g}")
    return "max|d|/max|col|: " + ", ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.relative_to(d) for d in (args.dir_a, args.dir_b) for p in d.rglob("*.csv")})
    ok = bool(names)
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {args.dir_a if a.exists() else args.dir_b}")
            ok = False
            continue
        report = compare_csv(a, b)
        print(f"{name}: {report}")
        ok = ok and report == "byte-identical"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
