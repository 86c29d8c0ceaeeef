#!/usr/bin/env python3
"""Run the standard CLI output set of one source tree.

    python tools/standard_outputs.py TREE OUT

TREE is a checkout of the repository. Each run of the set is a fresh
Python process of ``adrlab.cli`` with ``TREE/src`` on PYTHONPATH and BLAS
held to one thread by its environment (`BLAS_ONE_THREAD`), so trees whose
CLI does not pin BLAS itself run alike. It works in a directory of its own,
``OUT/<run>``, where it writes its files with ``--out .`` and its stdout as
``stdout.txt``. The set:

* ``dispersion-map`` for each of the four schemes at the CLI defaults;
* ``wavepacket`` for each scheme with ``--snapshots 0,5,10``;
* ``pks`` for both variants with ``--t-end 2e-6``;
* one ``dispersion-map`` whose flags come from a ``--config`` file
  (`CONFIG`, written into its directory);
* five runs the CLI refuses (`REFUSED`): ``dispersion-map --n 6``,
  ``wavepacket --n 6``, a short ``pks`` whose ``--out`` lies below a
  regular file (its own config file), a small ``dispersion-map`` whose
  config file holds a key that names no flag and a short ``wavepacket``
  whose q-wave window is empty (``--gamma 1e-300``).

A refused run also writes ``stderr.txt``: ``exit <code>`` on its first
line, then its stderr. Two trees' sets compare with ``python
tools/compare_outputs.py OUT_A OUT_B``. OUT must not exist yet. Any other
run that exits non-zero stops the set with its stderr. Needs NumPy alone.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

#: the BLAS thread-count variables, each at 1
BLAS_ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")

SCHEMES = ("explicit-oucs3-cd2", "implicit-oucs3-lele", "imex-oucs3-lele", "imex-nccd")
VARIANTS = ("explicit-oucs3-cd2", "imex-nccd")

#: the config file of the ``--config`` map: a string, an int and a float flag
CONFIG = "scheme = imex-nccd\nn = 401\nnode = 200\nkh-points = 33\npe = 0.05\n"

#: (run name, CLI arguments, config file text or None)
STANDARD = (
    [(f"map_{s}", ["dispersion-map", "--scheme", s], None) for s in SCHEMES]
    + [(f"wavepacket_{s}", ["wavepacket", "--scheme", s, "--snapshots", "0,5,10"], None)
       for s in SCHEMES]
    + [(f"pks_{v}", ["pks", "--variant", v, "--t-end", "2e-6"], None) for v in VARIANTS]
    + [("map_config", ["dispersion-map"], CONFIG)]
)

#: runs the CLI must refuse, in the same form; a run's own ``--out`` comes after
#: the set's ``--out .`` and wins, so the pks run's lies below its config file
REFUSED = (
    ("refused_map_n6", ["dispersion-map", "--n", "6"], None),
    ("refused_wavepacket_n6", ["wavepacket", "--n", "6"], None),
    ("refused_pks_out", ["pks", "--n", "16", "--out", "run.cfg/sub"], "t-end = 1e-8\n"),
    ("refused_map_config_key", ["dispersion-map", "--n", "51", "--node", "25",
                                "--kh-points", "3", "--nc-points", "2"], "nonsense = 1\n"),
    ("refused_wavepacket_qwindow", ["wavepacket", "--n", "101", "--t-end", "0.02",
                                    "--gamma", "1e-300"], None),
)


def run(tree: Path, out: Path, commands=STANDARD, refused=REFUSED) -> None:
    """Run each of ``commands``, then each of ``refused``, on ``tree`` into
    its directory under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), **BLAS_ONE_THREAD)
    out.mkdir(parents=True)
    runs = [(c, False) for c in commands] + [(c, True) for c in refused]
    for (name, argv, config), must_fail in runs:
        cwd = out / name
        cwd.mkdir()
        if config is not None:
            (cwd / "run.cfg").write_text(config)
            argv = argv + ["--config", "run.cfg"]
        done = subprocess.run([sys.executable, "-m", "adrlab.cli", argv[0], "--out", ".", *argv[1:]],
                              cwd=cwd, env=env, capture_output=True, text=True)
        (cwd / "stdout.txt").write_text(done.stdout)
        if must_fail:
            (cwd / "stderr.txt").write_text(f"exit {done.returncode}\n{done.stderr}")
        elif done.returncode != 0:
            raise RuntimeError(f"{name} exited {done.returncode}: {done.stderr.strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path)
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    run(args.tree, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
