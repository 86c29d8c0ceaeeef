#!/usr/bin/env python3
"""Time PKS and 1D steps of two source trees in interleaved pairs.

    python tools/step_pairs.py PARENT CHANGE [--meshes 200,400] \
        [--variants explicit-oucs3-cd2,imex-nccd] [--pairs 12] [--steps 5] \
        [--out pairs.json]

PARENT and CHANGE are checkouts of the repository. Each pair runs both
sides, the side first alternating (PARENT first in even pairs), each in a
fresh Python process with that tree's ``src`` on PYTHONPATH and BLAS
capped at one thread. A side's process times, for every mesh and variant,
``pks2d.make_stepper`` (set-up) and then ``--steps`` in-process steps after
one warm step, on the Gaussian data of ``pks2d.init_gaussian`` at
dt = 1e-8, and reports the median step. It then does the same for each of
the four 1D schemes (``adr1d.make_stepper`` and 20 x ``--steps`` steps,
as one step takes well under a millisecond) at N = 1001 on the standing
wave-packet block (c = 0.1, nu = 1e-4, lambda = -1, dt = 0.01 on
[-5, 5]), keyed ``adr1d:<scheme>@1001``. Last it times the CSV-output
layer, the median of ``--steps`` writes to a temporary directory, keyed
``write:*`` with metric ``write_ms``: ``pks2d.write_snapshot_csv`` of the
Gaussian data per mesh (``write:pks-snapshot@<n>``), ``spectral.write_map_csv``
of the imex-nccd map at the ``dispersion-map`` defaults
(``write:map-imex-nccd``) and ``wavepacket.write_snapshot_csv`` of the
1001-node packet (``write:wavepacket-snapshot@1001``). The output JSON
holds, per key, both sides' times per pair (set-up and step median, or
write median), the per-pair ratios CHANGE / PARENT, the number of pairs
CHANGE wins, and the median ratio. Needs NumPy alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKER = r"""
import json, os, sys, tempfile, time
import numpy as np
from adrlab import adr1d, operators, pks2d, spectral, wavepacket  # before any clock starts

meshes, variants, steps = json.loads(sys.argv[1])
out = {}
for n in meshes:
    mesh = pks2d.Mesh2D.unit_square(n)
    for v in variants:
        state = pks2d.init_gaussian(mesh)
        t0 = time.perf_counter()
        stepper = pks2d.make_stepper(pks2d.PksVariant(v), mesh, 1e-8)
        setup = time.perf_counter() - t0
        state = stepper.step(state)
        times = []
        for _ in range(steps):
            t0 = time.perf_counter()
            state = stepper.step(state)
            times.append(time.perf_counter() - t0)
        out[f"{v}@{n}"] = {"setup_ms": 1e3 * setup, "step_ms": 1e3 * float(np.median(times))}
        del stepper, state  # freed here, not inside the next set-up's clock
grid = operators.Grid1D(1001, 0.01, -5.0)
cfg = adr1d.AdrConfig(0.1, 1e-4, -1.0, 0.01, grid)
x = grid.x()
for scheme in adr1d.SchemeId:
    state = adr1d.SolutionState(np.exp(-50.0 * x**2) * np.cos(50.0 * x), 0.0)
    t0 = time.perf_counter()
    stepper = adr1d.make_stepper(scheme, cfg)
    setup = time.perf_counter() - t0
    state = stepper.step(state)
    times = []
    for _ in range(20 * steps):
        t0 = time.perf_counter()
        state = stepper.step(state)
        times.append(time.perf_counter() - t0)
    out[f"adr1d:{scheme.value}@1001"] = {"setup_ms": 1e3 * setup,
                                         "step_ms": 1e3 * float(np.median(times))}
nccd = adr1d.SchemeId.IMEX_NCCD
dmap = spectral.sweep(nccd, np.linspace(0.0, np.pi, 64), np.linspace(0.025, 1.6, 64),
                      0.01, -0.01, 500, adr1d.scheme_operators(nccd, operators.Grid1D(1001, 1.0)))
packet = wavepacket.WavePacketConfig(50.0, 0.0, 0.5, 5.0, 1001)
writes = {f"write:pks-snapshot@{n}": (pks2d.write_snapshot_csv,
                                      pks2d.init_gaussian(pks2d.Mesh2D.unit_square(n)))
          for n in meshes}
writes["write:map-imex-nccd"] = (spectral.write_map_csv, dmap)
writes["write:wavepacket-snapshot@1001"] = (
    lambda state, path: wavepacket.write_snapshot_csv(state, packet, path),
    wavepacket.init_wavepacket(packet))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "out.csv")
    for key, (write, data) in writes.items():
        times = []
        for _ in range(steps):
            t0 = time.perf_counter()
            write(data, path)
            times.append(time.perf_counter() - t0)
        out[key] = {"write_ms": 1e3 * float(np.median(times))}
print(json.dumps(out))
"""


def run_side(tree: Path, meshes, variants, steps: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", WORKER, json.dumps([meshes, variants, steps])],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(parent: list, change: list) -> dict:
    ratios = [c / p for p, c in zip(parent, change)]
    return {"parent": parent, "change": change, "ratio": ratios,
            "change_wins": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(ratios)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--meshes", default="200,400", help="cells per side, comma-separated")
    ap.add_argument("--variants", default="explicit-oucs3-cd2,imex-nccd")
    ap.add_argument("--pairs", type=int, default=12)
    ap.add_argument("--steps", type=int, default=5, help="timed steps per stepper")
    ap.add_argument("--out", type=Path, default=None, help="JSON file (default: stdout)")
    args = ap.parse_args(argv)
    meshes = [int(n) for n in args.meshes.split(",")]
    variants = args.variants.split(",")
    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_side(getattr(args, side).resolve(), meshes, variants,
                                        args.steps))
    results = {}
    for key in sides["parent"][0]:
        results[key] = {metric: summarize([r[key][metric] for r in sides["parent"]],
                                          [r[key][metric] for r in sides["change"]])
                        for metric in sides["parent"][0][key]}
    record = {
        "method": (f"{args.pairs} interleaved pairs, the side run first alternating; each side a "
                   f"fresh process timing make_stepper and the median of {args.steps} in-process "
                   "PKS steps after one warm step, Gaussian data, dt = 1e-8, then of "
                   f"{20 * args.steps} steps of each 1D scheme at N = 1001 on the wave-packet "
                   f"block, then the median of {args.steps} writes of each CSV writer; "
                   "1 BLAS thread"),
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, {platform.machine()}",
        "parent": str(args.parent), "change": str(args.change),
        "results": results,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
