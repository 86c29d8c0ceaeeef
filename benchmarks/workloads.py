"""The three benchmark workloads: seed -> CLI invocations, set-up calls, checks.

Each workload is a fixed list of ``adrlab`` invocations whose sizes never
depend on the seed; the seed only draws physical values from narrow ranges,
so the work per run is the same for every seed. The program sees nothing
but the generated flags.

* ``map``    - ``dispersion-map`` once per scheme: row-symbol evaluation
  and operator assembly, no time stepping.
* ``packet`` - ``wavepacket`` once per scheme at the standing block:
  dense 1D stepping, LU solves and the duplicated operator assembly.
* ``pks``    - ``pks`` once per variant on a 200^2 mesh: the 2D limiter,
  flux and Laplacian kernels and the largest CSV write.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

SCHEMES = ("explicit-oucs3-cd2", "implicit-oucs3-lele", "imex-oucs3-lele", "imex-nccd")
VARIANTS = ("explicit-oucs3-cd2", "imex-nccd")
NAMES = ("map", "packet", "pks")

# Standing wave-packet block; passed as explicit flags so the set-up probe and
# the exact solution use the very values the CLI ran with.
PACKET = {"gamma": 50.0, "half_length": 5.0, "c": 0.1, "nu": 1e-4, "lam": -1.0}

# Full sizes reproduce the ROADMAP item-1 table; tiny sizes exist only for
# the runner's smoke test.
SIZES = {
    "full": {
        "map": {"n": 1001, "node": 500, "kh_points": 64, "nc_points": 64},
        # 1000 steps of dt = 0.01 on N = 1001
        "packet": {"n": 1001, "dt": 0.01, "steps": 1000},
        # pks imex-nccd fails positivity at its documented default dt = 1e-6
        # (chemotactic CFL ~18, ROADMAP item 4), so both variants run at
        # dt = 1e-8 for the same 200 steps.
        "pks": {"n": 200, "dt": 1e-8, "steps": 200},
    },
    "tiny": {
        "map": {"n": 41, "node": 20, "kh_points": 8, "nc_points": 8},
        "packet": {"n": 201, "dt": 0.01, "steps": 10},
        # imex-nccd drifts in mass by more than 1e-12 on meshes of 32 cells
        # and fewer (7e-9 at 16 cells over 20 steps); see README "Findings"
        "pks": {"n": 48, "dt": 1e-8, "steps": 20},
    },
}


@dataclass(frozen=True)
class Invocation:
    """One ``adrlab`` command line plus the set-up calls it implies."""

    label: str            # scheme or variant id
    args: tuple           # CLI arguments after the program name, minus --out
    setup: dict           # JSON spec for setup_probe.py


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    params: dict          # values drawn from the seed, plus sizes
    invocations: tuple


def _r(x: float) -> str:
    return repr(float(x))


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    sz = SIZES[size][name]
    if name == "map":
        params = dict(sz, pe=rng.uniform(0.009, 0.011), da=rng.uniform(-0.011, -0.009))
        invs = tuple(
            Invocation(s, ("dispersion-map", "--scheme", s, "--pe", _r(params["pe"]),
                           "--da", _r(params["da"]), "--n", str(sz["n"]),
                           "--node", str(sz["node"]), "--kh-points", str(sz["kh_points"]),
                           "--nc-points", str(sz["nc_points"])),
                       {"kind": "map", "scheme": s, "n": sz["n"]})
            for s in SCHEMES)
    elif name == "packet":
        t_end = sz["steps"] * sz["dt"]
        params = dict(sz, **PACKET, t_end=t_end,
                      k0h=rng.uniform(0.49, 0.51), x0=rng.uniform(-0.1, 0.1))
        invs = tuple(
            Invocation(s, ("wavepacket", "--scheme", s, "--gamma", _r(PACKET["gamma"]),
                           "--n", str(sz["n"]), "--dt", _r(sz["dt"]), "--t-end", _r(t_end),
                           "--c", _r(PACKET["c"]), "--nu", _r(PACKET["nu"]),
                           "--lam", _r(PACKET["lam"]), "--x0", _r(params["x0"]),
                           "--k0h", _r(params["k0h"]),
                           "--half-length", _r(PACKET["half_length"]),
                           "--snapshots", f"0,{t_end!r}"),
                       {"kind": "packet", "scheme": s, **{k: params[k] for k in (
                           "n", "dt", "k0h", "x0", "gamma", "half_length", "c", "nu", "lam")}})
            for s in SCHEMES)
    else:
        t_end = sz["steps"] * sz["dt"]
        # chi in [28, 32]: both variants stay positive over the 200 steps
        # (checked at chi = 27 and 33, where min rho is still >= 0)
        params = dict(sz, t_end=t_end, chi=rng.uniform(28.0, 32.0))
        invs = tuple(
            Invocation(v, ("pks", "--variant", v, "--n", str(sz["n"]), "--dt", _r(sz["dt"]),
                           "--t-end", _r(t_end), "--chi", _r(params["chi"])),
                       {"kind": "pks", "variant": v, "n": sz["n"], "dt": sz["dt"],
                        "chi": params["chi"]})
            for v in VARIANTS)
    return Workload(name, seed, params, invs)


# ---------------------------------------------------------------- checks

def csv_digests(outdir: str) -> dict:
    """sha256 of every CSV an invocation wrote, by file name."""
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if fname.endswith(".csv"):
            with open(os.path.join(outdir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def check_outputs(wl: Workload, inv: Invocation, outdir: str) -> list:
    """Problems with one invocation's outputs; an empty list means correct."""
    problems = []
    csvs = sorted(f for f in os.listdir(outdir) if f.endswith(".csv"))
    if not csvs:
        return ["no CSV written"]
    rows_of = {}
    for fname in csvs:
        rows = _csv_rows(os.path.join(outdir, fname))
        rows_of[fname] = rows
        if not rows:
            problems.append(f"{fname}: no data rows")
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            problems.append(f"{fname}: non-finite value")
    p = wl.params
    if wl.name == "map":
        fname = f"dispersion_{inv.label}.csv"
        want = p["kh_points"] * p["nc_points"]
        got = len(rows_of.get(fname, ()))
        if got != want:
            problems.append(f"{fname}: {got} rows, expected {want}")
    elif wl.name == "packet":
        fname = snapshot_name(wl, inv)
        if fname not in rows_of:
            problems.append(f"t_end snapshot {fname} missing")
    else:
        meta_path = os.path.join(outdir, f"pks_{inv.label}_{p['n']}_meta.json")
        try:
            with open(meta_path) as fh:
                history = json.load(fh)["diagnostics"]
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"metadata unreadable: {exc}"]
        m0 = history[0]["mass"]
        drift = max(abs(d["mass"] - m0) for d in history) / abs(m0)
        if not drift <= 1e-12:
            problems.append(f"mass drift {drift:.3e} > 1e-12")
        low = min(d["min_rho"] for d in history)
        if not low >= 0.0:
            problems.append(f"min_rho {low:.3e} < 0")
    return problems


def snapshot_name(wl: Workload, inv: Invocation) -> str:
    p = wl.params
    return f"{inv.label}_{p['gamma']:g}_{p['n']}_{p['t_end']:g}.csv"


def l2_errors(wl: Workload, outdirs: dict) -> dict:
    """Relative discrete L2 distance of each t_end snapshot from the exact
    solution, keyed ``l2_err.<scheme>``. Deterministic for a given seed."""
    import numpy as np

    from adrlab import wavepacket as wp
    from adrlab.adr1d import AdrConfig

    p = wl.params
    cfg = wp.WavePacketConfig(p["gamma"], p["x0"], p["k0h"], p["half_length"], p["n"])
    adr = AdrConfig(p["c"], p["nu"], p["lam"], p["dt"], cfg.grid())
    exact = wp.exact_solution(cfg, adr, p["t_end"]).values
    out = {}
    for inv in wl.invocations:
        rows = _csv_rows(os.path.join(outdirs[inv.label], snapshot_name(wl, inv)))
        u = np.array([float(r[1]) for r in rows])
        out[f"l2_err.{inv.label}"] = float(np.linalg.norm(u - exact) / np.linalg.norm(exact))
    return out
