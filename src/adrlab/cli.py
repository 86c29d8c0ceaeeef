"""Command-line front end: dispersion maps, wave-packet runs, chemotaxis runs.

Every command is deterministic (no seeds) and writes its CSV files through
`adrlab.write_csv`, each float as `adrlab.FLOAT` (12 significant digits),
the format its stdout lines use too. Identical flags reproduce byte-identical
outputs for a fixed BLAS build and BLAS thread cap: the thread count can
move the last digits of products that BLAS splits across threads, so
``--threads 1`` is the setting that reproduces across hosts.

Exit codes: 0 success, 2 argument error (a bad flag or config value, or a
file that cannot be read or written, such as an ``--out`` directory that
cannot be created), 3 numerical failure (any `adrlab.NumericalError`:
instability, positivity violation, negative edge reconstruction, singular
system, or a non-finite dispersion-map sample). Parsing and the commands
share one handler, so a file error in a command exits 2 with a message
as one in parsing does. `pks` creates ``--out`` once its inputs are checked
and before it steps, so a run that then fails numerically (exit 3) may
leave an empty ``--out``; `dispersion-map` and `wavepacket` check their
inputs inside the computation and create ``--out`` after it.

A ``--config`` file holds ``key = value`` lines. Each line is the flag
``--key=value`` (``_`` in a key read as ``-``), set right after the command
name and before the command line's own flags, so those win. A key is a
whole flag name: no command accepts an abbreviated flag. argparse checks a
config value's name, type and choices as it checks a flag's, and a
``config`` line is not followed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import FLOAT, NumericalError, PksVariant, SchemeId, whole_steps

_SCHEMES = [s.value for s in SchemeId]


def _fmt(x: float) -> str:
    return FLOAT % x


def _cap_threads(threads) -> None:
    """Cap BLAS worker threads. Runs after parsing and before any handler
    imports numpy (importing this module does not), so BLAS reads the cap."""
    if threads is None:
        return
    if threads < 1:
        raise ValueError("--threads must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _check_map_args(args) -> None:
    """Reject non-finite or out-of-range dispersion-map inputs; a sample that
    is still not finite raises `spectral.NonFiniteSampleError` (exit 3)."""
    for dest in ("pe", "da", "kh_min", "kh_max", "nc_min", "nc_max"):
        if not math.isfinite(getattr(args, dest)):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite")
    if args.pe < 0:
        raise ValueError("--pe must be >= 0")
    if not 0 <= args.kh_min <= args.kh_max <= math.pi:
        raise ValueError("need 0 <= --kh-min <= --kh-max <= pi")
    if not 0 < args.nc_min <= args.nc_max:
        raise ValueError("need 0 < --nc-min <= --nc-max")
    if args.n < 7:
        raise ValueError("--n must be >= 7")
    if not 1 < args.node < args.n:
        raise ValueError("--node must be an interior node: 1 < node < n")
    if args.kh_points < 1 or args.nc_points < 1:
        raise ValueError("--kh-points and --nc-points must be >= 1")
    if args.kh_points > 1 and not args.kh_min < args.kh_max:
        raise ValueError("--kh-points > 1 needs --kh-min < --kh-max")


def _load_config(path: str) -> list:
    """Each ``key = value`` line as the flag ``--key=value`` ('_' in a key read
    as '-'); '#' starts a comment."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (created if missing)")
    p.add_argument("--config", default=None,
                   help="key = value lines, read as flags --key=value ahead of the "
                        "command line's, which win; keys are whole flag names")
    p.add_argument("--threads", type=int, default=None,
                   help="cap BLAS worker threads (default: machine parallelism)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adrlab",
        description="Dispersion analysis and solvers for compact-difference "
                    "IMEX discretizations of advection-diffusion-reaction problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "dispersion-map", allow_abbrev=False,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        help="amplification-ratio / group-velocity / phase-error map over (kh, N_c)",
    )
    d.add_argument("--scheme", choices=_SCHEMES, default="explicit-oucs3-cd2",
                   help="spatiotemporal scheme")
    d.add_argument("--pe", type=float, default=0.01, help="Peclet number nu*dt/h^2 (dimensionless)")
    d.add_argument("--da", type=float, default=-0.01, help="Damkohler number lambda*dt (dimensionless)")
    d.add_argument("--n", type=int, default=1001, help="grid points used to build the operators")
    d.add_argument("--node", type=int, default=500, help="interior node (1-based) for the row symbols")
    d.add_argument("--kh-min", type=float, default=0.0, help="lower kh bound (radians, >= 0)")
    d.add_argument("--kh-max", type=float, default=math.pi, help="upper kh bound (radians, <= pi)")
    d.add_argument("--kh-points", type=int, default=64, help="number of kh samples")
    d.add_argument("--nc-min", type=float, default=0.025, help="lower CFL bound (dimensionless, > 0)")
    d.add_argument("--nc-max", type=float, default=1.6, help="upper CFL bound")
    d.add_argument("--nc-points", type=int, default=64, help="number of CFL samples")
    _add_common(d)

    w = sub.add_parser(
        "wavepacket", allow_abbrev=False,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        help="Gaussian wave-packet run with upstream-energy diagnostics",
    )
    w.add_argument("--scheme", choices=_SCHEMES, default="explicit-oucs3-cd2")
    w.add_argument("--gamma", type=float, default=50.0, help="packet width parameter (1/length^2)")
    w.add_argument("--n", type=int, default=1001, help="grid points")
    w.add_argument("--dt", type=float, default=0.01, help="time step (time units)")
    w.add_argument("--t-end", type=float, default=10.0, help="final time (time units)")
    w.add_argument("--c", type=float, default=0.1, help="advection speed (length/time)")
    w.add_argument("--nu", type=float, default=1e-4, help="diffusivity (length^2/time)")
    w.add_argument("--lam", type=float, default=-1.0, help="growth rate (1/time)")
    w.add_argument("--x0", type=float, default=0.0, help="packet center (length units)")
    w.add_argument("--k0h", type=float, default=0.5, help="central nondimensional wavenumber (radians)")
    w.add_argument("--half-length", type=float, default=5.0, help="half domain length L; domain is [-L, L]")
    w.add_argument("--snapshots", default="", help="comma-separated snapshot times (time units)")
    w.add_argument("--qwindow-efolds", type=float, default=6.0,
                   help="upstream-window margin in envelope e-folding lengths")
    _add_common(w)

    k = sub.add_parser(
        "pks", allow_abbrev=False,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        help="2D chemotaxis blowup run on [-1/2, 1/2]^2",
    )
    k.add_argument("--variant", choices=[v.value for v in PksVariant], default="explicit-oucs3-cd2",
                   help="explicit-oucs3-cd2: Heun, c's velocity by CD2, not OUCS3, whose upwinding "
                        "(eta = -2) breaks its reflection symmetry; imex-nccd: IMEX, c's velocity by NCCD")
    k.add_argument("--n", type=int, default=200, help="cells per side (mesh spacing 1/n)")
    k.add_argument("--dt", type=float, default=1e-8, help="time step (time units)")
    k.add_argument("--t-end", type=float, default=1e-5, help="final time (time units)")
    k.add_argument("--chi", type=float, default=30.0, help="chemotactic sensitivity (> 0)")
    k.add_argument("--theta", type=float, default=1.0, help="limiter parameter in [1, 2]")
    k.add_argument("--log-every", type=int, default=100, help="diagnostics cadence in steps")
    _add_common(k)
    return ap


def _reparse_with_config(ap, argv) -> argparse.Namespace:
    """Parse ``argv``; with ``--config``, parse again with the file's flags
    right after the command name, so the command line's own flags win."""
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        args = ap.parse_args(argv[:at] + _load_config(args.config) + argv[at:])
    return args


def cmd_dispersion_map(args) -> int:
    _check_map_args(args)
    import numpy as np

    from .adr1d import scheme_operators
    from .operators import Grid1D
    from . import spectral

    scheme = SchemeId(args.scheme)
    grid = Grid1D(args.n, 1.0)
    ops = scheme_operators(scheme, grid)
    kh_axis = np.linspace(args.kh_min, args.kh_max, args.kh_points)
    nc_axis = np.linspace(args.nc_min, args.nc_max, args.nc_points)
    dmap = spectral.sweep(scheme, kh_axis, nc_axis, args.pe, args.da, args.node, ops)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"dispersion_{scheme.value}.csv")
    spectral.write_map_csv(dmap, path)
    boundary = spectral.sampled_stability_boundary(dmap)
    if boundary is not None:
        print(f"stability boundary (max sampled N_c with G ratio <= 1): {_fmt(boundary)}")
    else:
        print("stability boundary: no sampled N_c is ratio-stable across the kh axis")
    print(f"wrote {path}")
    return 0


def cmd_wavepacket(args) -> int:
    if not 0 < args.qwindow_efolds < math.inf:
        raise ValueError(f"--qwindow-efolds must be finite and > 0 (got {args.qwindow_efolds:g})")
    from .adr1d import AdrConfig, scheme_operators
    from . import wavepacket as wp

    scheme = SchemeId(args.scheme)
    cfg = wp.WavePacketConfig(args.gamma, args.x0, args.k0h, args.half_length, args.n)
    adr = AdrConfig(args.c, args.nu, args.lam, args.dt, cfg.grid())
    try:
        snap_times = [float(s) for s in args.snapshots.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--snapshots must be comma-separated times "
                         f"(got {args.snapshots!r})") from None
    ops = scheme_operators(scheme, cfg.grid())  # shared by the run and the diagnostics
    result = wp.run_experiment(scheme, cfg, adr, args.t_end, snap_times,
                               efolds=args.qwindow_efolds, ops=ops)
    os.makedirs(args.out, exist_ok=True)
    for snap in result.snapshots:
        path = os.path.join(args.out, wp.snapshot_filename(scheme, cfg, snap.t))
        wp.write_snapshot_csv(snap, cfg, path)
    spec_path = os.path.join(args.out,
                             f"spectrum_{scheme.value}_{cfg.gamma:g}_{cfg.n_points}.csv")
    wp.write_spectrum_csv(result.spectrum_kh, result.spectrum_amplitude, spec_path)
    g_ratio, vg, perr = wp.point_diagnostics(scheme, cfg, adr, ops)
    print(f"N_c={_fmt(adr.n_c)} Pe={_fmt(adr.pe)} Da={_fmt(adr.da)}")
    print(f"q_wave_energy={_fmt(result.q_wave_energy)} "
          f"peak={_fmt(result.amplitude_peak)} asymmetry={_fmt(result.asymmetry)}")
    print(f"at k0h={_fmt(cfg.k0h)}: G_ratio={_fmt(g_ratio)} Vg_ratio={_fmt(vg)} "
          f"phase_err={_fmt(perr)}")
    return 0


def cmd_pks(args) -> int:
    if args.log_every < 1:
        raise ValueError(f"--log-every must be >= 1 (got {args.log_every})")
    from dataclasses import replace

    from . import pks2d

    variant = PksVariant(args.variant)
    n_steps = whole_steps(args.t_end, args.dt)
    mesh = pks2d.Mesh2D.unit_square(args.n)
    state = pks2d.init_gaussian(mesh, chi=args.chi, theta=args.theta)
    stepper = pks2d.make_stepper(variant, mesh, args.dt)
    os.makedirs(args.out, exist_ok=True)  # every input is checked; no step is wasted on a bad --out
    history = [pks2d.diagnostics(state)]
    for k in range(1, n_steps + 1):
        state = replace(stepper.step(state), t=k * args.dt)  # not a sum of k dt's
        if k % args.log_every == 0 or k == n_steps:
            history.append(pks2d.diagnostics(state))
    tag = f"{variant.value}_{args.n}"
    pks2d.write_snapshot_csv(state, os.path.join(args.out, f"pks_{tag}.csv"))
    pks2d.write_radial_csv(state, os.path.join(args.out, f"pks_{tag}_radial.csv"))
    pks2d.write_metadata(os.path.join(args.out, f"pks_{tag}_meta.json"),
                         state, variant, args.dt, args.t_end, history)
    last = history[-1]
    print(f"t={_fmt(last['t'])} mass={_fmt(last['mass'])} min_rho={_fmt(last['min_rho'])} "
          f"max_rho={_fmt(last['max_rho'])} oscillation={_fmt(last['oscillation'])}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = _reparse_with_config(ap, argv)
        _cap_threads(args.threads)
        return {"dispersion-map": cmd_dispersion_map,
                "wavepacket": cmd_wavepacket,
                "pks": cmd_pks}[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
