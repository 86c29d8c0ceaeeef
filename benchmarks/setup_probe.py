"""Set-up cost of one invocation, run as a fresh process.

    python3 benchmarks/setup_probe.py '<json spec from workloads.Invocation.setup>'

Imports ``adrlab.cli`` the way the CLI process does, then makes only the
set-up calls the matching command makes before its main loop:

* map:    adr1d.scheme_operators
* packet: adr1d.make_stepper (operator assembly and LU factorization)
* pks:    Mesh2D.unit_square, init_gaussian, pks2d.make_stepper

The parent times the process from spawn to exit, so interpreter start-up
and the numpy/scipy import are part of the figure, as they are for users.
"""

import json
import sys


def main(spec: dict) -> None:
    import adrlab.cli  # noqa: F401  (first import of every CLI process)

    kind = spec["kind"]
    if kind == "map":
        from adrlab.adr1d import SchemeId, scheme_operators
        from adrlab.operators import Grid1D

        scheme_operators(SchemeId(spec["scheme"]), Grid1D(spec["n"], 1.0))
    elif kind == "packet":
        from adrlab import wavepacket as wp
        from adrlab.adr1d import AdrConfig, SchemeId, make_stepper

        cfg = wp.WavePacketConfig(spec["gamma"], spec["x0"], spec["k0h"],
                                  spec["half_length"], spec["n"])
        make_stepper(SchemeId(spec["scheme"]),
                     AdrConfig(spec["c"], spec["nu"], spec["lam"], spec["dt"], cfg.grid()))
    elif kind == "pks":
        from adrlab import pks2d

        mesh = pks2d.Mesh2D.unit_square(spec["n"])
        pks2d.init_gaussian(mesh, chi=spec["chi"])
        pks2d.make_stepper(pks2d.PksVariant(spec["variant"]), mesh, spec["dt"])
    else:
        raise ValueError(f"unknown set-up kind {kind!r}")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
