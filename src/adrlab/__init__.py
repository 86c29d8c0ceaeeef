"""adrlab: dispersion analysis and solvers for compact-difference IMEX
discretizations of the 1D linear advection-diffusion-reaction equation,
plus a positivity-preserving finite-volume solver for the 2D
Patlak-Keller-Segel chemotaxis system.

Submodules (import explicitly; nothing heavy is loaded from the package root):

    adrlab.linalg      stencil matrices, their partitioned solver, dense solve
    adrlab.operators   CD2 / upwind-compact / Lele / combined-compact matrices
    adrlab.adr1d       the two-stage 1D stepper for the four schemes
    adrlab.spectral    amplification factors, group velocity, phase error
    adrlab.wavepacket  wave-packet error-dynamics experiments
    adrlab.pks2d       2D chemotaxis finite-volume solver
    adrlab.cli         command-line front end
"""

import math

__version__ = "0.1.0"


class NumericalError(Exception):
    """Base of the failures a computation reports on valid input (a singular
    system, a non-finite value, a negative density or edge value): exit 3."""


def whole_steps(span: float, dt: float) -> int:
    """Number of steps of size dt in `span` (t_end minus the start time).

    Raises ValueError unless dt is finite and > 0, span >= 0 and span/dt
    lies within 1e-9 (relative) of a whole number, so a run never ends at a
    time other than the requested one.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be > 0 and finite (got {dt:g})")
    steps = span / dt
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(f"t_end must be finite and >= the start time (span {span:g})")
    n = round(steps)
    if abs(steps - n) > 1e-9 * max(steps, 1.0):
        raise ValueError(f"t_end is not a whole number of steps: span {span:g} is "
                         f"{steps:.12g} steps of dt = {dt:g}")
    return n
