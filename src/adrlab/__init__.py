"""adrlab: dispersion analysis and solvers for compact-difference IMEX
discretizations of the 1D linear advection-diffusion-reaction equation,
plus a positivity-preserving finite-volume solver for the 2D
Patlak-Keller-Segel chemotaxis system.

Submodules (import explicitly; nothing heavy is loaded from the package root):

    adrlab.linalg      stencil matrices and their partitioned solver
    adrlab.operators   CD2 / upwind-compact / Lele / combined-compact matrices
    adrlab.adr1d       the two-stage 1D stepper for the four schemes
    adrlab.spectral    amplification factors, group velocity, phase error
    adrlab.wavepacket  wave-packet runs and their error against the exact solution
    adrlab.pks2d       2D chemotaxis finite-volume solver
    adrlab.cli         command-line front end

The root itself holds what the modules share, and imports NumPy only
inside `write_csv`: the scheme and variant ids, `NumericalError`,
`whole_steps`, and the output layer, one CSV writer (`write_csv`) and one
number format (`FLOAT`).
"""

import enum
import math

__version__ = "0.1.0"

#: the number format of every float the lab writes, to a CSV file or stdout
FLOAT = "%.12g"

#: rows `write_csv` formats and writes at a time: its memory stays bounded
#: whatever the size of the table
CHUNK_ROWS = 1024


class SchemeId(enum.Enum):
    EXPLICIT_OUCS3_CD2 = "explicit-oucs3-cd2"
    IMPLICIT_OUCS3_LELE = "implicit-oucs3-lele"
    IMEX_OUCS3_LELE = "imex-oucs3-lele"
    IMEX_NCCD = "imex-nccd"


class PksVariant(enum.Enum):
    EXPLICIT_OUCS3_CD2 = "explicit-oucs3-cd2"
    IMEX_NCCD = "imex-nccd"


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


def write_csv(path, header: str, *columns) -> None:
    """Write the line(s) `header`, then one row per element of the columns,
    each value formatted as `FLOAT`.

    The columns are broadcast against each other and read in C order, so
    x[:, None] beside a field of shape (nx, ny) repeats x_i along row i
    without a copy. A column broadcast from fewer values than the table has
    rows is formatted once per value and its text repeated. Rows are
    formatted and written `CHUNK_ROWS` at a time.
    """
    import numpy as np

    cols, fields = [], []
    for col, full in zip(columns, np.broadcast_arrays(*columns)):
        if np.size(col) < full.size:
            text = np.array([FLOAT % v for v in np.ravel(col).tolist()], dtype=object)
            full = np.broadcast_to(text.reshape(np.shape(col)), full.shape)
        cols.append(full)
        fields.append("%s" if full.dtype == object else FLOAT)
    row = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, cols[0].size, CHUNK_ROWS):
            chunk = np.column_stack([c.flat[start:start + CHUNK_ROWS] for c in cols])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
