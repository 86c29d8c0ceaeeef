"""Test-only references: LAPACK banded solves and the residual contract.

The program solves in NumPy alone (`adrlab.linalg`); these helpers are
what its solvers and operators are checked against. They use SciPy, which
only the tests need.
"""

import numpy as np
import scipy.linalg

from adrlab.linalg import BandedMatrix, LinearSolveError


def dense(m) -> np.ndarray:
    """m as an ndarray; a stencil matrix is expanded."""
    return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


def from_dense(a: np.ndarray, lower: int, upper: int) -> BandedMatrix:
    """The band of a dense square matrix as a `BandedMatrix`."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    bands = np.zeros((lower + upper + 1, n), dtype=a.dtype)
    for d in range(-lower, upper + 1):
        diag = np.diagonal(a, d)
        if d >= 0:
            bands[upper - d, d:d + len(diag)] = diag
        else:
            bands[upper - d, : len(diag)] = diag
    return BandedMatrix(n, lower, upper, bands)


def solve_banded(a: BandedMatrix, b) -> np.ndarray:
    """Solve a x = b for one or many right-hand sides (LAPACK gbsv).

    Raises LinearSolveError on a singular pivot or a non-finite result. A
    stencil b is expanded first.
    """
    b = dense(b)
    if b.shape[0] != a.size:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve_banded((a.lower, a.upper), a.bands, b)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular banded system)")
    return x


def residual_inf(a, x, b) -> float:
    """||a x - b||_inf, for asserting the solve contract (b may be a stencil matrix)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("dense matrix expected")
    return float(np.max(np.abs(a @ x - dense(b))))


def residual_bound(a, x, b, tol: float = 1e-10) -> float:
    """Right-hand side of the residual contract for given operands."""
    na = float(np.max(np.sum(np.abs(a), axis=1)))
    nx = float(np.max(np.abs(x)))
    nb = float(np.max(np.abs(dense(b))))
    return tol * (na * nx + nb)
