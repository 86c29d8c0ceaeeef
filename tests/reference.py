"""Test-only references: stencil expansion, dense operators, LAPACK banded
solves, the raw NCCD system and the residual contract.

The program solves in NumPy alone (`adrlab.linalg`); these helpers are
what its solvers and operators are checked against. They use SciPy, which
only the tests need.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from adrlab.linalg import LinearSolveError, StencilMatrix
from adrlab.operators import BandedSystem, DerivativeOperator, Grid1D, build_nccd, nccd_system


def sparse(m: StencilMatrix) -> scipy.sparse.csr_array:
    """A stencil matrix entry by entry: weight k of row i at column
    i // per_node + k - lower, the weights outside the columns left out."""
    width, rows = m.weights.shape
    i = np.tile(np.arange(rows), width)
    c = i // m.per_node + np.repeat(np.arange(width), rows) - m.lower
    ok = (c >= 0) & (c < m.shape[1])
    return scipy.sparse.csr_array((m.weights.ravel()[ok], (i[ok], c[ok])), shape=m.shape)


def dense(m) -> np.ndarray:
    """m as an ndarray: a stencil matrix expanded (`sparse`), a derivative
    operator stacked from its rows (`DerivativeOperator.row`)."""
    if isinstance(m, StencilMatrix):
        return sparse(m).toarray()
    if isinstance(m, DerivativeOperator):
        return np.array([m.row(j) for j in range(m.n_points)])
    return np.asarray(m)


def from_dense(a: np.ndarray, lower: int, upper: int) -> StencilMatrix:
    """The band of a dense square matrix as a square `StencilMatrix`,
    0 at the weights outside the matrix."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    weights = np.zeros((lower + upper + 1, n), dtype=a.dtype)
    for d in range(-lower, upper + 1):
        diag = np.diagonal(a, d)  # a[i, i + d], from row max(-d, 0)
        weights[lower + d, max(-d, 0):max(-d, 0) + len(diag)] = diag
    return StencilMatrix(weights, lower)


def lapack_bands(a: StencilMatrix) -> np.ndarray:
    """A square `StencilMatrix` in the LAPACK band layout: entry (i, j) at
    ``bands[upper + i - j, j]``; weights outside the matrix are dropped."""
    n = a.shape[0]
    bands = np.zeros((a.lower + a.upper + 1, n))
    for k in range(a.lower + a.upper + 1):
        d = k - a.lower  # column offset j - i of this stencil entry
        i = np.arange(max(0, -d), min(n, n - d))
        bands[a.upper - d, i + d] = a.weights[k, i]
    return bands


def solve_banded(a: StencilMatrix, b) -> np.ndarray:
    """Solve a x = b for a square `StencilMatrix` a and one or many
    right-hand sides (LAPACK gbsv).

    Raises LinearSolveError on a singular pivot or a non-finite result. A
    stencil b is expanded first.
    """
    b = dense(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve_banded((a.lower, a.upper), lapack_bands(a), b)
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


def mirror_folded(m: np.ndarray) -> np.ndarray:
    """An operator on n + 2 nodes as the n x n operator it is on the
    mirror-padded line (u_1, u_1..u_n, u_n): ghost rows dropped, ghost
    columns folded into the boundary columns."""
    m = m[1:-1].copy()
    m[:, 1] += m[:, 0]
    m[:, -2] += m[:, -1]
    return m[:, 1:-1]


def nccd_line_operators(n: int):
    """Dense dimensionless D1 and D2 of the NCCD scheme along a line of n
    cells with zero-Neumann walls: `build_nccd` on n + 2 nodes, folded."""
    return [mirror_folded(dense(op)) for op in build_nccd(Grid1D(n + 2, 1.0))]


def nccd_raw(grid):
    """D1 and D2 of `nccd_system` without `build_nccd`'s boundary patches:
    the raw solution of the interleaved system."""
    system = BandedSystem(*nccd_system(grid))
    return (DerivativeOperator(1, 1.0 / grid.h, system, 0),
            DerivativeOperator(2, 1.0 / grid.h**2, system, 1))


def nccd_blocks(grid):
    """Dense blocks (A1, B1, C1, A2, B2, C2) of `nccd_system`: the scheme
    as A1 v + B1 w = C1 u and A2 v + B2 w = C2 u."""
    a, c = (dense(m) for m in nccd_system(grid))
    return a[0::2, 0::2], a[0::2, 1::2], c[0::2], a[1::2, 0::2], a[1::2, 1::2], c[1::2]
