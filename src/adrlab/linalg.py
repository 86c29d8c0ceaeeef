"""Banded and dense linear algebra.

The operator builders assemble every compact left-hand side as a
`BandedMatrix` (row-wise stencils via `BandedMatrix.from_rows` or
`tridiagonal`) and every right-hand side as a sparse matrix
(`stencil_matrix`). Operators are applied through a `BandedLU`, factored
once and solved against one vector per call; rows of ``A^{-1} B`` are
formed only on request, by `solve_banded` calls with the columns of ``B``
as right-hand sides, one block of columns at a time
(`operators.BandedSystem.solve_columns`). `solve_dense` is the dense
reference the banded solves are tested against; no operator assembly
calls it.

Dense matrices are plain float64/complex128 ndarrays of shape (n, m).
Banded matrices use the LAPACK band layout (`scipy.linalg.solve_banded`):
diagonal number ``u - i + j`` of the matrix lands in row ``i`` of the band
array. All solvers are direct with partial pivoting; the operator assemblies
combine boundary rows that break diagonal dominance, so pivoting is not
optional.

Every solve satisfies the residual contract
``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)``
for well-conditioned inputs; `residual_inf` and `residual_bound` compute
its two sides so tests can assert it per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import NumericalError


class LinearSolveError(NumericalError):
    """Singular or numerically singular system encountered in a direct solve."""


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix in LAPACK band storage.

    ``bands`` has shape (lower + upper + 1, size); entry (i, j) of the dense
    matrix sits at ``bands[upper + i - j, j]`` for ``-lower <= j - i <= upper``.
    Out-of-band entries are implicitly zero.
    """

    size: int
    lower: int
    upper: int
    bands: np.ndarray

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not (0 <= self.lower < self.size and 0 <= self.upper < self.size):
            raise ValueError("bandwidths must be < size")
        if self.bands.shape != (self.lower + self.upper + 1, self.size):
            raise ValueError("band array shape mismatch")

    @classmethod
    def from_dense(cls, a: np.ndarray, lower: int, upper: int) -> "BandedMatrix":
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
        return cls(n, lower, upper, bands)

    @classmethod
    def from_rows(cls, rows, lower: int) -> "BandedMatrix":
        """Banded matrix from row-wise stencils: ``rows[i, k] = a[i, i - lower + k]``.

        ``rows`` has shape (size, lower + upper + 1). Stencil entries that
        fall outside the matrix (left of column 0 in the first rows, right of
        the last column in the last rows) are ignored.
        """
        rows = np.asarray(rows, dtype=float)
        n, width = rows.shape
        upper = width - lower - 1
        bands = np.zeros((width, n))
        for k in range(width):
            d = k - lower  # column offset j - i of this stencil entry
            i = np.arange(max(0, -d), min(n, n - d))
            bands[upper - d, i + d] = rows[i, k]
        return cls(n, lower, upper, bands)

    def factor(self) -> "BandedLU":
        """LU factors of a private copy; the matrix is left as it is."""
        ab = np.zeros((2 * self.lower + self.upper + 1, self.size), order="F")
        ab[self.lower:] = self.bands
        return BandedLU(ab, self.lower, self.upper)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.size, self.size), dtype=self.bands.dtype)
        for d in range(-self.lower, self.upper + 1):
            m = self.size - abs(d)
            vals = self.bands[self.upper - d, max(d, 0):max(d, 0) + m]
            a += np.diag(vals, d)
        return a


def stencil_matrix(weights, lower: int, per_node: int = 1) -> scipy.sparse.csr_array:
    """Sparse matrix of shape (r n, n), r = ``per_node``, holding
    ``weights[k, i]`` at (i, i // r + k - lower): each node carries r rows
    centred on its own column. Weights that fall outside the columns are
    ignored."""
    width, m = weights.shape
    i = np.tile(np.arange(m, dtype=np.int32), width)
    c = i // per_node + np.repeat(np.arange(width, dtype=np.int32), m) - lower
    ok = (c >= 0) & (c < m // per_node) & (weights.ravel() != 0)
    return scipy.sparse.csr_array((weights.ravel()[ok], (i[ok], c[ok])), shape=(m, m // per_node))


def dense(m) -> np.ndarray:
    """m as an ndarray; a scipy.sparse matrix is expanded."""
    return m.toarray() if scipy.sparse.issparse(m) else np.asarray(m)


class BandedLU:
    """LU factors of a banded matrix (LAPACK gbtrf, partial pivoting).

    ``ab`` is a Fortran-ordered array of shape (2 lower + upper + 1, size)
    holding the matrix in band layout from row ``lower`` on (the rows above
    take the fill-in of pivoting); it is factored in place, so pass a
    private array (`BandedMatrix.factor` does). Raises LinearSolveError on
    an exactly singular pivot.
    """

    def __init__(self, ab: np.ndarray, lower: int, upper: int):
        self.lu, self.piv, info = dgbtrf(ab, lower, upper, overwrite_ab=1)
        if info > 0:
            raise LinearSolveError(f"singular banded system (zero pivot in column {info - 1})")
        self.lower, self.upper = lower, upper

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b, in the storage of b when b is a contiguous real
        vector (pass a temporary); complex b is solved as two real ones."""
        if np.iscomplexobj(b):
            return self.solve(b.real.copy()) + 1j * self.solve(b.imag.copy())
        return dgbtrs(self.lu, self.lower, self.upper, b, self.piv, overwrite_b=1)[0]


def tridiagonal(lo, diag, up) -> BandedMatrix:
    """Banded matrix with constant or per-row sub/main/super diagonals.

    Per-row arrays are indexed by row: ``lo[i] = a[i, i-1]`` and
    ``up[i] = a[i, i+1]``; ``lo[0]`` and ``up[-1]`` are ignored.
    """
    return BandedMatrix.from_rows(np.column_stack(np.broadcast_arrays(lo, diag, up)), 1)


def solve_banded(a: BandedMatrix, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """Solve a x = b for one or many right-hand sides.

    Raises LinearSolveError on a singular or near-singular pivot, which in
    this code base signals an ill-posed stencil assembly. A sparse b is
    expanded first. With ``overwrite_b`` a Fortran-ordered float b is
    solved in place and returned as x.
    """
    b = np.asarray(dense(b), dtype=float)
    if b.shape[0] != a.size:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve_banded((a.lower, a.upper), a.bands, b, overwrite_b=overwrite_b)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular banded system)")
    return x


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU solve with partial pivoting; b may hold multiple right-hand sides.

    Inverse-times-matrix is one call: solve_dense(a, m) == a^{-1} m. A
    sparse b is expanded first.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    b = dense(b)
    if b.shape[0] != n:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve(a, b)
    except scipy.linalg.LinAlgError as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular dense system)")
    return x


def residual_inf(a, x, b) -> float:
    """||a x - b||_inf, for asserting the solve contract (b may be sparse)."""
    a = np.asarray(a)
    if isinstance(a, np.ndarray) and a.ndim == 2:
        r = a @ x - dense(b)
    else:
        raise ValueError("dense matrix expected")
    return float(np.max(np.abs(r)))


def residual_bound(a, x, b, tol: float = 1e-10) -> float:
    """Right-hand side of the residual contract for given operands."""
    na = float(np.max(np.sum(np.abs(a), axis=1)))
    nx = float(np.max(np.abs(x)))
    nb = float(np.max(np.abs(dense(b))))
    return tol * (na * nx + nb)
