"""Banded and dense linear algebra.

The operator builders assemble every compact left-hand side as a
`BandedMatrix` (row-wise stencils via `BandedMatrix.from_rows` or
`tridiagonal`) and every right-hand side as a `StencilMatrix`, the NumPy
stencil weights of a sparse matrix. Two factorizations serve two jobs:

* `BandedLU` (LAPACK gbtrf/gbtrs) applies an operator: factored once,
  solved against one vector per step. With the CSR form of a
  `StencilMatrix` (`StencilMatrix.csr`) it is all the 1D steppers need.
* `TransposedBandLU` (NumPy, partial pivoting) forms rows of ``A^{-1} B``:
  row i is ``B^T y`` with ``A^T y = e_i``, so a row costs one O(n)
  transposed solve, and many rows are many unit right-hand sides of one
  call (`TransposedBandLU.inverse_rows`). Its solve loops over the
  unknowns and updates every right-hand-side column by elementwise
  operations, so a column solved alone equals the same column of a
  many-column call bit for bit.

`solve_banded` and `solve_dense` (LAPACK) are the references the NumPy
factorization and the operators are tested against; no operator assembly
calls them. SciPy is imported only inside the LAPACK pieces (`BandedLU`,
`solve_banded`, `solve_dense`) and `StencilMatrix.csr`, so forming rows
and dense operators needs NumPy alone.

Dense matrices are plain float64/complex128 ndarrays of shape (n, m).
Banded matrices use the LAPACK band layout (`scipy.linalg.solve_banded`):
diagonal number ``u - i + j`` of the matrix lands in row ``i`` of the band
array. All solvers are direct with partial pivoting; the operator assemblies
combine boundary rows that break diagonal dominance (Lele's last row
``u''_{N+1} + 11 u''_N``), so pivoting is not optional.

Every solve satisfies the residual contract
``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)``
for well-conditioned inputs; `residual_inf` and `residual_bound` compute
its two sides so tests can assert it per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import NumericalError

#: unit right-hand sides per `TransposedBandLU.solve` call in `inverse_rows`
UNIT_BLOCK = 512


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

    def to_rows(self) -> np.ndarray:
        """Row-wise stencils, the inverse of `from_rows`: ``rows[i, k] =
        a[i, i - lower + k]``, 0 where the column falls outside the matrix."""
        n, width = self.size, self.lower + self.upper + 1
        rows = np.zeros((n, width))
        for k in range(width):
            d = k - self.lower
            i = np.arange(max(0, -d), min(n, n - d))
            rows[i, k] = self.bands[self.upper - d, i + d]
        return rows

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


@dataclass(frozen=True, eq=False)
class StencilMatrix:
    """Sparse matrix of shape (r n, n), r = ``per_node``, holding
    ``weights[k, i]`` at (i, i // r + k - lower): each node carries r rows
    centred on its own column. Weights that fall outside the columns are
    ignored. ``weights`` has shape (stencil width, r n)."""

    weights: np.ndarray
    lower: int
    per_node: int = 1

    @property
    def shape(self) -> tuple:
        m = self.weights.shape[1]
        return m, m // self.per_node

    def _entries(self):
        """(values, rows, columns) of the weights inside the matrix, row by
        row in column order within each stencil offset."""
        width, m = self.weights.shape
        i = np.tile(np.arange(m, dtype=np.int32), width)
        c = i // self.per_node + np.repeat(np.arange(width, dtype=np.int32), m) - self.lower
        ok = (c >= 0) & (c < self.shape[1]) & (self.weights.ravel() != 0)
        return self.weights.ravel()[ok], i[ok], c[ok]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        vals, i, c = self._entries()
        out[i, c] = vals
        return out

    @cached_property
    def csr(self):
        """The matrix as a scipy.sparse CSR array, made on first use."""
        import scipy.sparse

        vals, i, c = self._entries()
        return scipy.sparse.csr_array((vals, (i, c)), shape=self.shape)

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """B^T y for y of shape (r n, k), one stencil entry at a time, so
        every column of y is summed in the same order whatever k is."""
        width, m = self.weights.shape
        r, n = self.per_node, self.shape[1]
        out = np.zeros((n,) + y.shape[1:])
        for k in range(width):
            d = k - self.lower  # node q's rows reach column q + d
            q0, q1 = max(0, -d), min(n, n - d)
            for p in range(r):
                w = self.weights[k, p::r][q0:q1]
                out[q0 + d:q1 + d] += w[:, None] * y[p::r][q0:q1]
        return out


def dense(m) -> np.ndarray:
    """m as an ndarray; a sparse or stencil matrix is expanded."""
    return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


class BandedLU:
    """LU factors of a banded matrix (LAPACK gbtrf, partial pivoting).

    ``ab`` is a Fortran-ordered array of shape (2 lower + upper + 1, size)
    holding the matrix in band layout from row ``lower`` on (the rows above
    take the fill-in of pivoting); it is factored in place, so pass a
    private array (`BandedMatrix.factor` does). Raises LinearSolveError on
    an exactly singular pivot.
    """

    def __init__(self, ab: np.ndarray, lower: int, upper: int):
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        self.lu, self.piv, info = dgbtrf(ab, lower, upper, overwrite_ab=1)
        if info > 0:
            raise LinearSolveError(f"singular banded system (zero pivot in column {info - 1})")
        self.lower, self.upper = lower, upper
        self._trs = dgbtrs

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b, in the storage of b when b is a contiguous real
        vector (pass a temporary); complex b is solved as two real ones."""
        if np.iscomplexobj(b):
            return self.solve(b.real.copy()) + 1j * self.solve(b.imag.copy())
        return self._trs(self.lu, self.lower, self.upper, b, self.piv, overwrite_b=1)[0]


class TransposedBandLU:
    """LU factors of a `BandedMatrix` a with partial pivoting, made in
    Python and NumPy, for solves with a^T over many right-hand sides.

    As in LAPACK gbtf2, step j swaps row ``piv[j]`` into place and
    eliminates below it, so a = P_0 L_0 P_1 L_1 ... U. ``diag[j]`` holds
    U[j, j], ``ratio[j, d]`` U[j, j + 1 + d] / U[j, j] (d < lower + upper)
    and ``l[j, d]`` the multiplier of row j + 1 + d at step j; entries
    beyond the last column are 0. Raises LinearSolveError on a zero or
    non-finite pivot.
    """

    def __init__(self, a: BandedMatrix):
        n, kl, w = a.size, a.lower, a.lower + a.upper + 1
        rows = a.to_rows()
        u, l, piv = np.empty((n, w)), np.zeros((n, kl)), [0] * n
        # active rows j .. j + kl over the columns j .. j + w - 1, as lists
        act = [rows[i, kl - i:].tolist() + [0.0] * (kl - i) for i in range(min(kl + 1, n))]
        for j in range(n):
            col = [abs(r[0]) for r in act]
            p = col.index(max(col))
            top = act[p]
            if not 0.0 < abs(top[0]) < math.inf:
                raise LinearSolveError(f"singular banded system (zero pivot in column {j})")
            act[p], piv[j], u[j] = act[0], j + p, top
            nxt, mult, tail = [], [], top[1:]
            for r in act[1:]:
                m = r[0] / top[0]
                mult.append(m)
                nxt.append([x - m * y for x, y in zip(r[1:], tail)] + [0.0])
            l[j, :len(mult)] = mult
            if j + 1 + kl < n:
                nxt.append(rows[j + 1 + kl].tolist())
            act = nxt
        self.diag, self.ratio = u[:, 0].copy(), u[:, 1:] / u[:, :1]
        self.l, self.piv = l, piv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a^T x = b for float b of shape (n, k). Each step updates
        whole rows of x elementwise, with no BLAS call and no reduction, so
        every column goes through the same operations whatever k is. Raises
        LinearSolveError on a non-finite x.
        """
        n, kl, w = len(self.diag), self.l.shape[1], self.ratio.shape[1]
        x = np.zeros((n + max(w, kl),) + b.shape[1:])  # rows past n take the zero entries
        x[:n] = b
        tmp = np.empty((max(w, kl),) + b.shape[1:])
        if w:  # U^T x = b, forward, one column of U^T at a time; the divisions last
            ratio, t = self.ratio[:, :, None], tmp[:w]
            for j in range(n):
                x[j + 1:j + 1 + w] -= np.multiply(ratio[j], x[j], out=t)
        x[:n] /= self.diag[:, None]
        if kl:  # L^T, backward, undoing the interchanges
            l, t = self.l[:, :, None], tmp[:kl]
            for j in range(n - 2, -1, -1):
                xj = x[j]
                np.multiply(l[j], x[j + 1:j + 1 + kl], out=t)
                for d in range(kl):
                    xj -= t[d]
                p = self.piv[j]
                if p != j:
                    x[[j, p]] = x[[p, j]]
        x = x[:n]
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("non-finite solution (singular banded system)")
        return x

    def inverse_rows(self, b: StencilMatrix, rows: range) -> np.ndarray:
        """Rows ``rows`` of a^{-1} B, shape (len(rows), n): row i is B^T y
        with a^T y = e_i, O(n) per row. The unit right-hand sides are solved
        ``UNIT_BLOCK`` at a time; a row does not depend on the block it
        shares (`solve`, `StencilMatrix.tdot`)."""
        m, n = b.shape
        if m != len(self.diag):
            raise ValueError("rhs row count must equal matrix size")
        out = np.empty((len(rows), n))
        for s in range(0, len(rows), UNIT_BLOCK):
            block = np.asarray(rows[s:s + UNIT_BLOCK])
            e = np.zeros((m, len(block)))
            e[block, np.arange(len(block))] = 1.0
            out[s:s + len(block)] = b.tdot(self.solve(e)).T
        return out


def tridiagonal(lo, diag, up) -> BandedMatrix:
    """Banded matrix with constant or per-row sub/main/super diagonals.

    Per-row arrays are indexed by row: ``lo[i] = a[i, i-1]`` and
    ``up[i] = a[i, i+1]``; ``lo[0]`` and ``up[-1]`` are ignored.
    """
    return BandedMatrix.from_rows(np.column_stack(np.broadcast_arrays(lo, diag, up)), 1)


def solve_banded(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for one or many right-hand sides (LAPACK).

    Raises LinearSolveError on a singular or near-singular pivot, which in
    this code base signals an ill-posed stencil assembly. A sparse or
    stencil b is expanded first.
    """
    import scipy.linalg

    b = np.asarray(dense(b), dtype=float)
    if b.shape[0] != a.size:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve_banded((a.lower, a.upper), a.bands, b)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular banded system)")
    return x


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU solve with partial pivoting; b may hold multiple right-hand sides.

    Inverse-times-matrix is one call: solve_dense(a, m) == a^{-1} m. A
    sparse or stencil b is expanded first.
    """
    import scipy.linalg

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
