"""Global derivative operators for the four compact/explicit schemes.

Every builder returns a `DerivativeOperator`: the derivative of nodal
values ``u`` is ``scale * (D @ u)`` with ``scale = 1/h**order`` and a
dimensionless D. The compact schemes all have the form D = A^{-1} B with a
banded A. Each is assembled in two steps: a ``*_system`` function returns A
and B as `linalg.StencilMatrix`, the NumPy weights of their row stencils (A
tridiagonal for OUCS3 and Lele; for NCCD the 2x2 block-tridiagonal system
with its (u', u'') unknowns interleaved, three bands on each side; B five
to seven entries per row), and the builder wraps the pair in a
`BandedSystem` plus the boundary rows it patches. The explicit CD2
operators are the same with A = I. Nothing of size N x N is formed:
``D @ u`` is one partitioned solve of A x = B u with B folded into its block
products (`linalg.PartitionedLU`) plus the patched rows, O(N) per call. Row
i of A^{-1} B is B^T y with A^T y = e_i, one O(N) solve with the same kind
of factors, made for A^T, so neither B nor D is expanded to get a row. Row
symbols read one row (`DerivativeOperator.row`), cached per node, and a
symbol and its kh-slope are summed from one table of exponentials
(`row_symbol_and_slope`). The dense D (`DerivativeOperator.matrix`), read by
the acceptance checks and the tests, is every row solved the same way, on
first read, so a row equals the same row of the dense D bit for bit.
Building, reading and applying operators needs NumPy alone.

Node numbering follows the 1-based convention j = 1..N+1 common in the
compact-scheme literature; storage is 0-based, so "row j" below means matrix
row j-1.

Builders are pure functions and the returned operators never change what
they represent. Their LU factors, dense matrix and rows are computed on first
use and cached without a lock; two threads that both compute one get equal
results, and neither sees the other's work in progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import LinearSolveError, PartitionedLU, StencilMatrix, tridiagonal

#: Interior coefficients of the tridiagonal second-derivative scheme:
#: alpha u''_{j-1} + u''_j + alpha u''_{j+1}
#:   = b/(4h^2) (u_{j-2} - 2u_j + u_{j+2}) + a/h^2 (u_{j-1} - 2u_j + u_{j+1}).
#: The classical sixth-order family.
LELE_INTERIOR = (2.0 / 11.0, 12.0 / 11.0, 3.0 / 11.0)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid of n_points nodes with spacing h starting at x_start."""

    n_points: int
    h: float
    x_start: float = 0.0

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError("n_points must be >= 5 for stencil consistency")
        if not self.h > 0:
            raise ValueError("h must be positive")

    def x(self) -> np.ndarray:
        return self.x_start + self.h * np.arange(self.n_points)

    @classmethod
    def on_interval(cls, x_left: float, x_right: float, n_points: int) -> "Grid1D":
        return cls(n_points, (x_right - x_left) / (n_points - 1), x_left)


@dataclass(frozen=True, eq=False)
class BandedSystem:
    """The system A y = B u behind one or more derivative operators.

    A (``lhs``) is a square `StencilMatrix` of size r N and B (``rhs``) a
    `StencilMatrix` of shape (r N, N); node j owns rows r j .. r j + r - 1
    of y, and an operator reads one of them (NCCD: r = 2, u' and u'' of one
    solve). Two partitioned factorizations are made on first use and cached:
    the one of A with B folded in (``lu``) applies the operators, and the one
    of A^T (``row_lu``) gives rows of A^{-1} B (`solve_rows`): `dense`, read
    by the acceptance checks and the tests, and `node_rows`, read by the row
    symbols.
    """

    lhs: StencilMatrix
    rhs: StencilMatrix

    @cached_property
    def lu(self) -> PartitionedLU:
        return PartitionedLU(self.lhs, self.rhs)

    @cached_property
    def row_lu(self) -> PartitionedLU:
        return PartitionedLU(self.lhs.transpose())

    @property
    def per_node(self) -> int:
        return self.rhs.per_node

    def solve(self, u: np.ndarray) -> np.ndarray:
        """y = A^{-1} B u, O(N)."""
        return self.lu.solve(u)

    def solve_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` of A^{-1} B, shape (len(rows), N): row i is B^T y
        with A^T y = e_i, one O(N) solve per row. Each y is solved alone and
        `StencilMatrix.tdot` sums every column in the same order, so a row
        does not depend on the rows read with it. Raises LinearSolveError on
        a non-finite row."""
        n = self.lhs.shape[0]
        e, y = np.zeros(n), np.empty((n, len(rows)))
        for c, i in enumerate(rows):
            e[i] = 1.0
            y[:, c] = self.row_lu.solve(e)
            e[i] = 0.0
        out = np.ascontiguousarray(self.rhs.tdot(y).T)
        if not np.all(np.isfinite(out)):
            raise LinearSolveError("non-finite row of A^-1 B (singular banded system)")
        return out

    @cached_property
    def dense(self) -> np.ndarray:
        """A^{-1} B as a dense (r N, N) matrix, every row from `solve_rows`.
        Each operator of the system patches its own rows of it in place
        (`DerivativeOperator.matrix`)."""
        return self.solve_rows(range(self.lhs.shape[0]))

    @cached_property
    def _rows(self) -> dict:
        return {}

    def node_rows(self, node: int) -> np.ndarray:
        """Rows r node .. r node + r - 1 of A^{-1} B, shape (r, N), read-only,
        from `solve_rows`, O(N). Cached per node, so the operators that share
        the system (NCCD: D1 and D2) share one pass, and equal to the same
        rows of `dense` bit for bit."""
        rows = self._rows.get(node)
        if rows is None:
            r = self.per_node
            rows = self.solve_rows(range(r * node, r * node + r))
            self._rows[node] = rows
            rows.flags.writeable = False
        return rows


@dataclass(frozen=True, eq=False)
class DerivativeOperator:
    """Derivative operator D with its 1/h**order scale.

    D u is row ``part`` of each node's block of y = A^{-1} B u
    (`BandedSystem`), except at the rows in ``patch``: each entry
    (row, first, weights) replaces that row by the explicit stencil
    ``weights`` starting at column ``first``.

    Invariant: every row sum of D vanishes (a derivative annihilates
    constants), to 1e-8 after scaling.
    """

    order: int
    scale: float
    system: BandedSystem
    part: int = 0
    patch: tuple = ()

    @property
    def n_points(self) -> int:
        return self.system.rhs.shape[1]

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """D u (dimensionless) for a real or complex vector u, O(N)."""
        d = self.system.solve(u)[self.part::self.system.per_node]
        for row, first, w in self.patch:
            d[row] = np.dot(w, u[first:first + len(w)])
        return d

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.scale * (self @ u)

    @cached_property
    def matrix(self) -> np.ndarray:
        """D as a dense N x N matrix, built on first access: a view of the
        system's dense A^{-1} B (`BandedSystem.dense`) with the patch
        written into its rows. It is read by the acceptance checks and the
        tests; row symbols read one row (`row`) instead."""
        m = self.system.dense[self.part::self.system.per_node]
        for row, first, w in self.patch:  # one write per row, so a repeat changes nothing
            m[row] = np.pad(w, (first, len(m) - first - len(w)))
        return m

    def row(self, node: int) -> np.ndarray:
        """Row `node` (0-based) of D, equal to ``matrix[node]`` bit for bit
        without forming D: the patch stencil, padded, at a patched row, else
        this operator's part of `BandedSystem.node_rows`. Raises ValueError
        unless 0 <= node < N."""
        n = self.n_points
        if not 0 <= node < n:
            raise ValueError(f"node {node} is outside the rows 0..{n - 1}")
        for row, first, w in self.patch:
            if row == node:
                return np.pad(w, (first, n - first - len(w)))
        return self.system.node_rows(node)[self.part]

    def row_symbol(self, node: int, kh):
        """Fourier symbol of row `node` (0-based): sum_r M[j,r] e^{i kh (r-j)}.

        This is the dimensionless modified-wavenumber transform used by the
        amplification-factor formulas: the first of `row_symbol_and_slope`.
        """
        return self.row_symbol_and_slope(node, kh)[0]

    def row_symbol_and_slope(self, node: int, kh):
        """Row symbol S of row `node` (0-based) and its slope

            dS/d(kh) = sum_r i (r-j) M[j,r] e^{i kh (r-j)},

        both summed from one table of the exponentials. It reads one row
        (`row`), so D is never formed, and raises ValueError for a node
        outside 0..N-1. kh may be an array; each entry is summed exactly as
        a scalar kh is.
        """
        kh = np.asarray(kh, dtype=float)
        r = np.arange(self.n_points) - node
        terms = self.row(node) * np.exp(1j * np.multiply.outer(kh, r))
        s, ds = np.sum(terms, axis=-1), 1j * np.sum(terms * r, axis=-1)
        return (complex(s), complex(ds)) if kh.ndim == 0 else (s, ds)


@dataclass(frozen=True)
class Oucs3Coefficients:
    """Constants of the optimal upwind compact first-derivative scheme.

    Interior stencil (j = 3..N-1):

        p_{j-1} u'_{j-1} + u'_j + p_{j+1} u'_{j+1} = (1/h) sum_{r=-2}^{2} q_r u_{j+r}

    with p_{j+-1} = D +- eta/60 and

        q_{+-1} = +-E/2 + eta/30,   q_{+-2} = +-F/4 + eta/300,
        q_0     = -11 eta / 150.

    Consistency requires sum q_r = 0 (constants annihilated; forces the /150
    denominator in q_0) and E + F = 1 + 2D (linear exactness). Both
    identities hold exactly for the stored constants and are asserted in the
    test suite. eta < 0 upwinds the stencil for left-to-right advection and
    leaves a first-order interior error eta h u''/(75 (1 + 2D)): the
    symmetric eta part of q has second moment 14 eta/300 against eta/30 on
    the left-hand side. With eta = 0 the interior stencil is second order.

    `e` and `f` hold the published E = 1.57557379 and F = 0.183205192
    (Sengupta, Ganeriwal & De, JCP 192, 2003) exchanged. Both sums still
    hold. The acceptance references were computed with the constants as
    stored: with E and F in their published places criteria 1, 3, 4 and 7
    fail, so the constants stay as they are.
    """

    d: float = 0.3793894912
    f: float = 1.57557379
    e: float = 0.183205192
    eta: float = -2.0
    beta2: float = -0.025
    beta_n: float = 0.09

    @property
    def p_minus(self) -> float:
        return self.d - self.eta / 60.0

    @property
    def p_plus(self) -> float:
        return self.d + self.eta / 60.0

    def q(self) -> np.ndarray:
        """RHS weights (q_{-2}, q_{-1}, q_0, q_{+1}, q_{+2})."""
        return np.array(
            [
                -self.f / 4.0 + self.eta / 300.0,
                -self.e / 2.0 + self.eta / 30.0,
                -11.0 * self.eta / 150.0,
                self.e / 2.0 + self.eta / 30.0,
                self.f / 4.0 + self.eta / 300.0,
            ]
        )


DEFAULT_OUCS3 = Oucs3Coefficients()


def _near_boundary_first_row(beta: float) -> np.ndarray:
    """Five-point one-sided first-derivative weights at j = 2 (or mirrored j = N).

    u'_2 = (1/h) [ (2b/3 - 1/3) u_1 - (8b/3 + 1/2) u_2 + (4b + 1) u_3
                   - (8b/3 + 1/6) u_4 + (2b/3) u_5 ]
    """
    return np.array(
        [
            2.0 * beta / 3.0 - 1.0 / 3.0,
            -(8.0 * beta / 3.0 + 0.5),
            4.0 * beta + 1.0,
            -(8.0 * beta / 3.0 + 1.0 / 6.0),
            2.0 * beta / 3.0,
        ]
    )


def _explicit(order: int, grid: Grid1D, interior, first, last) -> DerivativeOperator:
    """Three-point operator (A = I): ``interior`` weights centred on rows
    1..N-1, ``first`` on columns 0..2 of row 0 and ``last`` on the last
    three columns of row N."""
    n = grid.n_points
    b = np.zeros((5, n))  # column offsets -2..2
    b[1:4, 1:n - 1] = np.array(interior)[:, None]
    b[2:5, 0], b[0:3, n - 1] = first, last
    system = BandedSystem(StencilMatrix(np.ones((1, n)), 0), StencilMatrix(b, 2))
    return DerivativeOperator(order, 1.0 / grid.h**order, system)


def build_cd2_first(grid: Grid1D) -> DerivativeOperator:
    """Second-order central first derivative; one-sided rows at the ends."""
    return _explicit(1, grid, (-0.5, 0.0, 0.5), (-1.5, 2.0, -0.5), (0.5, -2.0, 1.5))


def build_cd2_second(grid: Grid1D) -> DerivativeOperator:
    """Second-order central second derivative (1, -2, 1)/h^2.

    The end rows reuse the same three-point stencil one node in, which is
    first-order there; in the steppers those rows are overridden by Dirichlet
    pinning and never drive the solution.
    """
    return _explicit(2, grid, (1.0, -2.0, 1.0), (1.0, -2.0, 1.0), (1.0, -2.0, 1.0))


def oucs3_system(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3):
    """Banded left-hand side A and stencil right-hand side B of `build_oucs3`.

    Interior rows j = 3..N-1 hold the tridiagonal/five-point compact
    stencil, rows 1 and N+1 the one-sided explicit forms and rows 2 and N
    the five-point near-boundary forms with beta2/betaN; A is the identity
    in those four rows.
    """
    n = grid.n_points
    if n < 7:
        raise ValueError("n_points must be >= 7")
    a = np.tile((coeffs.p_minus, 1.0, coeffs.p_plus), (n, 1))  # (lo, diag, up) per row
    a[[0, 1, n - 2, n - 1]] = (0.0, 1.0, 0.0)
    b = np.zeros((7, n))  # column offsets -3..3
    b[1:6, 2:n - 2] = coeffs.q()[:, None]
    b[3:6, 0] = (-1.5, 2.0, -0.5)
    b[2:7, 1] = _near_boundary_first_row(coeffs.beta2)
    b[0:5, n - 2] = -_near_boundary_first_row(coeffs.beta_n)[::-1]
    b[1:4, n - 1] = (0.5, -2.0, 1.5)
    return tridiagonal(*a.T), StencilMatrix(b, 3)


def build_oucs3(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3) -> DerivativeOperator:
    """Upwind compact first-derivative operator A^{-1} B (`oucs3_system`).

    Rows 2 and N of the operator are patched with central CD2 rows: the
    compact row at j = 2 is unstable across wavenumbers, and the outflow row
    N gets the mirrored treatment. The replaced rows still shape the
    interior rows through A^{-1}.
    """
    n = grid.n_points
    cd2 = (-0.5, 0.0, 0.5)
    return DerivativeOperator(1, 1.0 / grid.h, BandedSystem(*oucs3_system(grid, coeffs)),
                              patch=((1, 0, cd2), (n - 2, n - 3, cd2)))


def lele_system(grid: Grid1D, interior=LELE_INTERIOR):
    """Banded left-hand side A and stencil right-hand side B of `build_lele_second`.

    Boundary closures:
        j = 1:   u''_1 = (u_1 - 2u_2 + u_3)/h^2
        j = 2:   u''_1 + 10 u''_2 + u''_3 = 12 (u_1 - 2u_2 + u_3)/h^2
        j = N:   mirrored j = 2 row
        j = N+1: u''_{N+1} + 11 u''_N = (13 u_{N+1} - 27 u_N + 15 u_{N-1} - u_{N-2})/h^2
    """
    n = grid.n_points
    if n < 7:
        raise ValueError("n_points must be >= 7")
    alpha, ca, cb = interior
    a = np.tile((alpha, 1.0, alpha), (n, 1))  # (lo, diag, up) per row
    a[0] = (0.0, 1.0, 0.0)
    a[[1, n - 2]] = (1.0, 10.0, 1.0)
    a[n - 1] = (11.0, 1.0, 0.0)
    b = np.zeros((6, n))  # column offsets -3..2
    b[1:6, 2:n - 2] = np.array([cb / 4.0, ca, -2.0 * ca - cb / 2.0, ca, cb / 4.0])[:, None]
    b[3:6, 0] = (1.0, -2.0, 1.0)
    b[2:5, [1, n - 2]] = np.array([12.0, -24.0, 12.0])[:, None]
    b[0:4, n - 1] = (-1.0, 15.0, -27.0, 13.0)
    return tridiagonal(*a.T), StencilMatrix(b, 3)


def build_lele_second(grid: Grid1D, interior=LELE_INTERIOR) -> DerivativeOperator:
    """Compact second-derivative operator A^{-1} B (`lele_system`), spectral-like."""
    return DerivativeOperator(2, 1.0 / grid.h**2, BandedSystem(*lele_system(grid, interior)))


def nccd_system(grid: Grid1D):
    """Interleaved banded system (lhs, rhs) of the combined compact scheme.

    In nondimensional unknowns v = h u' and w = h^2 u'' the scheme reads

        j = 1:        v_1 + 2 v_2 - w_2            = -3.5 u_1 + 4 u_2 - 0.5 u_3
                      w_1 + 5 w_2 - 6 v_2          = 9 u_1 - 12 u_2 + 3 u_3
        j = 2..N:     7/16 (v_{j+1} + v_{j-1}) + v_j - 1/16 (w_{j+1} - w_{j-1})
                                                   = 15/16 (u_{j+1} - u_{j-1})
                      9/8 (v_{j+1} - v_{j-1}) + w_j - 1/8 (w_{j+1} + w_{j-1})
                                                   = 3 (u_{j+1} - 2 u_j + u_{j-1})
        j = N+1:      mirrored j = 1 rows.

    With the unknowns ordered (v_1, w_1, v_2, w_2, ...) the first equation of
    node j is row 2j-2 and the second row 2j-1, and ``lhs`` is a square
    `StencilMatrix` of size 2(N+1) with three bands on each side of the
    diagonal. ``rhs`` is the (2(N+1), N+1) `StencilMatrix` with the right-hand
    sides interleaved the same way (two rows per node), so
    ``lhs^{-1} rhs`` holds D1 in its even and D2 in its odd rows.
    """
    n = grid.n_points
    if n < 7:
        raise ValueError("n_points must be >= 7")
    # Row-wise stencils at column offsets -3..3. From the v_j row (first
    # equation) they reach (w_{j-2}, v_{j-1}, w_{j-1}, v_j, w_j, v_{j+1}, w_{j+1}),
    # from the w_j row (second) (v_{j-1}, w_{j-1}, v_j, w_j, v_{j+1}, w_{j+1}, v_{j+2}).
    lhs = np.empty((n, 2, 7))
    lhs[:, 0] = (0.0, 7.0 / 16.0, 1.0 / 16.0, 1.0, 0.0, 7.0 / 16.0, -1.0 / 16.0)
    lhs[:, 1] = (-9.0 / 8.0, -1.0 / 8.0, 0.0, 1.0, 9.0 / 8.0, -1.0 / 8.0, 0.0)
    lhs[0] = [(0.0, 0.0, 0.0, 1.0, 0.0, 2.0, -1.0), (0.0, 0.0, 0.0, 1.0, -6.0, 5.0, 0.0)]
    lhs[n - 1] = [(0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0), (6.0, 5.0, 0.0, 1.0, 0.0, 0.0, 0.0)]
    rhs = np.zeros((5, n, 2))  # column offsets -2..2 of the (v_j, w_j) rows
    rhs[1:4, 1:n - 1] = np.array([(-15.0 / 16.0, 3.0), (0.0, -6.0), (15.0 / 16.0, 3.0)])[:, None]
    rhs[2:5, 0] = [(-3.5, 9.0), (4.0, -12.0), (-0.5, 3.0)]
    rhs[0:3, n - 1] = [(0.5, 3.0), (-4.0, -12.0), (3.5, 9.0)]
    return (StencilMatrix(lhs.reshape(2 * n, 7).T.copy(), 3),
            StencilMatrix(rhs.reshape(5, 2 * n), 2, per_node=2))


def nccd_blocks(grid: Grid1D):
    """Dense blocks (A1, B1, C1, A2, B2, C2) of `nccd_system`.

    The same scheme written as A1 v + B1 w = C1 u and A2 v + B2 w = C2 u,
    sliced out of the interleaved system. The builders never call this; it
    serves checks stated in block form.
    """
    lhs, rhs = nccd_system(grid)
    a, c = lhs.toarray(), rhs.toarray()
    return a[0::2, 0::2], a[0::2, 1::2], c[0::2], a[1::2, 0::2], a[1::2, 1::2], c[1::2]


def build_nccd(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3,
               boundary_fix: bool = True):
    """First- and second-derivative operators of the combined compact scheme.

    Both read one `BandedSystem` of the interleaved system (`nccd_system`):
    D1 its even rows and D2 its odd rows, so one solve serves both.

    With ``boundary_fix`` (the production form) rows 2 and N of D1 are
    patched with the explicit five-point near-boundary stencils (beta2/betaN)
    and rows 2 and N of D2 with central CD2 rows, which suppresses the
    near-boundary instability of the coupled closure. ``boundary_fix=False``
    returns the raw solution of the system, for which
    A1 D1 + B1 D2 = C1 and A2 D1 + B2 D2 = C2 hold to machine precision.
    """
    n = grid.n_points
    system = BandedSystem(*nccd_system(grid))
    fix1 = ((1, 0, _near_boundary_first_row(coeffs.beta2)),
            (n - 2, n - 5, -_near_boundary_first_row(coeffs.beta_n)[::-1]))
    fix2 = ((1, 0, (1.0, -2.0, 1.0)), (n - 2, n - 3, (1.0, -2.0, 1.0)))
    return (
        DerivativeOperator(1, 1.0 / grid.h, system, 0, fix1 if boundary_fix else ()),
        DerivativeOperator(2, 1.0 / grid.h**2, system, 1, fix2 if boundary_fix else ()),
    )
