"""Global derivative matrices for the four compact/explicit schemes.

Every builder returns a `DerivativeOperator` holding a dense, dimensionless
matrix ``M`` and the scale ``1/h**order``; the derivative of nodal values
``u`` is ``scale * (M @ u)``.

The compact schemes all have the form M = A^{-1} B with a banded A. Each is
assembled in two steps: a ``*_system`` function returns A as a
`linalg.BandedMatrix` (tridiagonal for OUCS3 and Lele; for NCCD the 2x2
block-tridiagonal system with its (u', u'') unknowns interleaved, three
bands on each side) together with the dense right-hand side B, and the
builder gets M from one `linalg.solve_banded` with the columns of B as
right-hand sides, then overwrites its patched boundary rows. M itself is
still stored densely, because the steppers and the spectral analysis read
the matrix and its rows.

Node numbering follows the 1-based convention j = 1..N+1 common in the
compact-scheme literature; storage is 0-based, so "row j" below means matrix
row j-1.

Builders are pure functions; the returned operators are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BandedMatrix, solve_banded, tridiagonal

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


@dataclass(frozen=True)
class DerivativeOperator:
    """Dense global derivative matrix with its 1/h**order scale.

    Invariant: every row sum of `matrix` vanishes (a derivative annihilates
    constants), to 1e-8 after scaling.
    """

    order: int
    matrix: np.ndarray
    scale: float

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.scale * (self.matrix @ u)

    def row_symbol(self, node: int, kh):
        """Fourier symbol of row `node` (0-based): sum_r M[j,r] e^{i kh (r-j)}.

        This is the dimensionless modified-wavenumber transform used by the
        amplification-factor formulas. kh may be an array; each entry is
        summed exactly as a scalar kh is.
        """
        kh = np.asarray(kh, dtype=float)
        r = np.arange(self.n_points) - node
        s = np.sum(self.matrix[node] * np.exp(1j * np.multiply.outer(kh, r)), axis=-1)
        return complex(s) if kh.ndim == 0 else s


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


def _stencil_rows(m: np.ndarray, weights, first: int, stop: int) -> np.ndarray:
    """Write `weights`, centred on the diagonal, into rows first..stop-1 of m."""
    j = np.arange(first, stop)
    for r, w in enumerate(weights, -(len(weights) // 2)):
        m[j, j + r] = w
    return m


def _one_sided_first_rows(b: np.ndarray) -> None:
    """Second-order one-sided rows at both ends: -+(1/h)(1.5, -2, 0.5)."""
    n = b.shape[0]
    b[0, 0:3] = [-1.5, 2.0, -0.5]
    b[n - 1, n - 3:n] = [0.5, -2.0, 1.5]


def _cd2_first_row(mat: np.ndarray, j: int) -> None:
    mat[j, :] = 0.0
    mat[j, j - 1] = -0.5
    mat[j, j + 1] = 0.5


def build_cd2_first(grid: Grid1D) -> DerivativeOperator:
    """Second-order central first derivative; one-sided rows at the ends."""
    n = grid.n_points
    m = _stencil_rows(np.zeros((n, n)), (-0.5, 0.0, 0.5), 1, n - 1)
    _one_sided_first_rows(m)
    return DerivativeOperator(1, m, 1.0 / grid.h)


def build_cd2_second(grid: Grid1D) -> DerivativeOperator:
    """Second-order central second derivative (1, -2, 1)/h^2.

    The end rows reuse the same three-point stencil one node in, which is
    first-order there; in the steppers those rows are overridden by Dirichlet
    pinning and never drive the solution.
    """
    n = grid.n_points
    m = _stencil_rows(np.zeros((n, n)), (1.0, -2.0, 1.0), 1, n - 1)
    m[0, 0:3] = [1.0, -2.0, 1.0]
    m[n - 1, n - 3:n] = [1.0, -2.0, 1.0]
    return DerivativeOperator(2, m, 1.0 / grid.h**2)


def oucs3_system(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3):
    """Banded left-hand side A and dense right-hand side B of `build_oucs3`.

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
    b = _stencil_rows(np.zeros((n, n)), coeffs.q(), 2, n - 2)
    _one_sided_first_rows(b)
    b[1, 0:5] = _near_boundary_first_row(coeffs.beta2)
    b[n - 2, n - 5:n] = -_near_boundary_first_row(coeffs.beta_n)[::-1]
    return tridiagonal(*a.T), b


def build_oucs3(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3) -> DerivativeOperator:
    """Upwind compact first-derivative operator A^{-1} B (`oucs3_system`).

    Rows 2 and N of the assembled matrix are then overwritten with central
    CD2 rows: the compact row at j = 2 is unstable across wavenumbers, and
    the outflow row N gets the mirrored treatment. The replaced rows still
    shape the interior rows through A^{-1}.
    """
    m = solve_banded(*oucs3_system(grid, coeffs))
    _cd2_first_row(m, 1)
    _cd2_first_row(m, grid.n_points - 2)
    return DerivativeOperator(1, m, 1.0 / grid.h)


def lele_system(grid: Grid1D, interior=LELE_INTERIOR):
    """Banded left-hand side A and dense right-hand side B of `build_lele_second`.

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
    b = _stencil_rows(np.zeros((n, n)), (cb / 4.0, ca, -2.0 * ca - cb / 2.0, ca, cb / 4.0),
                      2, n - 2)
    b[0, 0:3] = [1.0, -2.0, 1.0]
    b[1, 0:3] = [12.0, -24.0, 12.0]
    b[n - 2, n - 3:n] = [12.0, -24.0, 12.0]
    b[n - 1, n - 4:n] = [-1.0, 15.0, -27.0, 13.0]
    return tridiagonal(*a.T), b


def build_lele_second(grid: Grid1D, interior=LELE_INTERIOR) -> DerivativeOperator:
    """Compact second-derivative operator A^{-1} B (`lele_system`), spectral-like."""
    return DerivativeOperator(2, solve_banded(*lele_system(grid, interior)), 1.0 / grid.h**2)


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
    node j is row 2j-2 and the second row 2j-1, and ``lhs`` is a
    `BandedMatrix` of size 2(N+1) with three bands on each side of the
    diagonal. ``rhs`` is the (2(N+1), N+1) matrix with the right-hand
    sides interleaved the same way, so ``lhs^{-1} rhs`` holds D1 in its even
    and D2 in its odd rows.
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
    rhs = np.zeros((n, 2, n))
    _stencil_rows(rhs[:, 0], (-15.0 / 16.0, 0.0, 15.0 / 16.0), 1, n - 1)
    _stencil_rows(rhs[:, 1], (3.0, -6.0, 3.0), 1, n - 1)
    rhs[0, :, 0:3] = [(-3.5, 4.0, -0.5), (9.0, -12.0, 3.0)]
    rhs[n - 1, :, n - 3:n] = [(0.5, -4.0, 3.5), (3.0, -12.0, 9.0)]
    return BandedMatrix.from_rows(lhs.reshape(2 * n, 7), 3), rhs.reshape(2 * n, n)


def nccd_blocks(grid: Grid1D):
    """Dense blocks (A1, B1, C1, A2, B2, C2) of `nccd_system`.

    The same scheme written as A1 v + B1 w = C1 u and A2 v + B2 w = C2 u,
    sliced out of the interleaved system. The builders never call this; it
    serves checks stated in block form.
    """
    lhs, rhs = nccd_system(grid)
    a = lhs.to_dense()
    return a[0::2, 0::2], a[0::2, 1::2], rhs[0::2], a[1::2, 0::2], a[1::2, 1::2], rhs[1::2]


def build_nccd(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3,
               boundary_fix: bool = True):
    """First- and second-derivative operators of the combined compact scheme.

    One banded solve of the interleaved system (`nccd_system`) gives D1 in
    its even rows and D2 in its odd rows.

    With ``boundary_fix`` (the production form) rows 2 and N of D1 are then
    replaced by the explicit five-point near-boundary stencils (beta2/betaN)
    and rows 2 and N of D2 by central CD2 rows, which suppresses the
    near-boundary instability of the coupled closure. ``boundary_fix=False``
    returns the raw solution of the system, for which
    A1 D1 + B1 D2 = C1 and A2 D1 + B2 D2 = C2 hold to machine precision.
    """
    n = grid.n_points
    d = solve_banded(*nccd_system(grid))
    d1, d2 = np.ascontiguousarray(d[0::2]), np.ascontiguousarray(d[1::2])
    if boundary_fix:
        d1[1, :] = 0.0
        d1[1, 0:5] = _near_boundary_first_row(coeffs.beta2)
        d1[n - 2, :] = 0.0
        d1[n - 2, n - 5:n] = -_near_boundary_first_row(coeffs.beta_n)[::-1]
        d2[1, :] = 0.0
        d2[1, 0:3] = [1.0, -2.0, 1.0]
        d2[n - 2, :] = 0.0
        d2[n - 2, n - 3:n] = [1.0, -2.0, 1.0]
    return (
        DerivativeOperator(1, d1, 1.0 / grid.h),
        DerivativeOperator(2, d2, 1.0 / grid.h**2),
    )
