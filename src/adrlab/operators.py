"""Global derivative matrices for the four compact/explicit schemes.

Every builder returns a `DerivativeOperator` holding a dense, dimensionless
matrix ``M`` and the scale ``1/h**order``; the derivative of nodal values
``u`` is ``scale * (M @ u)``. Matrices are materialized densely (rather than
kept in factored banded form) because the spectral analysis needs explicit
row access, and grids up to a couple thousand nodes keep dense storage
trivial.

Node numbering follows the 1-based convention j = 1..N+1 common in the
compact-scheme literature; storage is 0-based, so "row j" below means matrix
row j-1.

Builders are pure functions; the returned operators are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import solve_dense

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
    contributes an O(h) dissipative term with small coefficient |eta|*h/75.
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
    m = np.zeros((n, n))
    for j in range(1, n - 1):
        _cd2_first_row(m, j)
    _one_sided_first_rows(m)
    return DerivativeOperator(1, m, 1.0 / grid.h)


def build_cd2_second(grid: Grid1D) -> DerivativeOperator:
    """Second-order central second derivative (1, -2, 1)/h^2.

    The end rows reuse the same three-point stencil one node in, which is
    first-order there; in the steppers those rows are overridden by Dirichlet
    pinning and never drive the solution.
    """
    n = grid.n_points
    m = np.zeros((n, n))
    for j in range(1, n - 1):
        m[j, j - 1:j + 2] = [1.0, -2.0, 1.0]
    m[0, 0:3] = [1.0, -2.0, 1.0]
    m[n - 1, n - 3:n] = [1.0, -2.0, 1.0]
    return DerivativeOperator(2, m, 1.0 / grid.h**2)


def build_oucs3(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3) -> DerivativeOperator:
    """Upwind compact first-derivative operator.

    Assembly: interior rows j = 3..N-1 from the tridiagonal/five-point
    compact stencil, rows 1 and N+1 from the one-sided explicit forms, rows
    2 and N from the five-point near-boundary forms with beta2/betaN. The
    global matrix is A^{-1} B. Rows 2 and N of the assembled matrix are then
    overwritten with central CD2 rows: the compact row at j = 2 is unstable
    across wavenumbers, and the outflow row N gets the mirrored treatment.
    The replaced rows still shape the interior rows through A^{-1}.
    """
    n = grid.n_points
    if n < 7:
        raise ValueError("n_points must be >= 7")
    a = np.eye(n)
    b = np.zeros((n, n))
    q = coeffs.q()
    for j in range(2, n - 2):
        a[j, j - 1] = coeffs.p_minus
        a[j, j + 1] = coeffs.p_plus
        b[j, j - 2:j + 3] = q
    _one_sided_first_rows(b)
    b[1, 0:5] = _near_boundary_first_row(coeffs.beta2)
    b[n - 2, n - 5:n] = -_near_boundary_first_row(coeffs.beta_n)[::-1]
    m = solve_dense(a, b)
    _cd2_first_row(m, 1)
    _cd2_first_row(m, n - 2)
    return DerivativeOperator(1, m, 1.0 / grid.h)


def build_lele_second(grid: Grid1D, interior=LELE_INTERIOR) -> DerivativeOperator:
    """Tridiagonal compact second-derivative operator with spectral-like resolution.

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
    a = np.eye(n)
    b = np.zeros((n, n))
    b[0, 0:3] = [1.0, -2.0, 1.0]
    a[1, 0:3] = [1.0, 10.0, 1.0]
    b[1, 0:3] = [12.0, -24.0, 12.0]
    for j in range(2, n - 2):
        a[j, j - 1] = alpha
        a[j, j + 1] = alpha
        b[j, j - 2] += cb / 4.0
        b[j, j + 2] += cb / 4.0
        b[j, j - 1] += ca
        b[j, j + 1] += ca
        b[j, j] += -2.0 * ca - cb / 2.0
    a[n - 2, n - 3:n] = [1.0, 10.0, 1.0]
    b[n - 2, n - 3:n] = [12.0, -24.0, 12.0]
    a[n - 1, n - 2] = 11.0
    b[n - 1, n - 4:n] = [-1.0, 15.0, -27.0, 13.0]
    return DerivativeOperator(2, solve_dense(a, b), 1.0 / grid.h**2)


def nccd_blocks(grid: Grid1D):
    """Coefficient blocks (A1, B1, C1, A2, B2, C2) of the coupled system.

    In nondimensional unknowns v = h u' and w = h^2 u'' the combined compact
    scheme reads A1 v + B1 w = C1 u and A2 v + B2 w = C2 u with

        j = 1:        v_1 + 2 v_2 - w_2            = -3.5 u_1 + 4 u_2 - 0.5 u_3
                      w_1 + 5 w_2 - 6 v_2          = 9 u_1 - 12 u_2 + 3 u_3
        j = 2..N:     7/16 (v_{j+1} + v_{j-1}) + v_j - 1/16 (w_{j+1} - w_{j-1})
                                                   = 15/16 (u_{j+1} - u_{j-1})
                      9/8 (v_{j+1} - v_{j-1}) + w_j - 1/8 (w_{j+1} + w_{j-1})
                                                   = 3 (u_{j+1} - 2 u_j + u_{j-1})
        j = N+1:      mirrored j = 1 rows.
    """
    n = grid.n_points
    if n < 7:
        raise ValueError("n_points must be >= 7")
    a1 = np.zeros((n, n))
    b1 = np.zeros((n, n))
    c1 = np.zeros((n, n))
    a2 = np.zeros((n, n))
    b2 = np.zeros((n, n))
    c2 = np.zeros((n, n))
    a1[0, 0], a1[0, 1] = 1.0, 2.0
    b1[0, 1] = -1.0
    c1[0, 0:3] = [-3.5, 4.0, -0.5]
    b2[0, 0], b2[0, 1] = 1.0, 5.0
    a2[0, 1] = -6.0
    c2[0, 0:3] = [9.0, -12.0, 3.0]
    for j in range(1, n - 1):
        a1[j, j - 1] = 7.0 / 16.0
        a1[j, j] = 1.0
        a1[j, j + 1] = 7.0 / 16.0
        b1[j, j - 1] = 1.0 / 16.0
        b1[j, j + 1] = -1.0 / 16.0
        c1[j, j - 1] = -15.0 / 16.0
        c1[j, j + 1] = 15.0 / 16.0
        a2[j, j - 1] = -9.0 / 8.0
        a2[j, j + 1] = 9.0 / 8.0
        b2[j, j - 1] = -1.0 / 8.0
        b2[j, j] = 1.0
        b2[j, j + 1] = -1.0 / 8.0
        c2[j, j - 1] = 3.0
        c2[j, j] = -6.0
        c2[j, j + 1] = 3.0
    a1[n - 1, n - 1], a1[n - 1, n - 2] = 1.0, 2.0
    b1[n - 1, n - 2] = 1.0
    c1[n - 1, n - 3:n] = [0.5, -4.0, 3.5]
    b2[n - 1, n - 1], b2[n - 1, n - 2] = 1.0, 5.0
    a2[n - 1, n - 2] = 6.0
    c2[n - 1, n - 3:n] = [3.0, -12.0, 9.0]
    return a1, b1, c1, a2, b2, c2


def build_nccd(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3,
               boundary_fix: bool = True):
    """First- and second-derivative operators of the combined compact scheme.

    Solving the two block equations simultaneously gives

        D1 = (A1 - B1 B2^{-1} A2)^{-1} (C1 - B1 B2^{-1} C2)
        D2 = (B2 - A2 A1^{-1} B1)^{-1} (C2 - A2 A1^{-1} C1)

    With ``boundary_fix`` (the production form) rows 2 and N of D1 are then
    replaced by the explicit five-point near-boundary stencils (beta2/betaN)
    and rows 2 and N of D2 by central CD2 rows, which suppresses the
    near-boundary instability of the coupled closure. ``boundary_fix=False``
    returns the raw solution of the block system, for which
    A1 D1 + B1 D2 = C1 and A2 D1 + B2 D2 = C2 hold to machine precision.
    """
    n = grid.n_points
    a1, b1, c1, a2, b2, c2 = nccd_blocks(grid)
    b2inv_a2 = solve_dense(b2, a2)
    b2inv_c2 = solve_dense(b2, c2)
    d1 = solve_dense(a1 - b1 @ b2inv_a2, c1 - b1 @ b2inv_c2)
    a1inv_b1 = solve_dense(a1, b1)
    a1inv_c1 = solve_dense(a1, c1)
    d2 = solve_dense(b2 - a2 @ a1inv_b1, c2 - a2 @ a1inv_c1)
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


def dump_operator_csv(op: DerivativeOperator, path, threshold: float = 1e-14) -> None:
    """Debugging dump: one `row,col,value` line per entry above threshold."""
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        rows, cols = np.nonzero(np.abs(op.matrix) > threshold)
        for r, c in zip(rows, cols):
            fh.write(f"{r},{c},{op.matrix[r, c]:.12g}\n")
