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
products (`linalg.PartitionedLU`) plus the patched rows, O(N) per call. The
row symbols of node j, sum_r D[j, r] e^{i kh (r - j)}, and their kh-slopes
are entry j of D applied to a table of modes of (r - j) kh (`row_symbols`):
the same forward solve the steppers make, with one column per mode, so no
row of D is formed and A is factored once. Building, reading and applying
operators needs NumPy alone.

Node numbering follows the 1-based convention j = 1..N+1 common in the
compact-scheme literature; storage is 0-based, so "row j" below means matrix
row j-1.

Builders are pure functions and the returned operators never change what
they represent. Their LU factors are computed on first use and cached
without a lock; two concurrent callers that both compute one get
equal results, and neither sees the other's work in progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import PartitionedLU, StencilMatrix, tridiagonal

#: Interior coefficients of the tridiagonal second-derivative scheme:
#: alpha u''_{j-1} + u''_j + alpha u''_{j+1}
#:   = b/(4h^2) (u_{j-2} - 2u_j + u_{j+2}) + a/h^2 (u_{j-1} - 2u_j + u_{j+1}).
#: The classical sixth-order family.
LELE_INTERIOR = (2.0 / 11.0, 12.0 / 11.0, 3.0 / 11.0)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid of n_points nodes with spacing h starting at x_start.

    At least 7 nodes, the one minimum of every builder: each scheme closes
    an end with two boundary rows (1 and 2, N and N+1), and 7 is the least
    size with an interior row (j = 4) whose five-point stencil reaches
    neither end node. A smaller grid is refused here, so no builder checks
    its size again.
    """

    n_points: int
    h: float
    x_start: float = 0.0

    def __post_init__(self):
        if self.n_points < 7:
            raise ValueError("n_points must be >= 7")
        if not (self.h > 0 and np.finfo(float).tiny <= self.h * self.h < np.inf):
            raise ValueError(f"h must be positive and h**2 a finite normal float (got {self.h:g})")

    def x(self) -> np.ndarray:
        return self.x_start + self.h * np.arange(self.n_points)


@dataclass(frozen=True, eq=False)
class BandedSystem:
    """The system A y = B u behind one or more derivative operators.

    A (``lhs``) is a square `StencilMatrix` of size r N and B (``rhs``) a
    `StencilMatrix` of shape (r N, N); node j owns rows r j .. r j + r - 1
    of y, and an operator reads one of them (NCCD: r = 2, u' and u'' of one
    solve). The partitioned factorization of A with B folded in (``lu``) is
    made on first use and cached.
    """

    lhs: StencilMatrix
    rhs: StencilMatrix

    @cached_property
    def lu(self) -> PartitionedLU:
        return PartitionedLU(self.lhs, self.rhs)

    @property
    def per_node(self) -> int:
        return self.rhs.per_node


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
        """D u (dimensionless) for a real or complex vector u, or for the k
        columns of an (N, k) array at once, O(N k)."""
        return _apply([self], u)[0]


def _apply(ops, u: np.ndarray) -> list:
    """[D u for each D of ``ops``] (dimensionless) from one solve of each
    distinct `BandedSystem` among them: each D reads its rows of its
    system's solve (operators of one system read different rows, as the
    NCCD pair does) and then writes its patched rows."""
    solves = {system: system.lu.solve(u) for system in dict.fromkeys(op.system for op in ops)}
    out = []
    for op in ops:
        d = solves[op.system][op.part::op.system.per_node]
        for row, first, w in op.patch:
            d[row] = np.dot(w, u[first:first + len(w)])
        out.append(d)
    return out


def row_symbols(ops, node: int, kh) -> list:
    """[(S, dS/d(kh)) for each operator D of ``ops``] at row j = ``node``
    (0-based), each of shape (K,) for the K values of kh:

        S = sum_r D[j, r] e^{i kh (r - j)},
        dS/d(kh) = sum_r i (r - j) D[j, r] e^{i kh (r - j)}.

    Both are entry j of D applied to the real modes cos and sin of (r - j) kh
    and the same two times (r - j): many-column forward solves, one per
    distinct system of ``ops`` (so the NCCD pair shares one), with one mode
    table for all of ``ops``, which must share their number of nodes. The
    table is made and solved 16 kh (64 columns) at a time, so the work set
    stays near 1 MB at N = 1001. Raises ValueError for a node outside
    0..N-1.
    """
    n = ops[0].n_points
    if not 0 <= node < n:
        raise ValueError(f"node {node} is outside the rows 0..{n - 1}")
    kh = np.atleast_1d(np.asarray(kh, dtype=float))
    r = np.arange(n) - node
    out = [np.empty((4, len(kh))) for _ in ops]  # entry j of D (cos, sin, r cos, r sin)
    for i in range(0, len(kh), 16):
        phase = np.multiply.outer(r, kh[i:i + 16])
        cos, sin = np.cos(phase), np.sin(phase)
        modes = np.hstack([cos, sin, r[:, None] * cos, r[:, None] * sin])
        for d, y in zip(_apply(ops, modes), out):
            y[:, i:i + 16] = d[node].reshape(4, -1)
    return [(c + 1j * s, 1j * rc - rs) for c, s, rc, rs in out]


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


def lele_system(grid: Grid1D):
    """Banded left-hand side A and stencil right-hand side B of `build_lele_second`.

    Boundary closures:
        j = 1:   u''_1 = (u_1 - 2u_2 + u_3)/h^2
        j = 2:   u''_1 + 10 u''_2 + u''_3 = 12 (u_1 - 2u_2 + u_3)/h^2
        j = N:   mirrored j = 2 row
        j = N+1: u''_{N+1} + 11 u''_N = (13 u_{N+1} - 27 u_N + 15 u_{N-1} - u_{N-2})/h^2
    """
    n = grid.n_points
    alpha, ca, cb = LELE_INTERIOR
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


def build_lele_second(grid: Grid1D) -> DerivativeOperator:
    """Compact second-derivative operator A^{-1} B (`lele_system`), spectral-like."""
    return DerivativeOperator(2, 1.0 / grid.h**2, BandedSystem(*lele_system(grid)))


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


def build_nccd(grid: Grid1D, coeffs: Oucs3Coefficients = DEFAULT_OUCS3):
    """First- and second-derivative operators of the combined compact scheme.

    Both read one `BandedSystem` of the interleaved system (`nccd_system`):
    D1 its even rows and D2 its odd rows, so one solve serves both. Rows 2
    and N of D1 are patched with the explicit five-point near-boundary
    stencils (beta2/betaN) and rows 2 and N of D2 with central CD2 rows,
    which suppresses the near-boundary instability of the coupled closure.
    """
    n = grid.n_points
    system = BandedSystem(*nccd_system(grid))
    fix1 = ((1, 0, _near_boundary_first_row(coeffs.beta2)),
            (n - 2, n - 5, -_near_boundary_first_row(coeffs.beta_n)[::-1]))
    fix2 = ((1, 0, (1.0, -2.0, 1.0)), (n - 2, n - 3, (1.0, -2.0, 1.0)))
    return (
        DerivativeOperator(1, 1.0 / grid.h, system, 0, fix1),
        DerivativeOperator(2, 1.0 / grid.h**2, system, 1, fix2),
    )
