"""Positivity-preserving finite-volume solver for the 2D Patlak-Keller-Segel system.

    rho_t + (chi rho u)_x + (chi rho v)_y = lap(rho),    u = c_x, v = c_y,
    c_t = lap(c) - c + rho,

on a uniform cell-centered mesh with zero-Neumann walls and zero
chemotactic flux through the boundary. Cell-interface densities are
reconstructed by second-order upwinding with slopes limited adaptively by
a generalized minmod, which keeps every reconstructed point value
nonnegative as long as the advective CFL chi max|grad c| dt/h is small
enough. The exact bound for this reconstruction is not derived here
(Chertock & Kurganov, Numer. Math. 111, 2008, give the analogue for their
central-upwind scheme); a stage or step that produces a negative density
raises PositivityError.

Both variants are the two-stage update of `adr1d` (`PksStepper`) on the
right-hand sides z = (z_rho, z_c) and their explicit parts z_E (`rhs`):

    stage 1:  S u* = u + dt/2 (z(u) + z_E(u))
    stage 2:  u+ = u + dt/2 (z(u) + z(u*))

with S = I - dt/2 z_I for the implicit part z_I = z - z_E (as x and y line
factors). Each variant is one entry of `_VARIANTS`: the kernel that gives
c's velocities and c's Laplacian in one derivative pass per direction, the
Laplacian of rho, and whether z has an implicit part.

* ``explicit-oucs3-cd2`` - z_E = z, so S = I (Heun), with the five-point
  CD2 Laplacian and CD2 chemotactic velocities (mirror-ghost closure).
  Despite the id, c's velocity is CD2, not OUCS3: OUCS3's eta = -2
  upwinds it, and a chemotactic velocity has no upwind direction. On
  c = 500 exp(-50 x^2) at 200 cells, the OUCS3 velocity's reflection
  defect |v(x) + v(-x)| is 2.5e-3 of max|v| against 1e-14 for CD2, and
  its error is 2.9e-3 of max|v| against 9.5e-4. Fluxes telescope, so
  cell mass is conserved to roundoff. The CD2 Laplacian has no negative
  weight and Heun is a convex combination of forward-Euler stages, so
  under the CFL bound every accepted density field is nonnegative.
* ``imex-nccd`` - z_E = -div(flux) for rho and rho for c, so z_I =
  lap(rho) for rho and lap(c) - c for c; combined compact (NCCD) operators
  on the mirror-padded lines (`_NccdLines`), all lines of a direction
  solved as the columns of one partitioned solve; S is the x and then the
  y line factor, each an `adr1d.ImplicitStage` closed by mirror rows.
  Positivity is not kept near blow-up: the compact second-derivative row
  has alternating-sign weights (-0.558 two cells away), so once the spike
  is cell-size rho + (dt/2) lap(rho) turns negative beside it, whatever
  dt. On the 200^2 Gaussian run (chi = 30) this happens at t = 3.48e-6
  for dt = 1e-8 and 2e-8 and at 3.45e-6 for 5e-8. The run is symmetric
  under the eight reflections of the square, so the eight images of the
  cell tie up to roundoff, and roundoff picks which one is named (at
  dt = 1e-8 the value is -4.06737). The line operators are not in
  conservation form, so mass also drifts where rho at the walls is far
  from zero (coarse meshes).

Solutions above the critical mass concentrate into a cell-size spike in
finite time; runs stop at the requested horizon or abort with a
positivity/finiteness diagnostic, with no regularization added.

A stepper owns a work set (`_Work`): the mutable work arrays that each of
its steps reuses and the NCCD lines it solves on, so use one stepper per
thread. Steps never write into a state, and the states
they return own their arrays; diagnostics are read-only.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import NumericalError, PksVariant, write_csv
from .linalg import PartitionedLU


class PositivityError(NumericalError):
    """A stage or step produced a negative density."""

    def __init__(self, t: float, index, value: float):
        self.t = t
        self.index = index
        self.value = value
        super().__init__(f"rho < 0 at cell {index} (value {value:.6g}, t = {t:g})")


class NonFiniteError(NumericalError):
    """A stage or step produced a non-finite value in the named field."""

    def __init__(self, t: float, index, field: str = "rho"):
        self.t = t
        self.index = index
        self.field = field
        super().__init__(f"non-finite {field} at cell {index} (t = {t:g})")


class EdgeReconstructionError(NumericalError):
    """An upwind edge value came out negative: the slope limiter failed."""


@dataclass(frozen=True)
class Mesh2D:
    nx: int
    ny: int
    h: float               # x spacing
    k: float               # y spacing
    origin: tuple = (-0.5, -0.5)   # lower-left corner of the domain

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("mesh must be at least 8x8 cells")
        if not (self.h > 0 and self.k > 0):
            raise ValueError("spacings must be positive")

    def centers(self):
        x = self.origin[0] + self.h * (np.arange(self.nx) + 0.5)
        y = self.origin[1] + self.k * (np.arange(self.ny) + 0.5)
        return x, y

    @classmethod
    def unit_square(cls, n: int) -> "Mesh2D":
        if n < 8:
            raise ValueError("mesh must be at least 8x8 cells")
        return cls(n, n, 1.0 / n, 1.0 / n, (-0.5, -0.5))


@dataclass(frozen=True)
class PksState:
    mesh: Mesh2D
    rho: np.ndarray        # shape (nx, ny), index [i, j] ~ (x_i, y_j)
    c: np.ndarray          # shape (nx, ny)
    t: float
    chi: float
    theta: float

    def __post_init__(self):
        if not self.rho.shape == self.c.shape == (self.mesh.nx, self.mesh.ny):
            raise ValueError("field shapes do not match mesh")
        if not (self.chi > 0 and np.isfinite(self.chi)):
            raise ValueError(f"chi must be positive and finite (got {self.chi:g})")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")


@dataclass(frozen=True)
class EdgeFluxes:
    """x-edge fluxes P ((nx+1, ny)) and y-edge fluxes Q ((nx, ny+1)), and
    the Laplacian of c ((nx, ny)) from the derivative passes that gave the
    velocities.

    Boundary edges are zero: no chemotactic mass leaves the walls.
    """

    p: np.ndarray
    q: np.ndarray
    lap_c: np.ndarray


def init_gaussian(mesh: Mesh2D, amplitude_rho: float = 1000.0, width_rho: float = 100.0,
                  amplitude_c: float = 500.0, width_c: float = 50.0,
                  chi: float = 30.0, theta: float = 1.0) -> PksState:
    """Radially symmetric Gaussian data sampled at cell centers."""
    x, y = mesh.centers()
    r2 = x[:, None] ** 2 + y[None, :] ** 2
    rho = amplitude_rho * np.exp(-width_rho * r2)
    c = amplitude_c * np.exp(-width_c * r2)
    return PksState(mesh, rho, c, 0.0, chi, theta)


def total_mass(state: PksState) -> float:
    m = state.mesh
    return float(np.sum(state.rho) * m.h * m.k)


def minmod(*args):
    """Smallest-magnitude argument when all share a sign, else zero (elementwise)."""
    mn = args[0]
    mx = args[0]
    for a in args[1:]:
        mn = np.minimum(mn, a)
        mx = np.maximum(mx, a)
    return np.where(mn > 0, mn, np.where(mx < 0, mx, 0.0))


# Every 2D kernel below works along axis 0 (x) of a C-contiguous array; the
# y pass is the same kernel applied to a C-contiguous copy of the field's
# transpose (`_Work.transposed`, or the kernel's own copy of c.T in
# `_cd2_derivs`; the NCCD solves gather, so they read c.T as it is), so both
# passes run along contiguous lines, and the y results come back as
# transposed views. Every kernel runs on a work set (`_Work`): its results
# and intermediates live in work arrays, and the NCCD lines it solves on,
# with their scratch, are the set's own.

class _Work:
    """The reusable work arrays of one mesh shape: a stepper's, or a set
    made for a kernel call outside one.

    Each is a flat buffer large enough for an array of the mesh, or of its
    transpose, with one more row and column. `take` hands out a free buffer
    and makes one only when none is free, so during its first step a
    stepper grows the set to the most arrays a step holds at once. `give`
    frees a buffer, found by id, and ignores arrays that are not work
    arrays; `reset` frees them all at the start of a step, so a step that
    raised leaves none taken. `transposed` copies a field's transpose once
    and hands out that copy until `give_transposed`, which `rhs` calls when
    done with the copies.

    The set also holds the NCCD lines per line length (``lines``,
    `_NccdLines`), each built the first time `line` asks for it, and the
    scratch arrays their solves reuse (``scratch``,
    `linalg.PartitionedLU.solve`); neither is a work array.
    """

    def __init__(self, shape):
        self.lines: dict = {}
        self.scratch: dict = {}
        self._size = (shape[0] + 1) * (shape[1] + 1)
        self.buffers: list = []
        self._ids: set = set()
        self._free: dict = {}
        self._transposes: dict = {}

    def line(self, n: int) -> "_NccdLines":
        if n not in self.lines:
            self.lines[n] = _NccdLines(n)
        return self.lines[n]

    def reset(self) -> None:
        self._free = {id(b): b for b in self.buffers}
        self._transposes = {}

    def take(self, shape) -> np.ndarray:
        if not self._free:
            b = np.empty(self._size)
            self.buffers.append(b)
            self._ids.add(id(b))
            self._free[id(b)] = b
        return self._free.popitem()[1][:shape[0] * shape[1]].reshape(shape)

    def give(self, *arrays) -> None:
        for a in arrays:
            if id(a.base) in self._ids:
                self._free[id(a.base)] = a.base

    def transposed(self, f: np.ndarray) -> np.ndarray:
        """f.T as a C-contiguous work array: the y lines of f as rows."""
        # keyed by id; the entry holds f, so no other array takes its id
        if id(f) not in self._transposes:
            t = self.take(f.shape[::-1])
            np.copyto(t, f.T)
            self._transposes[id(f)] = (f, t)
        return self._transposes[id(f)][1]

    def give_transposed(self) -> None:
        self.give(*(t for _, t in self._transposes.values()))
        self._transposes = {}


def _take(work, like: np.ndarray, rows: int) -> np.ndarray:
    """An uninitialised C-contiguous work array of `rows` rows shaped like `like`."""
    return work.take((rows,) + like.shape[1:])


def _axis_diff(f: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    out = np.subtract(f[1:], f[:-1], out=out)
    return np.divide(out, h, out=out)


def _limited_slopes(rho: np.ndarray, h: float, theta: float, work) -> np.ndarray:
    """Centered slopes (one-sided at the walls), minmod-limited where the
    centered reconstruction would produce a negative point value."""
    n = len(rho)
    s = _take(work, rho, n)
    np.subtract(rho[2:], rho[:-2], out=s[1:-1])
    s[1:-1] /= 2 * h
    s[0], s[-1] = (rho[1] - rho[0]) / h, (rho[-1] - rho[-2]) / h
    # rho - (h/2) s < 0 or rho + (h/2) s < 0 holds exactly when rho < |(h/2) s|
    hs = np.multiply(s, 0.5 * h, out=_take(work, rho, n))
    bad = rho < np.abs(hs, out=hs)
    work.give(hs)
    if bad.any():
        # d[i] = (rho[i] - rho[i-1]) / h, zero beyond the walls: the forward
        # differences are d[1:], the backward ones d[:-1]
        d = _take(work, rho, n + 1)
        d[0] = d[-1] = 0.0
        _axis_diff(rho, h, out=d[1:-1])
        s[bad] = minmod(theta * d[1:][bad], s[bad], theta * d[:-1][bad])
        work.give(d)
    return s


def adaptive_slopes(rho: np.ndarray, mesh: Mesh2D, theta: float, work):
    """Cell slopes (x, y) from `_limited_slopes`."""
    return (_limited_slopes(rho, mesh.h, theta, work),
            _limited_slopes(work.transposed(rho), mesh.k, theta, work).T)


def _cd2_velocity(c: np.ndarray, h: float, work) -> np.ndarray:
    """(c[i+1] - c[i-1]) / 2h with mirror ghosts (zero-Neumann walls)."""
    g = _take(work, c, len(c))
    np.subtract(c[2:], c[:-2], out=g[1:-1])
    np.subtract(c[1], c[0], out=g[0])
    np.subtract(c[-1], c[-2], out=g[-1])
    return np.divide(g, 2 * h, out=g)


def _cd2_derivs(c: np.ndarray, h: float, d2: np.ndarray, work) -> np.ndarray:
    """D1 c / h, returned, and D2 c / h^2, into `d2`, along axis 0 with the
    CD2 stencils; a c that is not C-contiguous (the y pass's c.T) is read
    from a C-contiguous copy, freed on return."""
    lines = c
    if not c.flags.c_contiguous:
        lines = _take(work, c, len(c))
        np.copyto(lines, c)
    _cd2_second(lines, h, d2, work)
    g = _cd2_velocity(lines, h, work)
    if lines is not c:
        work.give(lines)
    return g


class _NccdLines:
    """The combined compact (NCCD) D1 and D2 along the lines of a field,
    the columns of an (n, k) array, with zero-Neumann walls: built on
    n + 2 nodes for the mirror-padded line (u_1, u_1..u_n, u_n). One
    `linalg.PartitionedLU` of the NCCD system reads each ghost from its
    mirror node (its input map), so no padded copy is made, and one solve
    gives D1 and D2 together (`_nccd`). Only the IMEX variant makes
    these, so only it loads `operators` (NumPy only)."""

    def __init__(self, n: int):
        from .operators import Grid1D, build_nccd

        self.ops = build_nccd(Grid1D(n + 2, 1.0))
        self.nodes = np.r_[0, np.arange(n), n - 1]  # the line node each padded node reads
        self.lu = PartitionedLU(self.ops[0].system.lhs, self.ops[0].system.rhs, inputs=self.nodes)


def _nccd(f: np.ndarray, parts, work) -> list:
    """Dimensionless NCCD D f along axis 0, for each operator of ``parts``
    (0: D1, 1: D2; (1,) or (0, 1)): views of one solve, in the scratch of
    `work`, with the patched rows applied from their stencils as
    `DerivativeOperator.__matmul__` does, ghost rows dropped. Use them
    before the next solve with `work`, which overwrites them. The lines are
    the work set's (`_Work.line`)."""
    lines = work.line(len(f))
    x = lines.lu.solve(f, 2 // len(parts), work.scratch)
    for i, part in enumerate(parts):
        for row, first, w in lines.ops[part].patch:
            x[i::len(parts)][row] = np.dot(w, f[lines.nodes[first:first + len(w)]])
    return [x[i::len(parts)][1:-1] for i in range(len(parts))]


def _nccd_derivs(c: np.ndarray, h: float, d2: np.ndarray, work) -> np.ndarray:
    """D1 c / h, returned, and D2 c / h^2, into `d2`, along axis 0 from one
    NCCD solve. The solve gathers its input, so c may be any view: the y
    pass reads c.T as it is."""
    d1, dd = _nccd(c, (0, 1), work)
    np.divide(dd, h**2, out=d2)
    return np.divide(d1, h, out=_take(work, c, len(c)))


def _edge_mean(w: np.ndarray, work) -> np.ndarray:
    out = np.add(w[:-1], w[1:], out=_take(work, w, len(w) - 1))
    return np.multiply(out, 0.5, out=out)


def _upwind(rho: np.ndarray, s: np.ndarray, h: float, w_edge: np.ndarray,
            work, out: np.ndarray) -> np.ndarray:
    """rho[:-1] + (h/2) s[:-1] where w_edge > 0, else rho[1:] - (h/2) s[1:]."""
    out = np.multiply(s[1:], 0.5 * h, out=out)
    np.subtract(rho[1:], out, out=out)
    left = np.multiply(s[:-1], 0.5 * h, out=_take(work, rho, len(rho) - 1))
    np.add(rho[:-1], left, out=left)
    np.copyto(out, left, where=w_edge > 0)
    work.give(left)
    return out


def _edge_floor(rho: np.ndarray) -> float:
    return -1e-12 * max(rho.max(initial=1.0), 1.0)


def _check_edges(edges: np.ndarray, floor: float, name: str) -> None:
    """Raise EdgeReconstructionError, naming the edge of the lowest value,
    when that value is below ``floor``: x-edge (i, j) lies between cells
    (i, j) and (i+1, j), y-edge (i, j) between (i, j) and (i, j+1)."""
    if edges.min(initial=0.0) < floor:
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(edges)), edges.shape))
        raise EdgeReconstructionError(
            f"negative edge reconstruction {edges.min():.6g} at {name} {idx}")


def _axis_flux(rho: np.ndarray, s: np.ndarray, w: np.ndarray, h: float, chi: float,
               floor: float, axis: int, work) -> np.ndarray:
    """chi rho_edge w_edge on all edges along axis 0, zero on the two walls,
    from the cell slopes s and velocities w; `axis` is the field axis of the
    pass (0 for x, 1 for y), which names an edge that `_check_edges`
    rejects."""
    w_edge = _edge_mean(w, work)
    work.give(w)
    flux = _take(work, rho, len(rho) + 1)
    flux[0] = flux[-1] = 0.0
    edges = _upwind(rho, s, h, w_edge, work, out=flux[1:-1])
    work.give(s)
    _check_edges(edges.T if axis else edges, floor, ("x-edge", "y-edge")[axis])
    np.multiply(edges, chi, out=edges)
    np.multiply(edges, w_edge, out=edges)
    work.give(w_edge)
    return flux


def edge_fluxes(state: PksState, variant: PksVariant, work) -> EdgeFluxes:
    """The fluxes along the x lines and along the y lines (transposed), and
    the Laplacian of c: one pass per direction of the variant's derivative
    kernel gives c's velocity along the lines and D2 c / h^2, and the two
    directions' D2 c / h^2 sum to the Laplacian."""
    rho, c, m, chi = state.rho, state.c, state.mesh, state.chi
    derivs = globals()[_VARIANTS[variant][0]]
    (sx, sy), floor = adaptive_slopes(rho, m, state.theta, work), _edge_floor(rho)
    lap = _take(work, c, len(c))
    p = _axis_flux(rho, sx, derivs(c, m.h, lap, work), m.h, chi, floor, 0, work)
    d2 = _take(work, c.T, len(c.T))
    v = derivs(c.T, m.k, d2, work)
    lap += d2.T
    work.give(d2)
    q = _axis_flux(work.transposed(rho), sy.T, v, m.k, chi, floor, 1, work)
    return EdgeFluxes(p, q.T, lap)


def _cd2_second(f: np.ndarray, h: float, out: np.ndarray, work) -> np.ndarray:
    """(f[i+1] - 2 f[i] + f[i-1]) / h^2 with mirror ghosts (zero-Neumann
    walls); `work` is unused (both second-derivative kernels take it)."""
    out = np.multiply(f, 2, out=out)
    np.subtract(f[1:], out[:-1], out=out[:-1])
    np.subtract(f[-1], out[-1], out=out[-1])
    np.add(out[1:], f[:-1], out=out[1:])
    np.add(out[0], f[0], out=out[0])
    return np.divide(out, h**2, out=out)


def _nccd_second(f: np.ndarray, h: float, out: np.ndarray, work) -> np.ndarray:
    d2, = _nccd(f, (1,), work)
    return np.divide(d2, h**2, out=out)


def _lap(second, f: np.ndarray, h: float, k: float, work) -> np.ndarray:
    out = second(f, h, _take(work, f, len(f)), work)
    ft = work.transposed(f)
    fy = second(ft, k, _take(work, ft, len(ft)), work)
    out += fy.T
    work.give(fy)
    return out


def _lap_cd2(f: np.ndarray, h: float, k: float, work) -> np.ndarray:
    return _lap(_cd2_second, f, h, k, work)


def _lap_nccd(f: np.ndarray, h: float, k: float, work) -> np.ndarray:
    return _lap(_nccd_second, f, h, k, work)


#: variant -> (c's derivative kernel for `edge_fluxes`, the Laplacian kernel,
#: and the reaction rates r of the implicit parts lap - r of (rho, c), or
#: None when z_E = z). The kernels are named here and looked up in the
#: module when called, so a wrapper set on the module sees their calls.
_VARIANTS = {
    PksVariant.EXPLICIT_OUCS3_CD2: ("_cd2_derivs", "_lap_cd2", None),
    PksVariant.IMEX_NCCD: ("_nccd_derivs", "_lap_nccd", (0.0, 1.0)),
}


def laplacian(f: np.ndarray, mesh: Mesh2D, variant: PksVariant, work) -> np.ndarray:
    return globals()[_VARIANTS[variant][1]](f, mesh.h, mesh.k, work)


def _divergence(fl: EdgeFluxes, m: Mesh2D, work) -> np.ndarray:
    """P_x + Q_y; the flux arrays go back to `work`."""
    div = _axis_diff(fl.p, m.h, _take(work, fl.p, m.nx))
    div_y = _axis_diff(fl.q.T, m.k, _take(work, fl.q.T, m.ny))
    work.give(fl.p, fl.q)
    div += div_y.T
    work.give(div_y)
    return div


def rhs(state: PksState, variant: PksVariant, work):
    """The right-hand sides z = (z_rho, z_c) and their explicit parts z_E,
    each a pair of arrays, with zero-flux boundary edges:

        z_rho = lap(rho) - div(flux),    z_c = (lap(c) - c) + rho,

    z_E is z itself (the same pair) when the variant has no implicit part,
    else (-div(flux), rho)."""
    fl = edge_fluxes(state, variant, work)
    div = _divergence(fl, state.mesh, work)
    z_rho, z_c = laplacian(state.rho, state.mesh, variant, work), fl.lap_c
    z_rho -= div
    z_c -= state.c
    z_c += state.rho
    work.give_transposed()
    z = z_rho, z_c
    if _VARIANTS[variant][2] is None:
        work.give(div)
        return z, z
    return z, (np.negative(div, out=div), state.rho)


def _check_fields(rho: np.ndarray, c: np.ndarray, t: float) -> None:
    for name, f in (("rho", rho), ("c", c)):
        if not np.all(np.isfinite(f)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(f))), f.shape)
            raise NonFiniteError(t, tuple(int(i) for i in idx), name)
    mn = float(rho.min())
    if mn < 0.0:
        idx = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise PositivityError(t, tuple(int(i) for i in idx), mn)


class PksStepper:
    """The two-stage update of the module docstring for one variant.

    With z_I present, stage 1 solves the x line factor and then the y
    one, (1 + r dt/4) I - (dt/2) D2 / h^2 for the reaction rate r of the
    equation (second-order consistent with the mid-point stage). Each is
    an `adr1d.ImplicitStage` on the n + 2 nodes of the mirror-padded line,
    closed by the mirror rows w_0 - w_1 = 0 and w_{n+1} - w_n = 0 with zero
    data at the ghosts, factored once for the run, and it solves all the
    lines of the field as its columns. A stepper steps states on its own
    mesh only (ValueError otherwise): its line factors and its work set are
    made for that mesh when it is built. Each stage checks that rho and c
    are finite and rho is nonnegative. Intermediate arrays live in the
    work set, which grows during the first step; only the returned fields
    and the scratch of the solves (`_Work.scratch`, kept for the next
    step) are new memory.
    """

    def __init__(self, variant: PksVariant, mesh: Mesh2D, dt: float):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt, self.variant, self.mesh = dt, variant, mesh
        rates = _VARIANTS[variant][2]
        self.work, self.stages = _Work((mesh.nx, mesh.ny)), None
        if rates is not None:
            from .adr1d import ImplicitStage

            axes = ((mesh.nx, mesh.h), (mesh.ny, mesh.k))
            made = {(n, s, r): ImplicitStage(n + 2, 1 + r * dt / 4,
                                             [(self.work.line(n).ops[1], dt / (2 * s**2))],
                                             ((0, 0, (1.0, -1.0)), (n + 1, n, (-1.0, 1.0))))
                    for n, s in set(axes) for r in rates}
            self.stages = [[made[n, s, r] for n, s in axes] for r in rates]

    def _state(self, state: PksState, fields, t_check: float) -> PksState:
        _check_fields(*fields, t_check)
        return PksState(self.mesh, *fields, state.t + self.dt, state.chi, state.theta)

    def step(self, state: PksState) -> PksState:
        if state.mesh != self.mesh:
            raise ValueError(f"state mesh {state.mesh} is not the stepper's mesh {self.mesh}")
        u = (state.rho, state.c)
        work = self.work
        work.reset()
        z, ze = rhs(state, self.variant, work)
        us = []  # S^-1 (u + dt/2 (z + z_E)): for z_E = z, bit for bit u + dt z
        for i, (f, a, e) in enumerate(zip(u, z, ze)):
            b = np.add(a, e, out=_take(work, f, len(f)))
            b *= self.dt / 2
            b += f
            if self.stages is not None:
                sx, sy = self.stages[i]
                np.copyto(b, sx.solve(b, work.scratch)[1:-1])        # the x lines
                np.copyto(b, sy.solve(b.T, work.scratch)[1:-1].T)    # the y lines
            us.append(b)
        if ze is not z:
            work.give(*ze)  # its c part is the caller's rho, which `give` ignores
        mid = self._state(state, us, state.t)
        zs, _ = rhs(mid, self.variant, work)
        new = []
        for f, a, b in zip(u, z, zs):
            g = np.add(a, b)                         # the returned fields' own memory
            np.multiply(g, 0.5 * self.dt, out=g)
            new.append(np.add(f, g, out=g))
        return self._state(state, new, state.t + self.dt)


def make_stepper(variant: PksVariant, mesh: Mesh2D, dt: float) -> PksStepper:
    return PksStepper(variant, mesh, dt)


def radial_profile(state: PksState):
    """Density along the +x half of the row nearest the domain center."""
    x, y = state.mesh.centers()
    i0 = int(np.argmin(np.abs(x)))
    j0 = int(np.argmin(np.abs(y)))
    return x[i0:] - x[i0], state.rho[i0:, j0]


def oscillation_metric(state: PksState) -> float:
    """Total overshoot along the radial profile, outside the central peak.

    Sums max(0, rho_i - max(rho_{i-1}, rho_{i+1})) over interior profile
    samples with r >= 0.1 r_max; a monotone profile scores 0 and a single
    ripple of height eps scores ~eps.
    """
    r, prof = radial_profile(state)
    keep = r >= 0.1 * r[-1]
    p = prof[keep]
    if len(p) < 3:
        return 0.0
    over = np.maximum(0.0, p[1:-1] - np.maximum(p[:-2], p[2:]))
    return float(np.sum(over))


def diagnostics(state: PksState) -> dict:
    return {
        "t": state.t,
        "mass": total_mass(state),
        "min_rho": float(state.rho.min()),
        "max_rho": float(state.rho.max()),
        "oscillation": oscillation_metric(state),
    }


def write_snapshot_csv(state: PksState, path) -> None:
    """Rows x, y, rho, c (x outer, y inner) through `adrlab.write_csv`."""
    x, y = state.mesh.centers()
    write_csv(path, "x,y,rho,c", x[:, None], y[None, :], state.rho, state.c)


def write_radial_csv(state: PksState, path) -> None:
    """Rows r, rho of `radial_profile` through `adrlab.write_csv`."""
    write_csv(path, "r,rho", *radial_profile(state))


def write_metadata(path, state: PksState, variant: PksVariant, dt: float, t_end: float,
                   history: list) -> None:
    """The run's JSON record: mesh, chi and theta read from `state`, the run's
    final state, beside the diagnostics `history`."""
    meta = {
        "variant": variant.value,
        "dt": dt,
        "t_end": t_end,
        "mesh": dataclasses.asdict(state.mesh),
        "chi": state.chi,
        "theta": state.theta,
        "diagnostics": history,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
