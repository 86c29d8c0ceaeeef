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

Both variants are the two-stage update of `adr1d` (`PksStepper`). Each
right-hand side splits into an implicit and an explicit part, z = z_I + z_E:

    stage 1:  (I - dt/2 z_I) u* = u + dt/2 z_I(u) + dt z_E(u)
    stage 2:  u+ = u + dt/2 (z(u) + z(u*))

The variants differ only in the split:

* ``explicit-oucs3-cd2`` - z_I = 0 (Heun); z_E is the whole right-hand side,
  with the five-point CD2 Laplacian and CD2 chemotactic velocities
  (mirror-ghost closure). Fluxes telescope, so cell mass is conserved to
  roundoff. The CD2 Laplacian has no negative weight and Heun is a convex
  combination of forward-Euler stages, so under the CFL bound every
  accepted density field is nonnegative.
* ``imex-nccd`` - z_I = lap(rho) for rho and lap(c) - c for c; z_E =
  -div(flux) for rho and rho for c; combined compact (NCCD) operators on
  the mirror-padded lines (`_NccdLines`), all lines of a direction solved
  as the columns of one partitioned solve; stage 1 solves the x and then
  the y line factor, each an `adr1d.ImplicitStage` closed by mirror rows.
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

A stepper owns mutable work arrays that each of its steps reuses, so use
one stepper per thread. Steps never write into a state, and the states
they return own their arrays; diagnostics are read-only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from . import NumericalError
from .linalg import PartitionedLU


class PksVariant(enum.Enum):
    EXPLICIT_OUCS3_CD2 = "explicit-oucs3-cd2"
    IMEX_NCCD = "imex-nccd"


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
class Field2D:
    mesh: Mesh2D
    values: np.ndarray     # shape (nx, ny), index [i, j] ~ (x_i, y_j)

    def __post_init__(self):
        if self.values.shape != (self.mesh.nx, self.mesh.ny):
            raise ValueError("field shape does not match mesh")


@dataclass(frozen=True)
class PksState:
    rho: Field2D
    c: Field2D
    t: float
    chi: float
    theta: float

    def __post_init__(self):
        if not (self.chi > 0 and np.isfinite(self.chi)):
            raise ValueError(f"chi must be positive and finite (got {self.chi:g})")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")


@dataclass(frozen=True)
class EdgeFluxes:
    """x-edge fluxes P ((nx+1, ny)) and y-edge fluxes Q ((nx, ny+1)).

    Boundary edges are zero: no chemotactic mass leaves the walls.
    """

    p: np.ndarray
    q: np.ndarray


def init_gaussian(mesh: Mesh2D, amplitude_rho: float = 1000.0, width_rho: float = 100.0,
                  amplitude_c: float = 500.0, width_c: float = 50.0,
                  chi: float = 30.0, theta: float = 1.0) -> PksState:
    """Radially symmetric Gaussian data sampled at cell centers."""
    x, y = mesh.centers()
    r2 = x[:, None] ** 2 + y[None, :] ** 2
    rho = amplitude_rho * np.exp(-width_rho * r2)
    c = amplitude_c * np.exp(-width_c * r2)
    return PksState(Field2D(mesh, rho), Field2D(mesh, c), 0.0, chi, theta)


def total_mass(state: PksState) -> float:
    m = state.rho.mesh
    return float(np.sum(state.rho.values) * m.h * m.k)


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
# transpose (`_transposed`), so both passes run along contiguous lines, and
# the y results come back as transposed views. Each kernel takes an optional
# `work` set (`_Work`): with one, its results and scratch live in work
# arrays; without, it returns fresh arrays.

class _Work:
    """The reusable work arrays of one stepper, for one mesh shape.

    Each is a flat buffer large enough for an array of the mesh, or of its
    transpose, with one more row and column. `take` hands out a free buffer
    and makes one only when none is free, so during its first step a
    stepper grows the set to the most arrays a step holds at once. `give`
    frees a buffer, found by id, and ignores arrays that are not work
    arrays; `reset` frees them all at the start of a step, so a step that
    raised leaves none taken. `transposed` copies a field's transpose once
    and hands out that copy until `give_transposed`, which each split of
    the right-hand sides calls when done with the copies.

    The set also holds the stepper's NCCD lines per line length (``lines``,
    `_NccdLines`) and the scratch arrays their solves reuse (``scratch``,
    `linalg.PartitionedLU.solve`); neither is a work array.
    """

    def __init__(self, shape, lines=None):
        self.shape = shape
        self.lines = lines or {}
        self.scratch: dict = {}
        self._size = (shape[0] + 1) * (shape[1] + 1)
        self.buffers: list = []
        self._ids: set = set()
        self._free: dict = {}
        self._transposes: dict = {}

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
    """An uninitialised C-contiguous array of `rows` rows shaped like `like`."""
    shape = (rows,) + like.shape[1:]
    return np.empty(shape) if work is None else work.take(shape)


def _give(work, *arrays) -> None:
    if work is not None:
        work.give(*arrays)


def _transposed(f: np.ndarray, work=None) -> np.ndarray:
    """f.T as a C-contiguous array: the y lines of f as rows, for the x kernels."""
    return np.ascontiguousarray(f.T) if work is None else work.transposed(f)


def _axis_diff(f: np.ndarray, h: float, out=None) -> np.ndarray:
    out = np.subtract(f[1:], f[:-1], out=out)
    return np.divide(out, h, out=out)


def _limited_slopes(rho: np.ndarray, h: float, theta: float, work=None) -> np.ndarray:
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
    _give(work, hs)
    if bad.any():
        # d[i] = (rho[i] - rho[i-1]) / h, zero beyond the walls: the forward
        # differences are d[1:], the backward ones d[:-1]
        d = _take(work, rho, n + 1)
        d[0] = d[-1] = 0.0
        _axis_diff(rho, h, out=d[1:-1])
        s[bad] = minmod(theta * d[1:][bad], s[bad], theta * d[:-1][bad])
        _give(work, d)
    return s


def adaptive_slopes(rho_field: Field2D, theta: float, work=None):
    """Cell slopes (x, y) from `_limited_slopes`."""
    rho, m = rho_field.values, rho_field.mesh
    return (_limited_slopes(rho, m.h, theta, work),
            _limited_slopes(_transposed(rho, work), m.k, theta, work).T)


def _cd2_velocity(c: np.ndarray, h: float, work=None) -> np.ndarray:
    """(c[i+1] - c[i-1]) / 2h with mirror ghosts (zero-Neumann walls)."""
    g = _take(work, c, len(c))
    np.subtract(c[2:], c[:-2], out=g[1:-1])
    np.subtract(c[1], c[0], out=g[0])
    np.subtract(c[-1], c[-2], out=g[-1])
    return np.divide(g, 2 * h, out=g)


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


def _nccd(f: np.ndarray, parts, work=None) -> list:
    """Dimensionless NCCD D f along axis 0, for each operator of ``parts``
    (0: D1, 1: D2; (1,) or (0, 1)): views of one solve, in the scratch of
    `work`, with the patched rows applied from their stencils as
    `DerivativeOperator.__matmul__` does, ghost rows dropped. Use them
    before the next solve with `work`, which overwrites them. The lines are
    the stepper's (`work`), or new ones without a work set."""
    lines = _NccdLines(len(f)) if work is None else work.lines[len(f)]
    x = lines.lu.solve(f, 2 // len(parts), None if work is None else work.scratch)
    for i, part in enumerate(parts):
        for row, first, w in lines.ops[part].patch:
            x[i::len(parts)][row] = np.dot(w, f[lines.nodes[first:first + len(w)]])
    return [x[i::len(parts)][1:-1] for i in range(len(parts))]


def _nccd_velocity(c: np.ndarray, h: float, work=None, lap=None) -> np.ndarray:
    """D1 c / h along axis 0 (NCCD); with `lap` (the IMEX split), D2 c / h^2
    of the same solve is added into it."""
    d1, d2 = _nccd(c, (0, 1), work)
    if lap is not None:
        d2 /= h**2
        np.add(lap.T, d2.T, out=lap.T)  # in lap's own layout: NumPy buffers one operand, not two
    return np.divide(d1, h, out=_take(work, c, len(c)))


def _edge_mean(w: np.ndarray, work=None) -> np.ndarray:
    out = np.add(w[:-1], w[1:], out=_take(work, w, len(w) - 1))
    return np.multiply(out, 0.5, out=out)


def _velocity_kernel(variant: PksVariant):
    return _cd2_velocity if variant is PksVariant.EXPLICIT_OUCS3_CD2 else _nccd_velocity


def _upwind(rho: np.ndarray, s: np.ndarray, h: float, w_edge: np.ndarray,
            work=None, out=None) -> np.ndarray:
    """rho[:-1] + (h/2) s[:-1] where w_edge > 0, else rho[1:] - (h/2) s[1:]."""
    out = np.multiply(s[1:], 0.5 * h, out=out)
    np.subtract(rho[1:], out, out=out)
    left = np.multiply(s[:-1], 0.5 * h, out=_take(work, rho, len(rho) - 1))
    np.add(rho[:-1], left, out=left)
    np.copyto(out, left, where=w_edge > 0)
    _give(work, left)
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
    _give(work, w)
    flux = _take(work, rho, len(rho) + 1)
    flux[0] = flux[-1] = 0.0
    edges = _upwind(rho, s, h, w_edge, work, out=flux[1:-1])
    _give(work, s)
    _check_edges(edges.T if axis else edges, floor, ("x-edge", "y-edge")[axis])
    np.multiply(edges, chi, out=edges)
    np.multiply(edges, w_edge, out=edges)
    _give(work, w_edge)
    return flux


def _fluxes(state: PksState, wx, wy, work) -> EdgeFluxes:
    """The fluxes of the velocities that `wx` and `wy` return when called,
    along the x lines and along the y lines (transposed); each is called
    when its pass needs it, so no two velocity arrays are held at once."""
    rho, m, chi = state.rho.values, state.rho.mesh, state.chi
    (sx, sy), floor = adaptive_slopes(state.rho, state.theta, work), _edge_floor(rho)
    p = _axis_flux(rho, sx, wx(), m.h, chi, floor, 0, work)
    return EdgeFluxes(p, _axis_flux(_transposed(rho, work), sy.T, wy(), m.k, chi, floor, 1, work).T)


def edge_fluxes(state: PksState, variant: PksVariant, work=None) -> EdgeFluxes:
    c, m, velocity = state.c.values, state.rho.mesh, _velocity_kernel(variant)
    return _fluxes(state, lambda: velocity(c, m.h, work),
                   lambda: velocity(_transposed(c, work), m.k, work), work)


def _cd2_second(f: np.ndarray, h: float, out: np.ndarray, work=None) -> np.ndarray:
    """(f[i+1] - 2 f[i] + f[i-1]) / h^2 with mirror ghosts (zero-Neumann
    walls); `work` is unused (both second-derivative kernels take it)."""
    out = np.multiply(f, 2, out=out)
    np.subtract(f[1:], out[:-1], out=out[:-1])
    np.subtract(f[-1], out[-1], out=out[-1])
    np.add(out[1:], f[:-1], out=out[1:])
    np.add(out[0], f[0], out=out[0])
    return np.divide(out, h**2, out=out)


def _nccd_second(f: np.ndarray, h: float, out: np.ndarray, work=None) -> np.ndarray:
    d2, = _nccd(f, (1,), work)
    return np.divide(d2, h**2, out=out)


def _lap(second, f: np.ndarray, h: float, k: float, work) -> np.ndarray:
    out = second(f, h, _take(work, f, len(f)), work)
    ft = _transposed(f, work)
    fy = second(ft, k, _take(work, ft, len(ft)), work)
    out += fy.T
    _give(work, fy)
    return out


def _lap_cd2(f: np.ndarray, h: float, k: float, work=None) -> np.ndarray:
    return _lap(_cd2_second, f, h, k, work)


def _lap_nccd(f: np.ndarray, h: float, k: float, work=None) -> np.ndarray:
    return _lap(_nccd_second, f, h, k, work)


def laplacian(f_field: Field2D, variant: PksVariant, work=None) -> np.ndarray:
    m = f_field.mesh
    lap = _lap_cd2 if variant is PksVariant.EXPLICIT_OUCS3_CD2 else _lap_nccd
    return lap(f_field.values, m.h, m.k, work)


def _divergence(fl: EdgeFluxes, m: Mesh2D, work=None) -> np.ndarray:
    """P_x + Q_y; the flux arrays go back to `work`."""
    div = _axis_diff(fl.p, m.h, _take(work, fl.p, m.nx))
    div_y = _axis_diff(fl.q.T, m.k, _take(work, fl.q.T, m.ny))
    _give(work, fl.p, fl.q)
    div += div_y.T
    _give(work, div_y)
    return div


def rho_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2,
            work=None) -> Field2D:
    """-(P_x + Q_y) + lap(rho) with zero-flux boundary edges."""
    div = _divergence(edge_fluxes(state, variant, work), state.rho.mesh, work)
    vals = laplacian(state.rho, variant, work)
    vals -= div
    _give(work, div)
    return Field2D(state.rho.mesh, vals)


def c_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2,
          work=None) -> Field2D:
    """lap(c) - c + rho."""
    vals = laplacian(state.c, variant, work)
    vals -= state.c.values
    vals += state.rho.values
    return Field2D(state.c.mesh, vals)


def _explicit_split(state: PksState, work):
    """z_I = 0 (None); z_E is the whole right-hand side, with CD2 operators."""
    z = rho_rhs(state, work=work).values, c_rhs(state, work=work).values
    work.give_transposed()
    return None, z


def _imex_split(state: PksState, work):
    """z_I = (lap rho, lap c - c) and z_E = (-div(flux), rho), NCCD
    operators. z_I's c part starts at -c, and the solves that give c's
    velocities add lap c into it. Those solves gather their input, so the y
    pass reads c's y lines from c itself."""
    c, m = state.c.values, state.rho.mesh
    lap_c = np.negative(c, out=_take(work, c, len(c)))
    adv = _divergence(_fluxes(state, lambda: _nccd_velocity(c, m.h, work, lap_c),
                              lambda: _nccd_velocity(c.T, m.k, work, lap_c.T), work), m, work)
    np.negative(adv, out=adv)
    lap_rho = laplacian(state.rho, PksVariant.IMEX_NCCD, work)
    work.give_transposed()
    return (lap_rho, lap_c), (adv, state.rho.values)


#: variant -> (split of the (rho, c) right-hand sides into (z_I, z_E), and the
#: reaction rate r of z_I = lap - r per equation, or None when z_I = 0). The
#: split functions look their kernels up when called.
_SPLITS = {
    PksVariant.EXPLICIT_OUCS3_CD2: (_explicit_split, None),
    PksVariant.IMEX_NCCD: (_imex_split, (0.0, 1.0)),
}


def _axpy(f: np.ndarray, a: float, e: np.ndarray, work) -> np.ndarray:
    """f + a e, in a new array."""
    out = np.multiply(e, a, out=_take(work, f, len(f)))
    return np.add(f, out, out=out)


def _z(zi, ze, work):
    """z = z_I + z_E per equation, into z_I's arrays; z_E alone when z_I = 0
    (None). z_E's arrays are not read again and go back to `work`: its rho
    is the caller's field, which `work` does not own, or u*, which the step
    no longer needs."""
    if zi is None:
        return ze
    for i, e in zip(zi, ze):
        i += e
    _give(work, *ze)
    return zi


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
    lines of the field as its columns; `mesh` is read only then. Each
    stage checks that rho and c are finite and rho is nonnegative.
    Intermediate arrays live in the stepper's work set, made during its
    first step; only the returned fields and the scratch of the solves
    (`_Work.scratch`, kept for the next step) are new memory.
    """

    def __init__(self, variant: PksVariant, mesh: Mesh2D | None, dt: float):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.split, rates = _SPLITS[variant]
        self.lines, self.stages, self.work = {}, None, None
        if rates is not None:
            from .adr1d import ImplicitStage

            axes = ((mesh.nx, mesh.h), (mesh.ny, mesh.k))
            self.lines = {n: _NccdLines(n) for n, _ in axes}
            made = {(n, s, r): ImplicitStage(n + 2, 1 + r * dt / 4,
                                             [(self.lines[n].ops[1], dt / (2 * s**2))],
                                             ((0, 0, (1.0, -1.0)), (n + 1, n, (-1.0, 1.0))))
                    for n, s in set(axes) for r in rates}
            self.stages = [[made[n, s, r] for n, s in axes] for r in rates]

    def _state(self, state: PksState, fields, t_check: float) -> PksState:
        _check_fields(*fields, t_check)
        rho, c = (Field2D(state.rho.mesh, f) for f in fields)
        return PksState(rho, c, state.t + self.dt, state.chi, state.theta)

    def _stage1(self, u, zi, ze, work):
        """u* and z(u), from the split of z(u)."""
        dt = self.dt
        if zi is None:
            return [_axpy(f, dt, e, work) for f, e in zip(u, ze)], ze
        us = []
        for (sx, sy), f, i, e in zip(self.stages, u, zi, ze):
            b = _axpy(f, dt / 2, i, work)
            t = np.multiply(e, dt, out=_take(work, f, len(f)))
            b += t
            _give(work, t)
            np.copyto(b, sx.solve(b, work.scratch)[1:-1])        # the x lines
            np.copyto(b, sy.solve(b.T, work.scratch)[1:-1].T)    # the y lines: u*
            us.append(b)
        return us, _z(zi, ze, work)

    def step(self, state: PksState) -> PksState:
        u = (state.rho.values, state.c.values)
        if self.work is None or self.work.shape != u[0].shape:
            self.work = _Work(u[0].shape, self.lines)
        work = self.work
        work.reset()
        us, z = self._stage1(u, *self.split(state, work), work)
        mid = self._state(state, us, state.t)
        zs = _z(*self.split(mid, work), work)
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
    m = state.rho.mesh
    x, y = m.centers()
    j0 = int(np.argmin(np.abs(y)))
    i0 = int(np.argmin(np.abs(x)))
    prof = state.rho.values[i0:, j0]
    r = x[i0:] - x[i0]
    return r, prof


def oscillation_metric(state: PksState, core_fraction: float = 0.1) -> float:
    """Total overshoot along the radial profile, outside the central peak.

    Sums max(0, rho_i - max(rho_{i-1}, rho_{i+1})) over interior profile
    samples with r >= core_fraction * r_max; a monotone profile scores 0 and
    a single ripple of height eps scores ~eps.
    """
    r, prof = radial_profile(state)
    keep = r >= core_fraction * r[-1]
    p = prof[keep]
    if len(p) < 3:
        return 0.0
    over = np.maximum(0.0, p[1:-1] - np.maximum(p[:-2], p[2:]))
    return float(np.sum(over))


def diagnostics(state: PksState) -> dict:
    return {
        "t": state.t,
        "mass": total_mass(state),
        "min_rho": float(state.rho.values.min()),
        "max_rho": float(state.rho.values.max()),
        "oscillation": oscillation_metric(state),
    }


def write_snapshot_csv(state: PksState, path) -> None:
    """Rows x, y, rho, c with 12 significant digits, written one mesh row at a
    time; each x and y is formatted once."""
    m = state.rho.mesh
    x, y = m.centers()
    # x_i joins these pieces into row i's format: x_i y_0 %g %g, x_i y_1 ...
    pieces = [""] + [f"{yj:.12g},%.12g,%.12g\n" for yj in y.tolist()]
    cols = np.empty((m.ny, 2))
    with open(path, "w") as fh:
        fh.write("x,y,rho,c\n")
        for i, xi in enumerate(x.tolist()):
            cols[:, 0], cols[:, 1] = state.rho.values[i], state.c.values[i]
            fh.write(f"{xi:.12g},".join(pieces) % tuple(cols.ravel().tolist()))


def write_radial_csv(state: PksState, path) -> None:
    r, prof = radial_profile(state)
    with open(path, "w") as fh:
        fh.write("r,rho\n")
        fh.write(("%.12g,%.12g\n" * len(r)) % tuple(np.column_stack((r, prof)).ravel().tolist()))


def write_metadata(path, variant: PksVariant, dt: float, t_end: float,
                   mesh: Mesh2D, chi: float, theta: float, history: list) -> None:
    meta = {
        "variant": variant.value,
        "dt": dt,
        "t_end": t_end,
        "mesh": {"nx": mesh.nx, "ny": mesh.ny, "h": mesh.h, "k": mesh.k,
                 "origin": list(mesh.origin)},
        "chi": chi,
        "theta": theta,
        "diagnostics": history,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
