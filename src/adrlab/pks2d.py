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

Two time integrators are provided:

* ``explicit`` - Heun (two-stage RK2) on both equations, with the
  five-point CD2 Laplacian and CD2 chemotactic velocities (mirror-ghost
  closure). Fluxes telescope, so cell mass is conserved to roundoff. The
  CD2 Laplacian has no negative weight and Heun is a convex combination of
  forward-Euler stages, so under the CFL bound every accepted density
  field is nonnegative.
* ``imex-nccd`` - mid-point-implicit treatment of the stiff linear parts
  (lap(rho), and lap(c) - c) factored dimension-wise into 1D solves, with
  Heun-explicit chemotactic transport and rho-coupling. Spatial operators
  come from the combined compact scheme applied line-by-line on
  mirror-padded lines, folding the ghost values into the boundary columns.
  Positivity is not kept near blow-up: the compact second-derivative row
  has alternating-sign weights (-0.558 two cells away), so once the spike
  is cell-size rho + (dt/2) lap(rho) turns negative beside it, whatever dt,
  after an odd-even ripple forms. On the 200^2 Gaussian run (chi = 30) this
  happens near t = 3.5e-6, at cell (99, 102), for dt = 1e-8 to 5e-8; the
  step raises PositivityError there. The line operators are not in
  conservation form, so mass also drifts where rho at the walls is far from
  zero (coarse meshes).

Solutions above the critical mass concentrate into a cell-size spike in
finite time; runs stop at the requested horizon or abort with a
positivity/finiteness diagnostic, with no regularization added.

A state is owned by one stepper at a time; steppers hold only immutable
factorizations, and diagnostics are read-only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .operators import Grid1D, build_nccd


class PksVariant(enum.Enum):
    EXPLICIT_OUCS3_CD2 = "explicit-oucs3-cd2"
    IMEX_NCCD = "imex-nccd"


class PositivityError(Exception):
    """A stage or step produced a negative density."""

    def __init__(self, t: float, index, value: float):
        self.t = t
        self.index = index
        self.value = value
        super().__init__(f"rho < 0 at cell {index} (value {value:.6g}, t = {t:g})")


class NonFiniteError(Exception):
    def __init__(self, t: float, index):
        self.t = t
        self.index = index
        super().__init__(f"non-finite field value at cell {index} (t = {t:g})")


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
        if not self.chi > 0:
            raise ValueError("chi must be positive")
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


def _centered_slopes(rho: np.ndarray, h: float, axis: int) -> np.ndarray:
    s = np.zeros_like(rho)
    if axis == 0:
        s[1:-1, :] = (rho[2:, :] - rho[:-2, :]) / (2 * h)
        s[0, :] = (rho[1, :] - rho[0, :]) / h
        s[-1, :] = (rho[-1, :] - rho[-2, :]) / h
    else:
        s[:, 1:-1] = (rho[:, 2:] - rho[:, :-2]) / (2 * h)
        s[:, 0] = (rho[:, 1] - rho[:, 0]) / h
        s[:, -1] = (rho[:, -1] - rho[:, -2]) / h
    return s


def _one_sided_slopes(rho: np.ndarray, h: float, axis: int):
    fwd = np.zeros_like(rho)
    bwd = np.zeros_like(rho)
    if axis == 0:
        fwd[:-1, :] = (rho[1:, :] - rho[:-1, :]) / h
        bwd[1:, :] = fwd[:-1, :]
    else:
        fwd[:, :-1] = (rho[:, 1:] - rho[:, :-1]) / h
        bwd[:, 1:] = fwd[:, :-1]
    return fwd, bwd


def adaptive_slopes(rho_field: Field2D, theta: float):
    """Cell slopes: centered by default, minmod-limited where a centered
    reconstruction would produce a negative point value."""
    rho = rho_field.values
    m = rho_field.mesh
    out = []
    for axis, spacing in ((0, m.h), (1, m.k)):
        s = _centered_slopes(rho, spacing, axis)
        fwd, bwd = _one_sided_slopes(rho, spacing, axis)
        bad = (rho - 0.5 * spacing * s < 0) | (rho + 0.5 * spacing * s < 0)
        limited = minmod(theta * fwd, s, theta * bwd)
        out.append(np.where(bad, limited, s))
    return out[0], out[1]


def _cd2_velocity(c: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central derivative with mirror-ghost closure (zero-Neumann walls)."""
    g = np.pad(c, 1, mode="edge")
    if axis == 0:
        return (g[2:, 1:-1] - g[:-2, 1:-1]) / (2 * h)
    return (g[1:-1, 2:] - g[1:-1, :-2]) / (2 * h)


def _fold_ghosts(mp: np.ndarray) -> np.ndarray:
    m = mp[1:-1, :].copy()
    m[:, 1] += m[:, 0]
    m[:, -2] += m[:, -1]
    return m[:, 1:-1]


_LINE_OPS: dict = {}


def _nccd_line_ops(n: int):
    """Per-line compact (D1, D2) with mirror padding folded into n x n matrices.

    The operators are built on n + 2 nodes; applying them to the padded line
    (u_1, u_1..u_n, u_n) and discarding the ghost rows is equivalent to the
    folded dense matrices cached here, which bake the zero-Neumann ghost
    values into the boundary columns.
    """
    if n not in _LINE_OPS:
        d1p, d2p = build_nccd(Grid1D(n + 2, 1.0))
        _LINE_OPS[n] = (_fold_ghosts(d1p.matrix), _fold_ghosts(d2p.matrix))
    return _LINE_OPS[n]


def _nccd_velocity(c: np.ndarray, h: float, axis: int) -> np.ndarray:
    d1, _ = _nccd_line_ops(c.shape[axis])
    if axis == 0:
        return (d1 @ c) / h
    return (c @ d1.T) / h


def chemotactic_velocity(c_field: Field2D, variant: PksVariant):
    """Cell-center velocities (u, v) = grad c and their edge means.

    Returns (u, v, u_edge, v_edge); u_edge has shape (nx-1, ny) covering the
    interior x-edges (boundary edges carry no flux), v_edge likewise.
    """
    c = c_field.values
    m = c_field.mesh
    if variant is PksVariant.EXPLICIT_OUCS3_CD2:
        u = _cd2_velocity(c, m.h, 0)
        v = _cd2_velocity(c, m.k, 1)
    else:
        u = _nccd_velocity(c, m.h, 0)
        v = _nccd_velocity(c, m.k, 1)
    u_edge = 0.5 * (u[:-1, :] + u[1:, :])
    v_edge = 0.5 * (v[:, :-1] + v[:, 1:])
    return u, v, u_edge, v_edge


def reconstruct_edges(rho_field: Field2D, slopes, u_edge, v_edge):
    """Upwind point values at interior edges from the limited linear pieces.

    rho_{i+1/2,j} takes the left cell's rightward extrapolation when the
    edge velocity is positive, else the right cell's leftward one; the
    limiter guarantees both candidates are nonnegative.
    """
    rho = rho_field.values
    m = rho_field.mesh
    sx, sy = slopes
    left = rho[:-1, :] + 0.5 * m.h * sx[:-1, :]
    right = rho[1:, :] - 0.5 * m.h * sx[1:, :]
    rho_xe = np.where(u_edge > 0, left, right)
    lo = rho[:, :-1] + 0.5 * m.k * sy[:, :-1]
    hi = rho[:, 1:] - 0.5 * m.k * sy[:, 1:]
    rho_ye = np.where(v_edge > 0, lo, hi)
    worst = min(rho_xe.min(initial=0.0), rho_ye.min(initial=0.0))
    if worst < -1e-12 * max(rho.max(initial=1.0), 1.0):
        raise AssertionError(f"negative edge reconstruction ({worst:.3e}): limiter bug")
    return rho_xe, rho_ye


def edge_fluxes(state: PksState, variant: PksVariant) -> EdgeFluxes:
    m = state.rho.mesh
    _, _, u_edge, v_edge = chemotactic_velocity(state.c, variant)
    slopes = adaptive_slopes(state.rho, state.theta)
    rho_xe, rho_ye = reconstruct_edges(state.rho, slopes, u_edge, v_edge)
    p = np.zeros((m.nx + 1, m.ny))
    q = np.zeros((m.nx, m.ny + 1))
    p[1:-1, :] = state.chi * rho_xe * u_edge
    q[:, 1:-1] = state.chi * rho_ye * v_edge
    return EdgeFluxes(p, q)


def _lap_cd2(f: np.ndarray, h: float, k: float) -> np.ndarray:
    g = np.pad(f, 1, mode="edge")
    return ((g[2:, 1:-1] - 2 * f + g[:-2, 1:-1]) / h**2
            + (g[1:-1, 2:] - 2 * f + g[1:-1, :-2]) / k**2)


def _lap_nccd(f: np.ndarray, h: float, k: float) -> np.ndarray:
    _, d2x = _nccd_line_ops(f.shape[0])
    _, d2y = _nccd_line_ops(f.shape[1])
    return (d2x @ f) / h**2 + (f @ d2y.T) / k**2


def laplacian(f_field: Field2D, variant: PksVariant) -> np.ndarray:
    m = f_field.mesh
    if variant is PksVariant.EXPLICIT_OUCS3_CD2:
        return _lap_cd2(f_field.values, m.h, m.k)
    return _lap_nccd(f_field.values, m.h, m.k)


def _flux_divergence(state: PksState, variant: PksVariant) -> np.ndarray:
    m = state.rho.mesh
    fl = edge_fluxes(state, variant)
    return (fl.p[1:, :] - fl.p[:-1, :]) / m.h + (fl.q[:, 1:] - fl.q[:, :-1]) / m.k


def rho_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2) -> Field2D:
    """-(P_x + Q_y) + lap(rho) with zero-flux boundary edges."""
    vals = -_flux_divergence(state, variant) + laplacian(state.rho, variant)
    return Field2D(state.rho.mesh, vals)


def c_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2) -> Field2D:
    """lap(c) - c + rho."""
    vals = laplacian(state.c, variant) - state.c.values + state.rho.values
    return Field2D(state.c.mesh, vals)


def _check_fields(rho: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(rho)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(rho))), rho.shape)
        raise NonFiniteError(t, tuple(int(i) for i in idx))
    mn = float(rho.min())
    if mn < 0.0:
        idx = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise PositivityError(t, tuple(int(i) for i in idx), mn)


class ExplicitPksStepper:
    """Heun stepping of both equations with CD2 space discretization."""

    variant = PksVariant.EXPLICIT_OUCS3_CD2

    def __init__(self, dt: float):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    def step(self, state: PksState) -> PksState:
        dt = self.dt
        mesh = state.rho.mesh
        fr = rho_rhs(state, self.variant).values
        fc = c_rhs(state, self.variant).values
        rho_s = state.rho.values + dt * fr
        c_s = state.c.values + dt * fc
        _check_fields(rho_s, state.t)
        mid = PksState(Field2D(mesh, rho_s), Field2D(mesh, c_s),
                       state.t + dt, state.chi, state.theta)
        fr2 = rho_rhs(mid, self.variant).values
        fc2 = c_rhs(mid, self.variant).values
        rho_n = state.rho.values + 0.5 * dt * (fr + fr2)
        c_n = state.c.values + 0.5 * dt * (fc + fc2)
        _check_fields(rho_n, state.t + dt)
        return PksState(Field2D(mesh, rho_n), Field2D(mesh, c_n),
                        state.t + dt, state.chi, state.theta)


class ImexNccdStepper:
    """Mid-point-implicit linear parts, Heun-explicit chemotaxis and coupling.

    The implicit operators (I - dt/2 lap) and (I + dt/2 - dt/2 lap) are
    factored dimension-wise into per-line dense solves, reusing one LU per
    direction for the whole run; the splitting is second-order consistent
    with the mid-point stage. The reaction -c is shared half-and-half
    between the two directional factors.

    Nonnegativity is checked, not guaranteed: the compact Laplacian of rho
    is not monotone, and beside a cell-size spike a stage turns negative
    and raises PositivityError (see the module docstring).
    """

    variant = PksVariant.IMEX_NCCD

    def __init__(self, mesh: Mesh2D, dt: float):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        lx = _nccd_line_ops(mesh.nx)[1] / mesh.h**2
        ly = _nccd_line_ops(mesh.ny)[1] / mesh.k**2
        ix = np.eye(mesh.nx)
        iy = np.eye(mesh.ny)
        self.lu_rho_x = lu_factor(ix - (dt / 2) * lx)
        self.lu_rho_y = lu_factor(iy - (dt / 2) * ly)
        self.lu_c_x = lu_factor((1 + dt / 4) * ix - (dt / 2) * lx)
        self.lu_c_y = lu_factor((1 + dt / 4) * iy - (dt / 2) * ly)

    @staticmethod
    def _solve_xy(lux, luy, rhs: np.ndarray) -> np.ndarray:
        tmp = lu_solve(lux, rhs)          # x-direction lines
        return lu_solve(luy, tmp.T).T     # y-direction lines

    def step(self, state: PksState) -> PksState:
        dt = self.dt
        mesh = state.rho.mesh
        rho, c = state.rho.values, state.c.values
        lap_r = _lap_nccd(rho, mesh.h, mesh.k)
        lap_c = _lap_nccd(c, mesh.h, mesh.k)
        adv_n = -_flux_divergence(state, self.variant)
        rho_s = self._solve_xy(self.lu_rho_x, self.lu_rho_y,
                               rho + (dt / 2) * lap_r + dt * adv_n)
        c_s = self._solve_xy(self.lu_c_x, self.lu_c_y,
                             c + (dt / 2) * (lap_c - c) + dt * rho)
        _check_fields(rho_s, state.t)
        mid = PksState(Field2D(mesh, rho_s), Field2D(mesh, c_s),
                       state.t + dt, state.chi, state.theta)
        adv_s = -_flux_divergence(mid, self.variant)
        rho_n = rho + 0.5 * dt * (lap_r + adv_n
                                  + _lap_nccd(rho_s, mesh.h, mesh.k) + adv_s)
        c_n = c + 0.5 * dt * ((lap_c - c + rho)
                              + (_lap_nccd(c_s, mesh.h, mesh.k) - c_s + rho_s))
        _check_fields(rho_n, state.t + dt)
        return PksState(Field2D(mesh, rho_n), Field2D(mesh, c_n),
                        state.t + dt, state.chi, state.theta)


def make_stepper(variant: PksVariant, mesh: Mesh2D, dt: float):
    if variant is PksVariant.EXPLICIT_OUCS3_CD2:
        return ExplicitPksStepper(dt)
    return ImexNccdStepper(mesh, dt)


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
    m = state.rho.mesh
    x, y = m.centers()
    with open(path, "w") as fh:
        fh.write("x,y,rho,c\n")
        for i in range(m.nx):
            for j in range(m.ny):
                fh.write(f"{x[i]:.12g},{y[j]:.12g},"
                         f"{state.rho.values[i, j]:.12g},{state.c.values[i, j]:.12g}\n")


def write_radial_csv(state: PksState, path) -> None:
    r, prof = radial_profile(state)
    with open(path, "w") as fh:
        fh.write("r,rho\n")
        for ri, pi in zip(r, prof):
            fh.write(f"{ri:.12g},{pi:.12g}\n")


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
