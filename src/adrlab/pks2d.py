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
  -div(flux) for rho and rho for c; combined compact (NCCD) operators
  applied line by line, mirror ghosts folded into the boundary columns.
  Positivity is not kept near blow-up: the compact second-derivative row
  has alternating-sign weights (-0.558 two cells away), so once the spike
  is cell-size rho + (dt/2) lap(rho) turns negative beside it, whatever
  dt. On the 200^2 Gaussian run (chi = 30) this happens near t = 3.5e-6,
  at cell (100, 102), for dt = 1e-8 to 5e-8. The line operators are not in
  conservation form, so mass also drifts where rho at the walls is far
  from zero (coarse meshes).

Solutions above the critical mass concentrate into a cell-size spike in
finite time; runs stop at the requested horizon or abort with a
positivity/finiteness diagnostic, with no regularization added.

A state is owned by one stepper at a time; steppers hold only immutable
factorizations, and diagnostics are read-only.
"""

from __future__ import annotations

import enum
import functools
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
    """A stage or step produced a non-finite value in the named field."""

    def __init__(self, t: float, index, field: str = "rho"):
        self.t = t
        self.index = index
        self.field = field
        super().__init__(f"non-finite {field} at cell {index} (t = {t:g})")


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


# Every 2D kernel below works along axis 0 (x); the y direction is the same
# kernel applied to transposed views. Kernels return arrays in their input's
# memory layout, so a y pass never mixes C- and Fortran-ordered operands.

def _axis_diff(f: np.ndarray, h: float) -> np.ndarray:
    return (f[1:] - f[:-1]) / h


def _limited_slopes(rho: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Centered slopes (one-sided at the walls), minmod-limited where the
    centered reconstruction would produce a negative point value."""
    fwd = np.zeros_like(rho)
    fwd[:-1] = _axis_diff(rho, h)
    bwd = np.zeros_like(rho)
    bwd[1:] = fwd[:-1]
    s = np.empty_like(rho)
    s[1:-1] = (rho[2:] - rho[:-2]) / (2 * h)
    s[0], s[-1] = fwd[0], bwd[-1]
    hs = 0.5 * h * s
    bad = (rho - hs < 0) | (rho + hs < 0)
    s[bad] = minmod(theta * fwd[bad], s[bad], theta * bwd[bad])
    return s


def adaptive_slopes(rho_field: Field2D, theta: float):
    """Cell slopes (x, y) from `_limited_slopes`."""
    rho, m = rho_field.values, rho_field.mesh
    return _limited_slopes(rho, m.h, theta), _limited_slopes(rho.T, m.k, theta).T


def _mirror(f: np.ndarray) -> np.ndarray:
    """f with a mirror-ghost row at each end (zero-Neumann walls), in f's layout."""
    g = np.empty_like(f, shape=(len(f) + 2,) + f.shape[1:])
    g[1:-1], g[0], g[-1] = f, f[0], f[-1]
    return g


def _cd2_velocity(c: np.ndarray, h: float) -> np.ndarray:
    g = _mirror(c)
    return (g[2:] - g[:-2]) / (2 * h)


def _fold_ghosts(mp: np.ndarray) -> np.ndarray:
    m = mp[1:-1, :].copy()
    m[:, 1] += m[:, 0]
    m[:, -2] += m[:, -1]
    return m[:, 1:-1]


_LINE_OPS: dict = {}


def _nccd_line_ops(n: int):
    """Cached per-line compact (D1, D2) as n x n matrices: built on n + 2
    nodes for the mirror-padded line (u_1, u_1..u_n, u_n), ghost rows dropped
    and ghost columns folded into the boundary columns (zero-Neumann)."""
    if n not in _LINE_OPS:
        d1p, d2p = build_nccd(Grid1D(n + 2, 1.0))
        _LINE_OPS[n] = (_fold_ghosts(d1p.matrix), _fold_ghosts(d2p.matrix))
    return _LINE_OPS[n]


def _lines(d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """d @ f (d applied to every line along axis 0), in f's memory layout."""
    return (f.T @ d.T).T if f.flags.f_contiguous else d @ f


def _nccd_velocity(c: np.ndarray, h: float) -> np.ndarray:
    return _lines(_nccd_line_ops(len(c))[0], c) / h


def chemotactic_velocity(c_field: Field2D, variant: PksVariant):
    """Cell-center velocities (u, v) = grad c and their edge means.

    Returns (u, v, u_edge, v_edge); u_edge has shape (nx-1, ny) covering the
    interior x-edges (boundary edges carry no flux), v_edge likewise.
    """
    c, m = c_field.values, c_field.mesh
    d1 = _cd2_velocity if variant is PksVariant.EXPLICIT_OUCS3_CD2 else _nccd_velocity
    u, vt = d1(c, m.h), d1(c.T, m.k)
    u_edge, vt_edge = (0.5 * (w[:-1] + w[1:]) for w in (u, vt))
    return u, vt.T, u_edge, vt_edge.T


def _upwind(rho: np.ndarray, s: np.ndarray, h: float, w_edge: np.ndarray) -> np.ndarray:
    return np.where(w_edge > 0, rho[:-1] + 0.5 * h * s[:-1], rho[1:] - 0.5 * h * s[1:])


def reconstruct_edges(rho_field: Field2D, slopes, u_edge, v_edge):
    """Upwind point values at interior edges from the limited linear pieces.

    rho_{i+1/2,j} takes the left cell's rightward extrapolation when the
    edge velocity is positive, else the right cell's leftward one; the
    limiter guarantees both candidates are nonnegative.
    """
    rho, m = rho_field.values, rho_field.mesh
    rho_xe = _upwind(rho, slopes[0], m.h, u_edge)
    rho_ye = _upwind(rho.T, slopes[1].T, m.k, v_edge.T).T
    worst = min(rho_xe.min(initial=0.0), rho_ye.min(initial=0.0))
    if worst < -1e-12 * max(rho.max(initial=1.0), 1.0):
        raise AssertionError(f"negative edge reconstruction ({worst:.3e}): limiter bug")
    return rho_xe, rho_ye


def _wall_flux(chi: float, rho_edge: np.ndarray, w_edge: np.ndarray) -> np.ndarray:
    """Fluxes on all edges along axis 0, zero on the two walls."""
    out = np.zeros_like(rho_edge, shape=(len(rho_edge) + 2,) + rho_edge.shape[1:])
    out[1:-1] = chi * rho_edge * w_edge
    return out


def edge_fluxes(state: PksState, variant: PksVariant) -> EdgeFluxes:
    _, _, u_edge, v_edge = chemotactic_velocity(state.c, variant)
    slopes = adaptive_slopes(state.rho, state.theta)
    rho_xe, rho_ye = reconstruct_edges(state.rho, slopes, u_edge, v_edge)
    return EdgeFluxes(_wall_flux(state.chi, rho_xe, u_edge),
                      _wall_flux(state.chi, rho_ye.T, v_edge.T).T)


def _cd2_second(f: np.ndarray, h: float) -> np.ndarray:
    g = _mirror(f)
    return (g[2:] - 2 * f + g[:-2]) / h**2


def _nccd_second(f: np.ndarray, h: float) -> np.ndarray:
    return _lines(_nccd_line_ops(len(f))[1], f) / h**2


def _lap_cd2(f: np.ndarray, h: float, k: float) -> np.ndarray:
    return _cd2_second(f, h) + _cd2_second(f.T, k).T


def _lap_nccd(f: np.ndarray, h: float, k: float) -> np.ndarray:
    return _nccd_second(f, h) + _nccd_second(f.T, k).T


def laplacian(f_field: Field2D, variant: PksVariant) -> np.ndarray:
    m = f_field.mesh
    lap = _lap_cd2 if variant is PksVariant.EXPLICIT_OUCS3_CD2 else _lap_nccd
    return lap(f_field.values, m.h, m.k)


def _flux_divergence(state: PksState, variant: PksVariant) -> np.ndarray:
    m = state.rho.mesh
    fl = edge_fluxes(state, variant)
    return _axis_diff(fl.p, m.h) + _axis_diff(fl.q.T, m.k).T


def rho_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2) -> Field2D:
    """-(P_x + Q_y) + lap(rho) with zero-flux boundary edges."""
    vals = -_flux_divergence(state, variant) + laplacian(state.rho, variant)
    return Field2D(state.rho.mesh, vals)


def c_rhs(state: PksState, variant: PksVariant = PksVariant.EXPLICIT_OUCS3_CD2) -> Field2D:
    """lap(c) - c + rho."""
    vals = laplacian(state.c, variant) - state.c.values + state.rho.values
    return Field2D(state.c.mesh, vals)


def _explicit_split(state: PksState):
    """z_I = 0 (None); z_E is the whole right-hand side, with CD2 operators."""
    return None, (rho_rhs(state).values, c_rhs(state).values)


def _imex_split(state: PksState):
    """z_I = (lap rho, lap c - c) and z_E = (-div(flux), rho), NCCD operators."""
    m = state.rho.mesh
    rho, c = state.rho.values, state.c.values
    # first, while the fewest arrays are alive: its temporaries set the memory peak
    adv = -_flux_divergence(state, PksVariant.IMEX_NCCD)
    return (_lap_nccd(rho, m.h, m.k), _lap_nccd(c, m.h, m.k) - c), (adv, rho)


#: variant -> (split of the (rho, c) right-hand sides into (z_I, z_E), and the
#: reaction rate r of z_I = lap - r per equation, or None when z_I = 0). The
#: split functions look their kernels up when called.
_SPLITS = {
    PksVariant.EXPLICIT_OUCS3_CD2: (_explicit_split, None),
    PksVariant.IMEX_NCCD: (_imex_split, (0.0, 1.0)),
}


def _line_lus(mesh: Mesh2D, dt: float, rate: float):
    """LU factors of the x and y line factors (1 + rate dt/4) I - (dt/2) L of
    I - (dt/2)(lap - rate): the reaction is shared half-and-half."""
    return [lu_factor((1 + rate * dt / 4) * np.eye(n) - (dt / 2) * (_nccd_line_ops(n)[1] / s**2))
            for n, s in ((mesh.nx, mesh.h), (mesh.ny, mesh.k))]


def _z(zi, ze):
    """z = z_I + z_E per equation; z_E alone when z_I = 0 (None)."""
    return ze if zi is None else [i + e for i, e in zip(zi, ze)]


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

    With z_I present, stage 1 solves x-then-y line factors, one LU per
    direction and equation for the run (second-order consistent with the
    mid-point stage); `mesh` is read only then. Each stage checks that rho
    and c are finite and rho is nonnegative.
    """

    def __init__(self, variant: PksVariant, mesh: Mesh2D | None, dt: float):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.split, rates = _SPLITS[variant]
        self.lus = None if rates is None else [_line_lus(mesh, dt, r) for r in rates]

    def _state(self, state: PksState, fields, t_check: float) -> PksState:
        _check_fields(*fields, t_check)
        rho, c = (Field2D(state.rho.mesh, f) for f in fields)
        return PksState(rho, c, state.t + self.dt, state.chi, state.theta)

    def _stage1(self, u, zi, ze):
        """u* and z(u), from the split of z(u); the solve runs x lines, then y."""
        dt = self.dt
        if zi is None:
            return [f + dt * e for f, e in zip(u, ze)], ze
        us = [lu_solve(ly, lu_solve(lx, f + (dt / 2) * i + dt * e).T).T
              for (lx, ly), f, i, e in zip(self.lus, u, zi, ze)]
        return us, _z(zi, ze)

    def step(self, state: PksState) -> PksState:
        u = (state.rho.values, state.c.values)
        us, z = self._stage1(u, *self.split(state))
        mid = self._state(state, us, state.t)
        zs = _z(*self.split(mid))
        return self._state(state, [f + 0.5 * self.dt * (a + b) for f, a, b in zip(u, z, zs)],
                           state.t + self.dt)


#: ExplicitPksStepper(dt) and ImexNccdStepper(mesh, dt)
ExplicitPksStepper = functools.partial(PksStepper, PksVariant.EXPLICIT_OUCS3_CD2, None)
ImexNccdStepper = functools.partial(PksStepper, PksVariant.IMEX_NCCD)


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
