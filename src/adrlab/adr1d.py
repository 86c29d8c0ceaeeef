"""Time steppers for the 1D linear advection-diffusion-reaction equation.

    u_t + c u_x = nu u_xx + lambda u,   c, nu > 0,

with Dirichlet end values, discretized by one of four spatiotemporal
schemes. All steppers work on the nondimensional groups N_c = c dt/h
(CFL), Pe = nu dt/h^2 and Da = lambda dt, and accept real or complex
nodal vectors; complex input is stepped by two real passes wherever a
linear solve is involved.

All four schemes are one two-stage update. With the semi-discrete operator

    z = -N_c D1 + Pe D2 + Da I = z_I + z_E

split into an implicitly treated part z_I and an explicit part z_E,

    stage 1:  (I - z_I/2) u* = (I + z_I/2 + z_E) u
    stage 2:  u+ = u + z (u + u*)/2

The schemes differ only in the split (the SCHEMES table):

    explicit-oucs3-cd2    Heun (two-stage RK2)   z_I = 0
    implicit-oucs3-lele   implicit mid-point     z_E = 0 (stage 2 returns u*)
    imex-oucs3-lele,      IMEX (Ascher, Ruuth    z_I = Pe D2 + Da I,
    imex-nccd             & Spiteri 1997)        z_E = -N_c D1

Dirichlet handling: the stage-1 system gets identity rows at both ends
carrying the boundary data, and stage 2 re-imposes the end values. Either
way the interior stencil rows stay exactly as analyzed spectrally.

Steppers factor their stage matrix once per configuration and are
immutable afterwards; a run owns its state, so independent runs can
execute in parallel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .operators import (
    DerivativeOperator,
    Grid1D,
    build_cd2_second,
    build_lele_second,
    build_nccd,
    build_oucs3,
)


class AdrInstabilityError(Exception):
    """Non-finite value produced during a run; carries step and node index."""

    def __init__(self, step: int, node: int, t: float):
        self.step = step
        self.node = node
        self.t = t
        super().__init__(f"non-finite value at node {node} after step {step} (t={t:g})")


class SchemeId(enum.Enum):
    EXPLICIT_OUCS3_CD2 = "explicit-oucs3-cd2"
    IMPLICIT_OUCS3_LELE = "implicit-oucs3-lele"
    IMEX_OUCS3_LELE = "imex-oucs3-lele"
    IMEX_NCCD = "imex-nccd"


@dataclass(frozen=True)
class AdrConfig:
    """Physical parameters plus grid and time step.

    The nondimensional groups are always recomputed from the stored fields,
    so they cannot drift out of consistency.
    """

    c: float
    nu: float
    lam: float
    dt: float
    grid: Grid1D

    def __post_init__(self):
        for name in ("c", "nu", "lam", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name):g})")
        if not (self.c > 0 and self.nu > 0 and self.dt > 0):
            raise ValueError("require c > 0, nu > 0, dt > 0")

    @property
    def n_c(self) -> float:
        return self.c * self.dt / self.grid.h

    @property
    def pe(self) -> float:
        return self.nu * self.dt / self.grid.h**2

    @property
    def da(self) -> float:
        return self.lam * self.dt


@dataclass(frozen=True)
class SolutionState:
    """Nodal solution vector at time t. Values are finite in any accepted
    state; `run` aborts with AdrInstabilityError the moment they are not."""

    values: np.ndarray
    t: float


#: The three terms of z = -N_c D1 + Pe D2 + Da I, in summation order.
TERMS = ("advection", "diffusion", "reaction")
_IMEX = frozenset({"diffusion", "reaction"})

#: scheme -> (grid -> (D1, D2) builder, terms of z treated implicitly).
#: This table is the only place the implicit/explicit split is defined; the
#: steppers and the spectral module both read it. Builders are looked up
#: when called, so a module-level builder replaced at run time is the one used.
SCHEMES = {
    SchemeId.EXPLICIT_OUCS3_CD2: (lambda g: (build_oucs3(g), build_cd2_second(g)),
                                  frozenset()),
    SchemeId.IMPLICIT_OUCS3_LELE: (lambda g: (build_oucs3(g), build_lele_second(g)),
                                   frozenset(TERMS)),
    SchemeId.IMEX_OUCS3_LELE: (lambda g: (build_oucs3(g), build_lele_second(g)), _IMEX),
    SchemeId.IMEX_NCCD: (lambda g: build_nccd(g), _IMEX),
}

#: rows per block when assembling a stage matrix (bounds the temporaries)
_BLOCK_ROWS = 128


def scheme_operators(scheme: SchemeId, grid: Grid1D):
    """The (first-derivative, second-derivative) operator pair of a scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SCHEMES[scheme][0](grid)


def z_parts(scheme: SchemeId, nc, pe, da) -> tuple:
    """Coefficients (of D1, D2, I) of z_I and of z_E for one scheme.

    z_I + z_E = z = -N_c D1 + Pe D2 + Da I; each term of z sits in the part
    SCHEMES assigns it to and is 0 in the other.
    """
    implicit = SCHEMES[scheme][1]
    coef = list(zip(TERMS, (-nc, pe, da)))
    return ([c if t in implicit else 0.0 for t, c in coef],
            [0.0 if t in implicit else c for t, c in coef])


def _check_ops(cfg: AdrConfig, *ops: DerivativeOperator) -> None:
    for op in ops:
        if op.n_points != cfg.grid.n_points:
            raise ValueError("operator size does not match grid")


def _bc_of(values: np.ndarray, bc):
    return (values[0], values[-1]) if bc is None else bc


def _pin(values: np.ndarray, bc) -> np.ndarray:
    values[0], values[-1] = bc
    return values


def _identity_end_rows(m: np.ndarray) -> np.ndarray:
    m[0, :] = 0.0
    m[0, 0] = 1.0
    m[-1, :] = 0.0
    m[-1, -1] = 1.0
    return m


def _lu_solve_any(lu, b: np.ndarray) -> np.ndarray:
    # real factorization; complex rhs handled as two real solves
    if np.iscomplexobj(b):
        return lu_solve(lu, b.real) + 1j * lu_solve(lu, b.imag)
    return lu_solve(lu, b)


def _combine(d1: np.ndarray, d2: np.ndarray, coef, order: str = "C") -> np.ndarray:
    """coef[0] D1 + coef[1] D2 + coef[2] I as a new dense matrix.

    Assembled a row block at a time, so the result is the only N x N array
    allocated.
    """
    n = d1.shape[0]
    out = np.zeros((n, n), order=order)
    for lo in range(0, n, _BLOCK_ROWS):
        block = out[lo:lo + _BLOCK_ROWS]
        for mat, c in ((d1, coef[0]), (d2, coef[1])):
            if c:
                block += c * mat[lo:lo + _BLOCK_ROWS]
    out[np.diag_indices(n)] += coef[2]
    return out


class Stepper:
    """The two-stage template, for any split z = z_I + z_E of the scheme table.

    Stage 1:  (I - z_I/2) u* = (I + z_I/2 + z_E) u, end rows carrying the
              Dirichlet data
    Stage 2:  u+ = u + z (u + u*)/2, ends re-pinned

    Holds at most three dense matrices: the LU factors of I - z_I/2 (none
    when z_I = 0), the stage-1 matrix e = z_I/2 + z_E, and z (none when
    z_E = 0: stage 2 then returns u* in exact arithmetic and is skipped).
    """

    def __init__(self, scheme: SchemeId, cfg: AdrConfig, d1: DerivativeOperator,
                 d2: DerivativeOperator):
        _check_ops(cfg, d1, d2)
        self.scheme = scheme
        self.cfg = cfg
        ci, ce = z_parts(scheme, cfg.n_c, cfg.pe, cfg.da)
        d1, d2 = d1.matrix, d2.matrix
        self.lu = self.z = None
        if any(ci):
            # Fortran order lets the factorization overwrite it in place
            m = _combine(d1, d2, [-ci[0] / 2, -ci[1] / 2, 1 - ci[2] / 2], order="F")
            self.lu = lu_factor(_identity_end_rows(m), overwrite_a=True)
        if any(ce):
            self.z = _combine(d1, d2, [i + e for i, e in zip(ci, ce)])
        self.e = _combine(d1, d2, [i / 2 + e for i, e in zip(ci, ce)]) if any(ci) else self.z

    def step(self, state: SolutionState, bc=None) -> SolutionState:
        u = state.values
        bc = _bc_of(u, bc)
        us = _pin(u + self.e @ u, bc)
        if self.lu is not None:
            us = _lu_solve_any(self.lu, us)
        if self.z is not None:
            us = _pin(u + 0.5 * (self.z @ (u + us)), bc)
        return SolutionState(us, state.t + self.cfg.dt)


def make_stepper(scheme: SchemeId, cfg: AdrConfig, ops=None) -> Stepper:
    """Build (and for implicit schemes factor) the stepper for one config."""
    d1, d2 = scheme_operators(scheme, cfg.grid) if ops is None else ops
    return Stepper(scheme, cfg, d1, d2)


def whole_steps(span: float, dt: float) -> int:
    """Number of steps of size dt in `span` (t_end minus the start time).

    Raises ValueError unless dt is finite and > 0, span >= 0 and span/dt
    lies within 1e-9 (relative) of a whole number, so a run never ends at a
    time other than the requested one.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be > 0 and finite (got {dt:g})")
    steps = span / dt
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(f"t_end must be finite and >= the start time (span {span:g})")
    n = round(steps)
    if abs(steps - n) > 1e-9 * max(steps, 1.0):
        raise ValueError(f"t_end is not a whole number of steps: span {span:g} is "
                         f"{steps:.12g} steps of dt = {dt:g}")
    return n


def run(scheme: SchemeId, cfg: AdrConfig, u0: SolutionState, t_end: float,
        snapshot_times=(), ops=None) -> list:
    """March from u0 to t_end, snapshotting at the nearest completed steps.

    t_end must be a whole number of steps after u0.t (`whole_steps`);
    snapshot times must be finite and are rounded to the nearest step.

    Dirichlet data is frozen from the end values of u0. `ops` is the
    scheme's (D1, D2) pair, built here when not given. Returns the list of
    snapshots (u0 itself when it matches a requested time) plus the final
    state. Aborts with AdrInstabilityError on the first non-finite value.
    """
    n_steps = whole_steps(t_end - u0.t, cfg.dt)
    bad = [ts for ts in snapshot_times if not math.isfinite(ts)]
    if bad:
        raise ValueError(f"snapshot time must be finite (got {bad[0]:g})")
    want = sorted({min(max(int(round((ts - u0.t) / cfg.dt)), 0), n_steps)
                   for ts in snapshot_times})
    stepper = make_stepper(scheme, cfg, ops)
    bc = (u0.values[0], u0.values[-1])
    out = []
    state = u0
    if want and want[0] == 0:
        out.append(state)
        want = want[1:]
    for k in range(1, n_steps + 1):
        values = stepper.step(state, bc).values
        if not np.all(np.isfinite(values)):
            bad = int(np.argmin(np.isfinite(values)))
            raise AdrInstabilityError(k, bad, u0.t + k * cfg.dt)
        state = SolutionState(values, u0.t + k * cfg.dt)
        if want and k == want[0]:
            out.append(state)
            want = want[1:]
    if not out or out[-1].t < state.t:
        out.append(state)
    return out
