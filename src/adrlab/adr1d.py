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

Nothing of size N x N is formed. Explicit parts are operator products
(`DerivativeOperator.__matmul__`, one banded solve each), and the stage
I - z_I/2 is written as one banded system, in the unknowns of the implicit
operators' systems and the stage's own, that is factored once
(`ImplicitStage`), so building a stepper and taking a step both cost O(N).
Everything here runs on NumPy alone.

Steppers factor their stage matrix once per configuration and are
immutable afterwards; a run owns its state, so independent runs can
execute in parallel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import NumericalError, whole_steps
from .linalg import LinearSolveError, PartitionedLU, StencilMatrix
from .operators import (
    DerivativeOperator,
    Grid1D,
    build_cd2_second,
    build_lele_second,
    build_nccd,
    build_oucs3,
)


class AdrInstabilityError(NumericalError):
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


class ImplicitStage:
    """Solver of the stage-1 system (I - z_I/2) w = y, its end rows from a
    closure.

    Row j of I - z_I/2 reads alpha w_j - sum_q beta_q (D_q w)_j for the
    implicit operators D_q (``terms``, pairs (D_q, beta_q)). Each D_q w is
    row ``part`` of each node's block of x, where x solves the operator's
    system A x = B w (`BandedSystem`), except at the patched rows, whose
    stencils read w itself. The stage is one banded system in the x of
    every distinct system and w, interleaved node by node with w last:

        A x - B w = 0                                for each system,
        alpha w_j - sum_q beta_q (D_q w)_j = y_j     at the interior nodes,
        closure rows                                 at the two end nodes.

    Without a ``closure`` the end rows are identity rows carrying y's end
    values (w_j = y_j, Dirichlet). A ``closure`` gives the two end rows as
    (row, first, weights) stencils on w with zero data, and y then holds
    the n - 2 inner nodes: ((0, 0, (1, -1)), (n - 1, n - 2, (-1, 1))) closes
    a mirror-padded line (w_0 = w_1, w_{n-1} = w_{n-2}).

    Its matrix is written entry by entry from the systems' stencils, the
    patches and the closure (`system`) and factored once with y's selection
    as the right-hand side (`linalg.PartitionedLU`), so a solve, of one
    vector or of many as columns, is one partitioned solve. 1 - Da/2 = 0,
    the pole of the scheme's amplification factor at kh = 0 (where every
    derivative symbol vanishes), raises LinearSolveError.
    """

    def __init__(self, n: int, alpha: float, terms, closure=None):
        if alpha == 0:
            raise LinearSolveError("the implicit stage needs 1 - Da/2 != 0 (1 - Da/2 is the "
                                   "denominator of the amplification factor at kh = 0)")
        self.n, self.alpha, self.terms = n, alpha, terms
        self.closure = ((0, 0, (1.0,)), (n - 1, n - 1, (1.0,))) if closure is None else closure
        self.systems = list({id(op.system): op.system for op, _ in terms}.values())
        self.offsets = np.cumsum([0] + [s.per_node for s in self.systems]).tolist()
        self.width = self.offsets[-1] + 1
        inputs = None if closure is None else np.r_[-1, np.arange(n - 2), -1]
        self.lu = PartitionedLU(*self.system(), inputs=inputs)

    def system(self):
        """(stage matrix, selection of y) as two `StencilMatrix`, the
        matrix's bandwidths read from its nonzero entries, so an all-zero
        band (a closure weight of 0) is left out."""
        width, size = self.width, self.width * self.n
        reach = [0] + [d for _, d, v in self._bands() if np.any(v)]
        lower = -min(reach)
        weights = np.zeros((lower + max(reach) + 1, size))
        for slot, d, v in self._bands():
            if np.any(v):
                weights[lower + d, slot::width] += v
        select = np.zeros((1, size))
        select[0, width - 1::width] = 1.0
        return StencilMatrix(weights, lower), StencilMatrix(select, 0, width)

    def _bands(self):
        """(slot, offset, weights) of each band of the stage matrix: weight j
        is the entry of the row of unknown ``slot`` of node j, ``offset``
        columns right of the diagonal, and 0 where that column is outside."""
        n, width = self.n, self.width
        j = np.arange(n)

        def inside(v, shift):  # v, 0 where node j + shift is outside
            return np.where((j + shift >= 0) & (j + shift < n), v, 0.0)

        for s, off in zip(self.systems, self.offsets):
            r = s.per_node
            for p in range(r):  # the rows A x - B w of unknown p of each node
                for k, a in enumerate(s.lhs.weights[:, p::r]):
                    q, slot = divmod(p + k - s.lhs.lower, r)
                    yield off + p, width * q + slot - p, inside(a, q)
                for k, b in enumerate(s.rhs.weights[:, p::r]):
                    q = k - s.rhs.lower
                    yield off + p, width * q + width - 1 - off - p, inside(-b, q)
        end = (j == 0) | (j == n - 1)
        yield width - 1, 0, np.where(end, 0.0, self.alpha)
        rows = [(row, first, w, 1.0) for row, first, w in self.closure]
        for op, beta in self.terms:
            patched = end | np.isin(j, [row for row, _, _ in op.patch])
            off = self.offsets[self.systems.index(op.system)]
            yield width - 1, off + op.part - (width - 1), np.where(patched, 0.0, -beta)
            rows += [(row, first, w, 0.0 if end[row] else -beta) for row, first, w in op.patch]
        for row, first, w, scale in rows:  # stencils on w: the closure's, then the patches'
            for k, wk in enumerate(w):
                v = np.zeros(n)
                v[row] = scale * wk
                yield width - 1, width * (first + k - row), v

    def solve(self, y: np.ndarray, scratch=None) -> np.ndarray:
        """w with (I - z_I/2) w = y, for y one vector or the columns of an
        array (`linalg.PartitionedLU.solve`, which ``scratch`` is passed
        to); complex y as two real solves."""
        return self.lu.solve(y, self.width, scratch)


class Stepper:
    """The two-stage template, for any split z = z_I + z_E of the scheme table.

    Stage 1:  (I - z_I/2) u* = (I + z_I/2 + z_E) u, end rows carrying the
              Dirichlet data
    Stage 2:  u+ = u + z (u + u*)/2, ends re-pinned

    z_I is only ever solved with, never applied. At interior rows the
    stage-1 right-hand side is (2I + z_E) u - (I - z_I/2) u, so

        u* = (I - z_I/2)^{-1} y - u,   y = 2u + z_E u  (y = bc + u at the ends),

    and stage 2 reduces to u+ = u* + z_E (u* - u)/2, which equals
    u + z (u + u*)/2 at every interior row. Holds the `ImplicitStage` of
    I - z_I/2 (none when z_I = 0: u* = u + z_E u) and the explicit terms of
    z_E (none when z_E = 0: stage 2 then returns u* in exact arithmetic and
    is skipped).
    """

    def __init__(self, scheme: SchemeId, cfg: AdrConfig, d1: DerivativeOperator,
                 d2: DerivativeOperator):
        _check_ops(cfg, d1, d2)
        self.scheme = scheme
        self.cfg = cfg
        ci, ce = z_parts(scheme, cfg.n_c, cfg.pe, cfg.da)
        self.z_e = [(c, op) for c, op in zip(ce, (d1, d2)) if c], ce[2]
        self.explicit = any(ce)
        self.stage = None
        if any(ci):
            self.stage = ImplicitStage(cfg.grid.n_points, 1 - ci[2] / 2,
                                       [(op, c / 2) for c, op in zip(ci, (d1, d2)) if c])

    def _apply_z_e(self, u: np.ndarray) -> np.ndarray:
        terms, reaction = self.z_e
        out = reaction * u
        for c, op in terms:
            out += c * (op @ u)
        return out

    def step(self, state: SolutionState, bc=None) -> SolutionState:
        u = state.values
        bc = _bc_of(u, bc)
        zu = self._apply_z_e(u) if self.explicit else 0.0
        if self.stage is None:
            us = _pin(u + zu, bc)
        else:
            y = 2 * u + zu
            y[0], y[-1] = bc[0] + u[0], bc[1] + u[-1]
            us = _pin(self.stage.solve(y) - u, bc)
        if self.explicit:
            us = _pin(us + 0.5 * self._apply_z_e(us - u), bc)
        return SolutionState(us, state.t + self.cfg.dt)


def make_stepper(scheme: SchemeId, cfg: AdrConfig, ops=None) -> Stepper:
    """Build (and for implicit schemes factor) the stepper for one config."""
    d1, d2 = scheme_operators(scheme, cfg.grid) if ops is None else ops
    return Stepper(scheme, cfg, d1, d2)


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
