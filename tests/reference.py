"""Test-only references: stencil expansion and transposes, dense operators,
LAPACK banded solves, the raw NCCD system, the residual contract, and CSV
text formatted one value at a time.

The program solves in NumPy alone (`adrlab.linalg`); these helpers are
what its solvers and operators are checked against. They use SciPy, which
only the tests need.

Below them sit single-sample and analytic references that no command
runs, each the same evaluation the program's own path makes:

* `SpectralParams`, one (kh, N_c, Pe, Da, node) sample, moved here from
  `adrlab.spectral` when its one-sample path was folded into the map:
  `spectral.sweep` is the program's one evaluation, and `sweep_at` is its
  1 x 1 map at one sample;
* `g_exact` and `g_num`, the exact and the scheme's amplification factor
  at one `SpectralParams` sample (complex scalars; the maps hold the same
  values as arrays);
* `stability_boundary` (with `_max_ratio`), the N_c boundary bisected to
  its resolution against `spectral.STABILITY_TOL`, the check on
  `spectral.sampled_stability_boundary`, which reads one off a map;
* `error_forcing_value`, the forcing integrand of the error-propagation
  equation at one kh, with `packet_amplitude` and `amplitude_of_kh`, the
  packet's analytic Fourier amplitude, as its A0;
* `build_cd2_first`, the second-order central first derivative, an
  operator with a known order for the operator suite.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from adrlab import SchemeId
from adrlab.linalg import LinearSolveError, StencilMatrix
from adrlab.operators import (BandedSystem, DerivativeOperator, Grid1D, _explicit, build_nccd,
                              nccd_system)
from adrlab.spectral import (STABILITY_TOL, DispersionMap, _c_ratio, _g, _g_exact, _symbols,
                             phase_shift, sweep)
from adrlab.wavepacket import WavePacketConfig


def sparse(m: StencilMatrix) -> scipy.sparse.csr_array:
    """A stencil matrix entry by entry: weight k of row i at column
    i // per_node + k - lower, the weights outside the columns left out."""
    width, rows = m.weights.shape
    i = np.tile(np.arange(rows), width)
    c = i // m.per_node + np.repeat(np.arange(width), rows) - m.lower
    ok = (c >= 0) & (c < m.shape[1])
    return scipy.sparse.csr_array((m.weights.ravel()[ok], (i[ok], c[ok])), shape=m.shape)


def dense(m) -> np.ndarray:
    """m as an ndarray: a stencil matrix expanded (`sparse`), a derivative
    operator as the LAPACK solve of its system (`solve_banded`, B expanded)
    with its patched rows written in."""
    if isinstance(m, StencilMatrix):
        return sparse(m).toarray()
    if isinstance(m, DerivativeOperator):
        d = solve_banded(m.system.lhs, m.system.rhs)[m.part::m.system.per_node]
        for row, first, w in m.patch:
            d[row] = 0.0
            d[row, first:first + len(w)] = w
        return d
    return np.asarray(m)


def from_dense(a, lower: int, upper: int) -> StencilMatrix:
    """The band of a square ndarray or SciPy sparse matrix as a square
    `StencilMatrix`, 0 at the weights outside the matrix."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    weights = np.zeros((lower + upper + 1, n), dtype=a.dtype)
    for d in range(-lower, upper + 1):
        diag = a.diagonal(d)  # a[i, i + d], from row max(-d, 0)
        weights[lower + d, max(-d, 0):max(-d, 0) + len(diag)] = diag
    return StencilMatrix(weights, lower)


def transpose(a: StencilMatrix) -> StencilMatrix:
    """The transpose of a square stencil matrix: lower and upper swap."""
    return from_dense(sparse(a).T, a.upper, a.lower)


def lapack_bands(a: StencilMatrix) -> np.ndarray:
    """A square `StencilMatrix` in the LAPACK band layout: entry (i, j) at
    ``bands[upper + i - j, j]``; weights outside the matrix are dropped."""
    n = a.shape[0]
    bands = np.zeros((a.lower + a.upper + 1, n))
    for k in range(a.lower + a.upper + 1):
        d = k - a.lower  # column offset j - i of this stencil entry
        i = np.arange(max(0, -d), min(n, n - d))
        bands[a.upper - d, i + d] = a.weights[k, i]
    return bands


def solve_banded(a: StencilMatrix, b) -> np.ndarray:
    """Solve a x = b for a square `StencilMatrix` a and one or many
    right-hand sides (LAPACK gbsv).

    Raises LinearSolveError on a singular pivot or a non-finite result. A
    stencil b is expanded first.
    """
    b = dense(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = scipy.linalg.solve_banded((a.lower, a.upper), lapack_bands(a), b)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular banded system)")
    return x


def residual_inf(a, x, b) -> float:
    """||a x - b||_inf, for asserting the solve contract (b may be a stencil matrix)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("dense matrix expected")
    return float(np.max(np.abs(a @ x - dense(b))))


def residual_bound(a, x, b, tol: float = 1e-10) -> float:
    """Right-hand side of the residual contract for given operands."""
    na = float(np.max(np.sum(np.abs(a), axis=1)))
    nx = float(np.max(np.abs(x)))
    nb = float(np.max(np.abs(dense(b))))
    return tol * (na * nx + nb)


def mirror_folded(m: np.ndarray) -> np.ndarray:
    """An operator on n + 2 nodes as the n x n operator it is on the
    mirror-padded line (u_1, u_1..u_n, u_n): ghost rows dropped, ghost
    columns folded into the boundary columns."""
    m = m[1:-1].copy()
    m[:, 1] += m[:, 0]
    m[:, -2] += m[:, -1]
    return m[:, 1:-1]


def nccd_line_operators(n: int):
    """Dense dimensionless D1 and D2 of the NCCD scheme along a line of n
    cells with zero-Neumann walls: `build_nccd` on n + 2 nodes, folded."""
    return [mirror_folded(dense(op)) for op in build_nccd(Grid1D(n + 2, 1.0))]


def nccd_raw(grid):
    """D1 and D2 of `nccd_system` without `build_nccd`'s boundary patches:
    the raw solution of the interleaved system."""
    system = BandedSystem(*nccd_system(grid))
    return (DerivativeOperator(1, 1.0 / grid.h, system, 0),
            DerivativeOperator(2, 1.0 / grid.h**2, system, 1))


def nccd_blocks(grid):
    """Dense blocks (A1, B1, C1, A2, B2, C2) of `nccd_system`: the scheme
    as A1 v + B1 w = C1 u and A2 v + B2 w = C2 u."""
    a, c = (dense(m) for m in nccd_system(grid))
    return a[0::2, 0::2], a[0::2, 1::2], c[0::2], a[1::2, 0::2], a[1::2, 1::2], c[1::2]


@dataclass(frozen=True)
class SpectralParams:
    kh: float
    nc: float
    pe: float
    da: float
    node: int = 500          # 1-based interior node index of the operators

    def __post_init__(self):
        if not 0.0 <= self.kh <= np.pi + 1e-12:
            raise ValueError("kh must lie in [0, pi]")


def sweep_at(scheme: SchemeId, p: SpectralParams, ops) -> DispersionMap:
    """The 1 x 1 `spectral.sweep` at one sample: each diagnostic's `.item()`
    is its value there."""
    return sweep(scheme, [p.kh], [p.nc], p.pe, p.da, p.node, ops)


def g_exact(p: SpectralParams) -> complex:
    return complex(_g_exact(p.kh, p.nc, p.pe, p.da))


def g_num(scheme: SchemeId, p: SpectralParams, ops) -> complex:
    """One-step amplification factor of the scheme at row `node`."""
    g, _ = _g(scheme, _symbols(ops, p.node, p.kh), p.nc, p.pe, p.da)
    return complex(g[0, 0])


def error_forcing_value(p: SpectralParams, a0, t: float, g: complex) -> complex:
    """Forcing integrand of the error-propagation equation at one kh.

    Returns, in units of 1/dt,

        A0(kh) (i N_c kh + Pe (kh)^2 - Da) [1 - c_num/c_exact] G^t

    with t counted in steps (time in units of dt). The bracket vanishes
    identically when G = G_exact, which is the classical von Neumann limit;
    the principal-branch beta makes that exact only while N_c * kh <= pi.
    """
    amp = a0(p.kh)
    if amp == 0:
        return 0.0 + 0.0j
    if abs(g) == 0.0:
        raise ValueError("forcing undefined for G = 0")
    bracket = 1 - _c_ratio(p.kh, p.nc, p.pe, p.da, g, phase_shift(g))
    coeff = 1j * p.nc * p.kh + p.pe * p.kh**2 - p.da
    return complex(amp * coeff * bracket * g**t)


def _max_ratio(scheme: SchemeId, symbols, kh, nc: float, pe: float, da: float) -> float:
    g, _ = _g(scheme, symbols, nc, pe, da)
    return float(np.max(np.abs(g / _g_exact(kh, nc, pe, da)), initial=0.0))


def stability_boundary(scheme: SchemeId, ops, pe: float, da: float,
                       node: int = 500, kh_axis=None, nc_start: float = 0.5, nc_max: float = 3.2,
                       iters: int = 40) -> float:
    """Largest N_c with |G_num/G_exact| <= 1 + STABILITY_TOL across the kh
    axis, bisected; the slack is `spectral.STABILITY_TOL`, so this boundary
    and `spectral.sampled_stability_boundary` judge a ratio alike. They
    differ in how they search N_c: the sampled one reads a computed map and
    returns the largest stable sample of its N_c axis, while this one
    bisects N_c on its own kh axis to the bisection's resolution, and so
    assumes that the stable N_c above nc_start form one interval.

    Bisected upward from nc_start (which must itself be stable). Returns
    nc_max when the whole search range is stable; very small N_c can be
    ratio-unstable at high kh (numerical diffusion weaker than exact), so
    the scan deliberately starts at an intermediate CFL. The row symbols
    are evaluated once, before the bisection.
    """
    kh = np.linspace(0.0, np.pi, 64)[1:] if kh_axis is None else np.asarray(kh_axis, float)
    symbols = _symbols(ops, node, kh)

    def stable(nc: float) -> bool:
        return _max_ratio(scheme, symbols, kh, nc, pe, da) <= 1 + STABILITY_TOL

    if not stable(nc_start):
        raise ValueError(f"N_c = {nc_start} is not ratio-stable; no bracket")
    if stable(nc_max):
        return nc_max
    lo, hi = nc_start, nc_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_cd2_first(grid: Grid1D) -> DerivativeOperator:
    """Second-order central first derivative; one-sided rows at the ends."""
    return _explicit(1, grid, (-0.5, 0.0, 0.5), (-1.5, 2.0, -0.5), (0.5, -2.0, 1.5))


def packet_amplitude(cfg: WavePacketConfig):
    """Analytic Fourier amplitude A0(k) of the initial packet.

    With u(x) = int A0(k) e^{ikx} dk,

        A0(k) = e^{-i k x0} / (4 sqrt(pi gamma))
                * [exp(-(k-k0)^2/(4 gamma)) + exp(-(k+k0)^2/(4 gamma))].
    """
    g, k0, x0 = cfg.gamma, cfg.k0, cfg.x0
    norm = 1.0 / (4.0 * np.sqrt(np.pi * g))

    def a0(k):
        env = np.exp(-((k - k0) ** 2) / (4 * g)) + np.exp(-((k + k0) ** 2) / (4 * g))
        phase = np.exp(-1j * k * x0) if x0 != 0.0 else 1.0
        return norm * env * phase

    return a0


def amplitude_of_kh(cfg: WavePacketConfig):
    """packet_amplitude reparametrized by kh, for the spectral forcing API."""
    a0 = packet_amplitude(cfg)
    h = cfg.h
    return lambda kh: a0(kh / h)

#: floats whose text is easy to get wrong: nan, the infinities, the signed
#: zeros, the least subnormal and the extremes of the normal range
AWKWARD = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300)


def awkward_floats(rng, n: int) -> np.ndarray:
    """n floats of mixed sign and magnitude with each of `AWKWARD` among them."""
    u = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    u[rng.choice(n, len(AWKWARD), replace=False)] = AWKWARD
    return u


def csv_by_value(header: str, rows) -> bytes:
    """The CSV text of `rows`, each value formatted alone with 12 significant
    digits, below the line(s) `header`."""
    return (header + "\n" + "".join(",".join(f"{v:.12g}" for v in row) + "\n"
                                    for row in rows)).encode()
