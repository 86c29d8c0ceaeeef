"""Amplification factors, phase-speed error and scaled group velocity.

Everything here is nondimensional: wavenumber enters as kh in [0, pi]
(Nyquist bound), time stepping through N_c = c dt/h, Pe = nu dt/h^2 and
Da = lambda dt, and time itself in units of dt. The per-mode exact
amplification of the PDE over one step is

    G_exact = exp(-(Pe (kh)^2 + i N_c kh - Da)),

and every scheme's G_num is the symbol of the two-stage update of adr1d,
computed by the same function, `adr1d.two_stage`. With the operator row
symbols S_n(kh) = sum_r D_n[j, r] e^{i kh (r - j)} at an interior node j,
z = -N_c S1 + Pe S2 + Da splits into the scheme's implicit and explicit
parts z_I + z_E (adr1d.SCHEMES), and from u = 1

    g* = (2 + z_E) / (1 - z_I/2) - 1             (stage 1)
    G  = g* + z_E (g* - 1)/2                     (stage 2)

which equals 1 + z (1 + g*)/2 with g* = (1 + z_I/2 + z_E) / (1 - z_I/2).

Derived diagnostics:

    beta     = -atan2(Im G, Re G)                       (numerical phase shift)
    c-ratio  = -(1/N_c) (ln|G| - i beta) / ((Pe (kh)^2 - Da)/N_c + i kh)
    phase error = |1 - c-ratio|
    V_g ratio   = (1/N_c) d beta / d(kh) = -Im(G'/G) / N_c

all of which are exactly 1/0 when G_num = G_exact (within the principal
branch of beta). G' = dG/d(kh) is exact: `two_stage` runs on pairs
(value, kh-slope), starting from (1, 0), whose products with z_E and with
1/(1 - z_I/2) follow the product rule, with the symbols' slopes
dS_n/d(kh) = sum_r i (r - j) D_n[j, r] e^{i kh (r - j)} read from the
same forward solve as S_n (`operators.row_symbols`), so V_g has no
difference step and no branch of beta to unwrap. The kh = 0 column of a
map holds the scheme's own values there, which are its kh -> 0 limits:
the phase error is finite at kh = 0 when Da != 0 (the same formula as at
kh > 0, as in `phase_speed_error`), and is stored as its limit 0 when
Da = 0, where the exact phase speed is singular.

Evaluation works on arrays. The symbols depend on kh only, so a (kh, N_c)
map evaluates S1, S2 and their slopes once per kh and broadcasts G over
the N_c axis; a map holds each diagnostic as one (N_c, kh) array. The
point functions (g_num, dispersion_point, group_velocity_ratio,
max_ratio_over_kh, ...) are the same evaluation at the given samples, so a
map entry equals the point function at that sample bit for bit wherever
the BLAS matrix product sums a column of the symbols' mode table alike
whatever the number of columns (OpenBLAS does; the tests check it). All
evaluations are pure, and maps are emitted in a deterministic row-major
order. A sample whose G ratio, V_g or phase error is not finite raises
`NonFiniteSampleError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import FLOAT, NumericalError, SchemeId, write_csv
from .adr1d import two_stage, z_parts
from .operators import row_symbols

#: slack on |G_num/G_exact| <= 1 in stability scans; absorbs the O(Da^3)
#: excess of the explicit reaction factor over exp(Da) at kh -> 0
STABILITY_TOL = 1e-6


class NonFiniteSampleError(NumericalError):
    """A (kh, N_c) sample whose G ratio, V_g ratio or phase error is not
    finite (a pole of the scheme's G, or an overflow); the message names it."""


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


@dataclass(frozen=True)
class DispersionPoint:
    kh: float
    nc: float
    g_num: complex
    g_ratio: float
    beta: float
    vg_ratio: float
    phase_err: float


@dataclass(frozen=True, eq=False)
class DispersionMap:
    """The diagnostics of `DispersionPoint` over the grid nc x kh: each of
    g_num .. phase_err has shape (len(nc_axis), len(kh_axis)); n_points is
    the size of the operators the map was evaluated with."""

    kh_axis: np.ndarray
    nc_axis: np.ndarray
    g_num: np.ndarray
    g_ratio: np.ndarray
    beta: np.ndarray
    vg_ratio: np.ndarray
    phase_err: np.ndarray
    scheme: SchemeId
    pe: float
    da: float
    node: int
    n_points: int


def _g_exact(kh, nc, pe, da):
    return np.exp(-(pe * kh**2 + 1j * nc * kh - da))


def g_exact(p: SpectralParams) -> complex:
    return complex(_g_exact(p.kh, p.nc, p.pe, p.da))


def _grid(values, shape) -> np.ndarray:
    # a contiguous copy over the whole grid: every sample then takes the same
    # arithmetic path, whatever the size of the grid it is evaluated in
    return np.broadcast_to(values, shape).copy()


def _symbols(ops, node: int, kh) -> tuple:
    """((S1, dS1/dkh), (S2, dS2/dkh)): row symbols at 1-based interior
    `node` and their slopes, one per kh, each of shape (K,). S is 0 at
    kh = 0, where a derivative's row sums vanish; the forward solve leaves
    a rounding residue there (up to 3e-16) that would move G's exact zero
    at Da = -2 off 0."""
    if not 1 < node < ops[0].n_points:
        raise ValueError(f"node must be interior (1-based): 1 < {node} < {ops[0].n_points}")
    zero = np.atleast_1d(kh) == 0
    return [(np.where(zero, 0, s), ds) for s, ds in row_symbols(ops, node - 1, kh)]


def _times(a, da):
    """Product with the pair (a, da) of stacked (value, kh-slope) pairs u:
    (a u_0, a u_1 + da u_0), the product rule."""
    return lambda u: np.stack([a * u[0], a * u[1] + da * u[0]])


def _g(scheme: SchemeId, symbols, nc, pe: float, da: float) -> tuple:
    """Template G and G' = dG/d(kh) over the grid nc x kh from `_symbols`
    over kh, each of shape (len(nc), K): `adr1d.two_stage` on the pair
    (1, 0), with z_E u the product with (z_E, dz_E) and the solve with
    s = 1 - z_I/2 the product with (1/s, dz_I/(2 s^2)), where

        z_I + z_E = z = -N_c S1 + Pe S2 + Da     (split as in adr1d.SCHEMES)

    so each stage carries G's kh-slope along with its value.
    """
    nc = np.atleast_1d(np.asarray(nc, dtype=float))
    shape = (len(nc), len(symbols[0][0]))
    (s1, ds1), (s2, ds2) = ((_grid(s, shape), _grid(ds, shape)) for s, ds in symbols)
    (z_i, dz_i), (z_e, dz_e) = (
        (a1 * s1 + a2 * s2 + a0, a1 * ds1 + a2 * ds2)
        for a1, a2, a0 in z_parts(scheme, _grid(nc[:, None], shape), pe, da))
    s = 1 - 0.5 * z_i
    return tuple(two_stage(np.stack([np.ones(shape), np.zeros(shape)]), _times(z_e, dz_e),
                           _times(1 / s, 0.5 * dz_i / s**2)))


def g_num(scheme: SchemeId, p: SpectralParams, ops) -> complex:
    """One-step amplification factor of the scheme at row `node`."""
    g, _ = _g(scheme, _symbols(ops, p.node, p.kh), p.nc, p.pe, p.da)
    return complex(g[0, 0])


def phase_shift(g):
    """beta = -atan2(Im G, Re G), branch-correct, in (-pi, pi]; elementwise."""
    g = np.asarray(g)
    if np.any(g == 0):
        raise ValueError("phase shift undefined for G = 0")
    beta = -np.arctan2(g.imag, g.real)
    beta = np.where(beta <= -np.pi, np.pi, beta)
    return float(beta) if beta.ndim == 0 else beta


def _c_ratio(kh, nc, pe, da, g):
    """c_num/c_exact from the modulus and phase of G; at kh = 0 it is
    (ln|G| - i beta)/Da, singular when Da = 0 too."""
    num = np.log(abs(g)) - 1j * phase_shift(g)
    den = (pe * kh**2 - da) / nc + 1j * kh
    return -(1.0 / nc) * num / den


def phase_speed_error(p: SpectralParams, g: complex) -> float:
    """|1 - c_num/c_exact| from the modulus and phase of G, bit for bit a
    map entry's: `_c_ratio` on arrays, kh = 0 included (NumPy's scalar
    complex arithmetic rounds differently in the last bit).

    At kh = 0 the expression reduces to |1 - (ln|G| - i beta)/Da|, finite
    whenever Da != 0; with Da = 0 as well the exact phase speed is singular
    there.
    """
    if p.kh == 0.0 and p.da == 0.0:
        raise ValueError("phase speed error singular at kh = 0 with Da = 0")
    return np.abs(1 - _c_ratio(*np.atleast_1d(p.kh, p.nc), p.pe, p.da, np.atleast_1d(g))).item()


def group_velocity_ratio(scheme: SchemeId, p: SpectralParams, ops) -> float:
    """Scaled group velocity -Im(G'/G)/N_c of a scheme at one (kh, N_c) sample."""
    return dispersion_point(scheme, p, ops).vg_ratio


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
    bracket = 1 - _c_ratio(p.kh, p.nc, p.pe, p.da, g)
    coeff = 1j * p.nc * p.kh + p.pe * p.kh**2 - p.da
    return complex(amp * coeff * bracket * g**t)


def error_forcing_spectrum(scheme: SchemeId, p: SpectralParams, a0, t: float,
                           ops) -> complex:
    """error_forcing_value evaluated with the scheme's own G_num."""
    return error_forcing_value(p, a0, t, g_num(scheme, p, ops))


def _map(scheme: SchemeId, kh_axis, nc_axis, pe: float, da: float,
         node: int, ops) -> DispersionMap:
    """The DispersionMap over the grid nc x kh (nc outer, kh inner).

    Every sample, kh = 0 included, takes the same formulas; only the phase
    error at kh = 0 with Da = 0, where the exact phase speed is singular,
    is stored as its limit 0. Raises NonFiniteSampleError, naming the first
    sample in row-major order, when a G ratio, V_g or phase error is not
    finite.
    """
    kh_axis = np.asarray(kh_axis, dtype=float)
    nc_axis = np.asarray(nc_axis, dtype=float)
    shape = (len(nc_axis), len(kh_axis))
    kh, nc = _grid(kh_axis, shape), _grid(nc_axis[:, None], shape)
    with np.errstate(all="ignore"):  # non-finite samples raise below
        g, dg = _g(scheme, _symbols(ops, node, kh_axis), nc_axis, pe, da)
        ratio = np.abs(g / _g_exact(kh, nc, pe, da))
        vg = -(dg / g).imag / nc
        phased = np.where(g == 0, np.nan, g)  # G = 0 has no phase
        beta = phase_shift(phased)
        perr = np.where((kh == 0.0) & (da == 0.0), 0.0,
                        np.abs(1 - _c_ratio(kh, nc, pe, da, phased)))
    bad = ~(np.isfinite(ratio) & np.isfinite(vg) & np.isfinite(perr))
    if bad.any():
        first = np.argmax(bad)
        raise NonFiniteSampleError(f"non-finite G ratio, V_g or phase error at "
                                   f"kh = {kh.flat[first]:.12g}, N_c = {nc.flat[first]:.12g}")
    return DispersionMap(kh_axis, nc_axis, g, ratio, beta, vg, perr, scheme, pe, da,
                         node, ops[0].n_points)


def dispersion_point(scheme: SchemeId, p: SpectralParams, ops) -> DispersionPoint:
    """All diagnostics at one (kh, N_c) sample: the map of a 1 x 1 grid."""
    m = _map(scheme, [p.kh], [p.nc], p.pe, p.da, p.node, ops)
    return DispersionPoint(*(a.item(0) for a in (m.kh_axis, m.nc_axis, m.g_num, m.g_ratio,
                                                  m.beta, m.vg_ratio, m.phase_err)))


def sweep(scheme: SchemeId, kh_axis, nc_axis, pe: float, da: float,
          node: int, ops) -> DispersionMap:
    """Rectangular (kh, N_c) DispersionMap; raises NonFiniteSampleError
    when a sample is not finite (`_map`)."""
    kh_axis = np.asarray(kh_axis, dtype=float)
    nc_axis = np.asarray(nc_axis, dtype=float)
    if np.any(np.diff(kh_axis) <= 0) or np.any(np.diff(nc_axis) < 0):
        raise ValueError("axes must be monotone")
    return _map(scheme, kh_axis, nc_axis, pe, da, node, ops)


def _max_ratio(scheme: SchemeId, symbols, kh, nc: float, pe: float, da: float) -> float:
    g, _ = _g(scheme, symbols, nc, pe, da)
    return float(np.max(np.abs(g / _g_exact(kh, nc, pe, da)), initial=0.0))


def max_ratio_over_kh(scheme: SchemeId, kh_axis, nc: float, pe: float, da: float,
                      node: int, ops) -> float:
    kh = np.asarray(kh_axis, dtype=float)
    return _max_ratio(scheme, _symbols(ops, node, kh), kh, nc, pe, da)


def sampled_stability_boundary(dmap: DispersionMap):
    """Largest N_c of the map's own axis whose whole kh row has
    |G_num/G_exact| <= 1 + STABILITY_TOL, or None when no row does.

    The two stability boundaries differ in how they search N_c. This one
    reads a computed map, on the map's kh axis: it returns a sample of the
    N_c axis, so it is only as fine as that axis, and it is the largest
    stable sample even when a smaller one is unstable. `stability_boundary`
    bisects N_c upward from a stable nc_start, on its own kh axis, to the
    bisection's resolution, and so assumes that the stable N_c above
    nc_start form one interval.
    """
    stable = dmap.nc_axis[np.all(dmap.g_ratio <= 1 + STABILITY_TOL, axis=1)]
    return float(stable.max()) if len(stable) else None


def stability_boundary(scheme: SchemeId, ops, pe: float, da: float,
                       node: int = 500, kh_axis=None, nc_start: float = 0.5, nc_max: float = 3.2,
                       iters: int = 40) -> float:
    """Largest N_c with |G_num/G_exact| <= 1 + STABILITY_TOL across the kh
    axis, bisected (see `sampled_stability_boundary` for how the two
    differ); the slack is the module's one constant, so this boundary and
    the sampled one judge a ratio alike.

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


def write_map_csv(dmap: DispersionMap, path) -> None:
    """Map CSV through `adrlab.write_csv`: one comment header, then
    kh,nc,g_ratio,vg_ratio,phase_err rows (nc outer, kh inner)."""
    write_csv(path, f"# scheme={dmap.scheme.value},pe={FLOAT % dmap.pe},da={FLOAT % dmap.da},"
                    f"node={dmap.node},n_points={dmap.n_points}\n"
                    "kh,nc,g_ratio,vg_ratio,phase_err",
              dmap.kh_axis[None, :], dmap.nc_axis[:, None],
              dmap.g_ratio, dmap.vg_ratio, dmap.phase_err)
