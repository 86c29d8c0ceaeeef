"""Wave-packet error-dynamics experiments on the 1D ADR equation.

A Gaussian-modulated cosine packet

    u(x, 0) = exp(-gamma (x - x0)^2) cos(k0 (x - x0)),   x in [-L, L],

is advanced to a target time by one of the four schemes and compared with
the free-space exact solution, which has a closed form: `run_experiment`
reports the final snapshot's relative L2 and max errors against it, or
None where the packet is not negligible at the domain ends (the
free-space assumption, `FREE_SPACE_TOL`) or the exact solution is 0. The
headline diagnostic is the fraction of solution energy that ends up
upstream of the advected packet: spurious waves with negative group
velocity travel against the advection direction and collect there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import FLOAT, SchemeId, spectral, whole_steps, write_csv
from .adr1d import AdrConfig, SolutionState, run, scheme_operators
from .operators import Grid1D

#: width of the upstream-energy window, in e-folding lengths of the
#: diffusion-spread envelope (see q_wave_energy)
Q_WINDOW_EFOLDS = 6.0

#: edge threshold of the free-space assumption (see exact_solution)
FREE_SPACE_TOL = 1e-8


@dataclass(frozen=True)
class WavePacketConfig:
    gamma: float           # packet width parameter, 1/length^2
    x0: float              # packet center
    k0h: float             # central nondimensional wavenumber
    length: float          # half domain length L; domain is [-L, L]
    n_points: int

    def __post_init__(self):
        Grid1D(self.n_points, 1.0)  # the grid's own size check, before h divides by n - 1
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if not abs(self.x0) < self.length < np.inf:
            raise ValueError("|x0| must be < L, and L finite")
        if not 0 < self.k0h < np.pi:
            raise ValueError("k0h must lie in (0, pi)")

    @property
    def h(self) -> float:
        return 2.0 * self.length / (self.n_points - 1)

    @property
    def k0(self) -> float:
        return self.k0h / self.h

    def grid(self) -> Grid1D:
        return Grid1D(self.n_points, self.h, -self.length)


@dataclass(frozen=True)
class ExperimentResult:
    snapshots: list
    spectrum_kh: np.ndarray
    spectrum_amplitude: np.ndarray
    q_wave_energy: float
    amplitude_peak: float
    asymmetry: float
    l2_error: float | None    # relative errors against exact_solution; None
    max_error: float | None   # where it does not hold or is 0 (_exact_errors)


def init_wavepacket(cfg: WavePacketConfig) -> SolutionState:
    x = cfg.grid().x()
    u = np.exp(-cfg.gamma * (x - cfg.x0) ** 2) * np.cos(cfg.k0 * (x - cfg.x0))
    return SolutionState(u, 0.0)


def fourier_spectrum(state: SolutionState):
    """DFT amplitudes |U_m| / n over kh = 2 pi m / n in [0, pi].

    The n//2 + 1 bins of the real transform are m = 0..n//2, so every kh is
    at most pi, and the last one is pi exactly for even n.

    The forward transform carries the 1/n factor, so a pure unit-amplitude
    cosine at a resolved wavenumber shows up with amplitude ~0.5 in its bin.
    """
    u = np.asarray(state.values, dtype=float)
    n = len(u)
    amp = np.abs(np.fft.rfft(u)) / n
    return 2.0 * np.pi * np.arange(len(amp)) / n, amp


def exact_solution(cfg: WavePacketConfig, adr: AdrConfig, t: float) -> SolutionState:
    """Free-space solution in closed form.

    u(x, t) = e^{lambda t} sigma^{-1/2} exp(-(gamma xi^2 + nu k0^2 t) / sigma)
              * cos(k0 xi / sigma),   sigma = 1 + 4 gamma nu t,  xi = x - x0 - c t.

    Valid only while the packet is negligible at the domain ends, to
    `FREE_SPACE_TOL`: ValueError is raised when the initial envelope at the
    nearer end exceeds it, or when an end value at t exceeds it times
    max(peak, 1).
    """
    g, nu = cfg.gamma, adr.nu
    # end values of the initial packet (envelope bound)
    edge0 = np.exp(-g * (cfg.length - abs(cfg.x0)) ** 2)
    if edge0 > FREE_SPACE_TOL:
        raise ValueError("packet too wide for the free-space assumption at t = 0")
    xi = cfg.grid().x() - cfg.x0 - adr.c * t
    sigma = 1.0 + 4.0 * g * nu * t
    u = (np.exp(adr.lam * t) / np.sqrt(sigma)
         * np.exp(-(g * xi**2 + nu * cfg.k0**2 * t) / sigma) * np.cos(cfg.k0 * xi / sigma))
    peak = np.max(np.abs(u))
    if peak > 0 and max(abs(u[0]), abs(u[-1])) > FREE_SPACE_TOL * max(peak, 1.0):
        raise ValueError("packet too wide for the free-space assumption at t")
    return SolutionState(u, t)


def _exact_errors(state: SolutionState, cfg: WavePacketConfig, adr: AdrConfig):
    """(relative L2, relative max) error of the state against `exact_solution`
    at its own time: ||u - u_ex|| / ||u_ex|| in each norm. (None, None) where
    the free-space assumption fails (exact_solution's ValueError) or the
    exact solution is 0."""
    try:
        exact = exact_solution(cfg, adr, state.t).values
    except ValueError:
        return None, None
    scale = np.linalg.norm(exact)
    if not scale > 0:
        return None, None
    err = state.values - exact
    return float(np.linalg.norm(err) / scale), float(np.max(np.abs(err)) / np.max(np.abs(exact)))


def spread_gamma(gamma: float, nu: float, t: float) -> float:
    """Envelope width parameter after diffusing for time t.

    The Gaussian envelope exp(-gamma x^2) evolves under pure diffusion into
    one with parameter gamma / (1 + 4 gamma nu t).
    """
    return gamma / (1.0 + 4.0 * gamma * nu * t)


def _q_window(cfg: WavePacketConfig, adr: AdrConfig, t: float, efolds: float) -> np.ndarray:
    """Mask of the grid nodes upstream of the packet advected to time t:
    x < x0 + c t - efolds / sqrt(gamma_eff(t)), where gamma_eff accounts
    for diffusive spreading of the envelope. Raises ValueError when it
    holds no node."""
    x = cfg.grid().x()
    bound = cfg.x0 + adr.c * t - efolds / np.sqrt(spread_gamma(cfg.gamma, adr.nu, t))
    if not x[0] < bound:
        raise ValueError(f"q-wave window empty: its bound x = {bound:g} is not right of "
                         f"the domain's left end x = {x[0]:g}")
    return x < bound


def q_wave_energy(state: SolutionState, adr: AdrConfig, cfg: WavePacketConfig,
                  efolds: float = Q_WINDOW_EFOLDS) -> float:
    """Fraction of discrete L2 energy upstream of the advected packet, at
    the state's own time t = ``state.t``.

    The window is `_q_window`'s: `efolds` envelope e-folding lengths
    separate the packet body from upstream parasites. The exact solution
    scores below 1e-6 here for any packet narrow enough to satisfy the
    free-space assumption. Raises ValueError at t <= 0, where there is no
    upstream yet, and when the window holds no node.
    """
    if not state.t > 0:
        raise ValueError("q-wave window needs t > 0")
    window = _q_window(cfg, adr, state.t, efolds)
    u = np.asarray(state.values)
    total = float(np.sum(np.abs(u) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(u[window]) ** 2) / total)


def asymmetry_about_center(state: SolutionState, adr: AdrConfig,
                           cfg: WavePacketConfig) -> float:
    """|leading - trailing| energy imbalance, as a fraction of the total,
    about the center x0 + c t advected to the state's own time t =
    ``state.t``."""
    x = cfg.grid().x()
    center = cfg.x0 + adr.c * state.t
    u = np.asarray(state.values)
    total = float(np.sum(np.abs(u) ** 2))
    if total == 0.0:
        return 0.0
    lead = float(np.sum(np.abs(u[x > center]) ** 2))
    trail = float(np.sum(np.abs(u[x < center]) ** 2))
    return abs(lead - trail) / total


def run_experiment(scheme: SchemeId, cfg: WavePacketConfig, adr: AdrConfig,
                   t_end: float, snapshot_times=(),
                   efolds: float = Q_WINDOW_EFOLDS, ops=None) -> ExperimentResult:
    """Advance the packet (with operator pair `ops`, built when not given)
    and collect the error-dynamics diagnostics.

    Refuses with ValueError before the first step: when the grids of `cfg`
    and `adr` disagree, when t_end is not a whole number of steps
    (`adrlab.whole_steps`), when the q-wave window (`_q_window`) at the
    final time t > 0 holds no node, and (`adr1d.run`) when a snapshot time
    is not finite or lies outside the run.
    """
    grid = cfg.grid()
    if (adr.grid.n_points != grid.n_points or abs(adr.grid.h - grid.h) > 1e-12 * grid.h
            or abs(adr.grid.x_start - grid.x_start) > 1e-12):
        raise ValueError("wave-packet grid and ADR grid disagree")
    t_final = whole_steps(t_end, adr.dt) * adr.dt  # the time the final state carries
    if t_final > 0:
        _q_window(cfg, adr, t_final, efolds)
    snaps = run(scheme, adr, init_wavepacket(cfg), t_end, snapshot_times, ops)
    final = snaps[-1]
    kh, amp = fourier_spectrum(final)
    q = q_wave_energy(final, adr, cfg, efolds) if final.t > 0 else 0.0
    l2_error, max_error = _exact_errors(final, cfg, adr)
    return ExperimentResult(
        snapshots=snaps,
        spectrum_kh=kh,
        spectrum_amplitude=amp,
        q_wave_energy=q,
        amplitude_peak=float(np.max(np.abs(final.values))),
        asymmetry=asymmetry_about_center(final, adr, cfg),
        l2_error=l2_error,
        max_error=max_error,
    )


def point_diagnostics(scheme: SchemeId, cfg: WavePacketConfig, adr: AdrConfig, ops=None):
    """(G ratio, V_g ratio, phase error) at the packet's central wavenumber
    k0h and the run's N_c, at the grid's middle node, from the scheme's
    operator pair `ops` (built when not given): the one entry of a 1 x 1
    `spectral.sweep`, so V_g is the exact -Im(G'/G)/N_c."""
    if ops is None:
        ops = scheme_operators(scheme, cfg.grid())
    m = spectral.sweep(scheme, [cfg.k0h], [adr.n_c], adr.pe, adr.da, (cfg.n_points + 1) // 2, ops)
    return m.g_ratio.item(), m.vg_ratio.item(), m.phase_err.item()


def snapshot_filename(scheme: SchemeId, cfg: WavePacketConfig, t: float) -> str:
    return f"{scheme.value}_{FLOAT % cfg.gamma}_{cfg.n_points}_{FLOAT % t}.csv"


def write_snapshot_csv(state: SolutionState, cfg: WavePacketConfig, path) -> None:
    """Rows x, u of the state on the packet grid through `adrlab.write_csv`."""
    write_csv(path, "x,u", cfg.grid().x(), state.values)


def write_spectrum_csv(kh: np.ndarray, amp: np.ndarray, path) -> None:
    """Rows kh, amplitude through `adrlab.write_csv`."""
    write_csv(path, "kh,amplitude", kh, amp)
