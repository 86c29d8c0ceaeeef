import numpy as np
import pytest
from reference import amplitude_of_kh, awkward_floats, csv_by_value

from adrlab import CHUNK_ROWS, write_csv
from adrlab.adr1d import AdrConfig, SchemeId, SolutionState
from adrlab.wavepacket import (
    WavePacketConfig,
    asymmetry_about_center,
    exact_solution,
    fourier_spectrum,
    init_wavepacket,
    point_diagnostics,
    q_wave_energy,
    run_experiment,
    snapshot_filename,
    spread_gamma,
    write_snapshot_csv,
    write_spectrum_csv,
)

# the standing experiment block: c, nu, lambda, dt and domain used throughout
C, NU, LAM, DT, L, K0H = 0.1, 1e-4, -1.0, 0.01, 5.0, 0.5


def cfg_of(gamma, n=1001, x0=0.0):
    return WavePacketConfig(gamma, x0, K0H, L, n)


def adr_of(cfg, nu=NU, lam=LAM):
    return AdrConfig(C, nu, lam, DT, cfg.grid())


def test_init_center_value_is_one():
    cfg = cfg_of(50.0)
    u = init_wavepacket(cfg).values
    assert u[500] == 1.0


def test_init_gaussian_decay_at_unit_distance():
    cfg = cfg_of(50.0)
    u = init_wavepacket(cfg).values
    x = cfg.grid().x()
    i = np.argmin(np.abs(x - 1.0))
    want = np.exp(-50.0) * np.cos(cfg.k0 * 1.0)
    assert abs(u[i] - want) < 1e-18


def test_init_narrow_packet_efolding_scale():
    cfg = cfg_of(1e4)
    u = init_wavepacket(cfg).values
    # one envelope e-folding at |x - x0| = 1/sqrt(gamma) = 0.01 (one cell)
    want = np.exp(-1.0) * np.cos(cfg.k0 * 0.01)
    assert abs(u[501] - want) < 1e-12


def test_spectrum_constant_field():
    cfg = cfg_of(50.0, n=128)
    kh, amp = fourier_spectrum(SolutionState(np.ones(128), 0.0))
    assert kh[0] == 0.0
    assert abs(amp[0] - 1.0) < 1e-12
    assert np.max(amp[1:]) < 1e-12


def test_spectrum_single_cosine_bin():
    n = 128
    m = 16
    u = np.cos(2 * np.pi * m * np.arange(n) / n)
    kh, amp = fourier_spectrum(SolutionState(u, 0.0))
    assert np.argmax(amp) == m
    assert abs(amp[m] - 0.5) < 1e-12
    others = np.delete(amp, m)
    assert np.max(others) < 1e-12


@pytest.mark.parametrize("n", [127, 128])
def test_spectrum_has_every_bin_of_the_real_transform(n):
    # bins m = 0..n//2 all lie in [0, pi]; for even n the last is pi exactly
    u = np.random.default_rng(n).standard_normal(n)
    kh, amp = fourier_spectrum(SolutionState(u, 0.0))
    assert len(kh) == len(amp) == n // 2 + 1
    assert kh[-1] <= np.pi
    if n % 2 == 0:
        assert kh[-1] == np.pi


def test_spectrum_band_energy_contrast():
    # the outstretched packet excites the 1.0 < kh <= 2.67 band, the compact
    # one does not
    def band_energy(gamma):
        state = init_wavepacket(cfg_of(gamma))
        kh, amp = fourier_spectrum(state)
        band = (kh > 1.0) & (kh <= 2.67)
        return np.sum(amp[band] ** 2) / np.sum(amp**2)

    assert band_energy(1e4) > 10.0 * band_energy(50.0)


def test_amplitude_matches_dft():
    # analytic transform and the grid DFT agree on resolved wavenumbers
    cfg = cfg_of(1e4)
    state = init_wavepacket(cfg)
    kh, amp = fourier_spectrum(state)
    a0 = amplitude_of_kh(cfg)
    # continuum amplitude density -> bin amplitude: dk = 2 pi / (n h)
    dk = 2 * np.pi / (cfg.n_points * cfg.h)
    for m in (40, 80, 150):
        want = abs(a0(kh[m])) * dk
        assert abs(amp[m] - want) / want < 5e-3


def test_exact_solution_inverts_initial_condition():
    cfg = cfg_of(50.0, n=201)
    adr = adr_of(cfg)
    u0 = init_wavepacket(cfg).values
    ue = exact_solution(cfg, adr, 0.0).values
    assert np.max(np.abs(ue - u0)) < 1e-8


def test_exact_solution_pure_advection_translates():
    cfg = cfg_of(50.0, n=1001)
    adr = adr_of(cfg, nu=1e-30, lam=0.0)
    t = 1.0  # shift of c t = 0.1 = 10 cells, exactly on-grid
    ue = exact_solution(cfg, adr, t).values
    u0 = init_wavepacket(cfg).values
    assert np.max(np.abs(ue[10:] - u0[:-10])) < 1e-7


def fourier_reference(cfg, adr, t, dk=0.1, k_max=400.0):
    """e^{lam t} 2 int_0^inf A0c(k) e^{-nu k^2 t} cos(k xi) dk by the composite
    trapezoid rule. The integrand is even in k, so this is the full-line
    trapezoid rule: spectrally accurate, its error being the solution's
    aliases at xi +- 2 pi m / dk (here > 60 length units away)."""
    g, k0 = cfg.gamma, cfg.k0
    k = np.arange(0.0, k_max + dk / 2, dk)
    a0c = (np.exp(-((k - k0) ** 2) / (4 * g)) + np.exp(-((k + k0) ** 2) / (4 * g))) \
        / (4 * np.sqrt(np.pi * g))
    w = np.full(k.size, dk)
    w[0] = w[-1] = dk / 2
    weights = 2.0 * w * a0c * np.exp(-adr.nu * k**2 * t)
    xi = cfg.grid().x() - cfg.x0 - adr.c * t
    return np.exp(adr.lam * t) * (np.cos(np.outer(xi, k)) @ weights)


def test_exact_solution_closed_form_oracle():
    # the closed form against an independent Fourier-integral reference
    t = 10.0
    for gamma in (50.0, 1e4):
        cfg = cfg_of(gamma)
        adr = adr_of(cfg)
        ue = exact_solution(cfg, adr, t).values
        assert np.max(np.abs(ue - fourier_reference(cfg, adr, t))) < 1e-10
    # reaction scales the packet by e^{lam t} relative to the lam = 0 run
    cfg = cfg_of(50.0)
    ue = exact_solution(cfg, adr_of(cfg), t).values
    ue0 = exact_solution(cfg, adr_of(cfg, lam=0.0), t).values
    assert abs(np.max(np.abs(ue)) / np.max(np.abs(ue0)) - np.exp(LAM * t)) < 1e-6


def test_exact_solution_rejects_wide_packet():
    cfg = WavePacketConfig(0.1, 0.0, K0H, L, 101)
    with pytest.raises(ValueError):
        exact_solution(cfg, adr_of(cfg), 1.0)


def test_spread_gamma():
    assert spread_gamma(100.0, 0.0, 5.0) == 100.0
    assert abs(spread_gamma(1e4, 1e-4, 10.0) - 1e4 / 41.0) < 1e-9


@pytest.mark.parametrize("gamma", [50.0, 1e4])
def test_q_window_scores_exact_solution_as_clean(gamma):
    cfg = cfg_of(gamma)
    adr = adr_of(cfg)
    state = exact_solution(cfg, adr, 10.0)
    assert q_wave_energy(state, adr, cfg) < 1e-6


def test_q_window_empty_raises():
    cfg = cfg_of(50.0)
    adr = adr_of(cfg)
    state = init_wavepacket(cfg)
    with pytest.raises(ValueError):
        q_wave_energy(state, adr, cfg)


def test_asymmetry_of_symmetric_packet_is_zero():
    cfg = cfg_of(50.0)
    adr = adr_of(cfg)
    assert asymmetry_about_center(init_wavepacket(cfg), adr, cfg) < 1e-12


def test_run_experiment_t0_returns_initial_diagnostics():
    cfg = cfg_of(50.0, n=201)
    adr = adr_of(cfg)
    res = run_experiment(SchemeId.EXPLICIT_OUCS3_CD2, cfg, adr, 0.0)
    assert res.q_wave_energy == 0.0
    assert res.amplitude_peak == 1.0
    assert len(res.snapshots) == 1 and res.snapshots[0].t == 0.0


def test_run_experiment_grid_mismatch_rejected():
    cfg = cfg_of(50.0, n=201)
    bad = AdrConfig(C, NU, LAM, DT, WavePacketConfig(50.0, 0.0, K0H, L, 101).grid())
    with pytest.raises(ValueError):
        run_experiment(SchemeId.EXPLICIT_OUCS3_CD2, cfg, bad, 1.0)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_energy_decays_in_dissipative_regime(scheme):
    # lambda < 0 makes every scheme lose discrete energy by t = 10
    cfg = cfg_of(50.0, n=201)
    adr = adr_of(cfg)
    res = run_experiment(scheme, cfg, adr, 10.0)
    e0 = np.sum(init_wavepacket(cfg).values ** 2)
    e1 = np.sum(res.snapshots[-1].values ** 2)
    assert e1 < e0


def test_imex_nccd_keeps_the_packet_100x_closer_than_each_oucs3_scheme():
    # the paper's packet ordering at the standing block (gamma = 50, N = 1001,
    # t = 2): each OUCS3 scheme's relative L2 error against the exact packet
    # reads about 0.89, imex-nccd's 4.6e-3. Measured against the t = 0 packet,
    # which the advection has since moved by c t = 0.2 (1.6 carrier
    # wavelengths), every scheme's error is O(1) and the ordering is lost
    cfg = cfg_of(50.0)
    adr = adr_of(cfg)
    finals = {s: run_experiment(s, cfg, adr, 2.0) for s in SchemeId}
    u0 = init_wavepacket(cfg).values

    def ordered(errors):
        nccd = errors.pop(SchemeId.IMEX_NCCD)
        return all(e >= 100.0 * nccd for e in errors.values())

    assert ordered({s: res.l2_error for s, res in finals.items()})
    assert not ordered({s: np.linalg.norm(res.snapshots[-1].values - u0) / np.linalg.norm(u0)
                        for s, res in finals.items()})


def test_run_experiment_has_no_exact_error_where_the_exact_solution_is_0():
    # e^{lambda t} = e^{-1000} underflows, so the exact packet is 0 and an
    # error relative to it is not defined; the run itself is valid
    cfg = cfg_of(50.0, n=101)
    res = run_experiment(SchemeId.EXPLICIT_OUCS3_CD2, cfg, adr_of(cfg, lam=-100.0), 10.0)
    assert res.l2_error is None and res.max_error is None
    assert 0 < res.amplitude_peak < 1e-300


def test_point_diagnostics_center_node():
    cfg = cfg_of(50.0)
    adr = adr_of(cfg)
    ratio, vg, perr = point_diagnostics(SchemeId.IMEX_NCCD, cfg, adr)
    assert 0.9 < ratio < 1.1
    assert 0.9 < vg < 1.1
    assert perr < 0.01


def test_csv_writers(tmp_path):
    cfg = cfg_of(50.0, n=101)
    state = init_wavepacket(cfg)
    name = snapshot_filename(SchemeId.EXPLICIT_OUCS3_CD2, cfg, 10.0)
    assert name == "explicit-oucs3-cd2_50_101_10.csv"
    path = tmp_path / name
    write_snapshot_csv(state, cfg, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,u" and len(lines) == 102
    assert lines[1].split(",")[0] == "-5"
    kh, amp = fourier_spectrum(state)
    spath = tmp_path / "spec.csv"
    write_spectrum_csv(kh, amp, spath)
    assert spath.read_text().startswith("kh,amplitude\n0,")


def test_writers_match_per_value_formatting(tmp_path, rng):
    # rows are written a chunk at a time; these run past whole chunks and end mid-chunk
    cfg = cfg_of(50.0, n=2 * CHUNK_ROWS + 5)
    u = awkward_floats(rng, cfg.n_points)
    write_snapshot_csv(SolutionState(u, 0.0), cfg, tmp_path / "snap.csv")
    assert (tmp_path / "snap.csv").read_bytes() == csv_by_value("x,u", zip(cfg.grid().x(), u))
    kh, amp = awkward_floats(rng, CHUNK_ROWS + 1), awkward_floats(rng, CHUNK_ROWS + 1)
    write_spectrum_csv(kh, amp, tmp_path / "spec.csv")
    assert (tmp_path / "spec.csv").read_bytes() == csv_by_value("kh,amplitude", zip(kh, amp))


def test_write_csv_of_broadcast_columns_only(tmp_path, rng):
    # every column is broadcast from fewer values than the table has rows, so
    # each is formatted once per value; the table still spans whole chunks
    a, b = awkward_floats(rng, 37), awkward_floats(rng, 31)
    write_csv(tmp_path / "grid.csv", "a,b,c", a[:, None], b[None, :], np.float64(-0.1))
    rows = ((ai, bj, -0.1) for ai in a for bj in b)
    assert (tmp_path / "grid.csv").read_bytes() == csv_by_value("a,b,c", rows)


def test_snapshot_names_tell_apart_times_that_agree_to_six_digits():
    cfg = cfg_of(50.0, n=101)
    names = {snapshot_filename(SchemeId.IMEX_NCCD, cfg, t) for t in (10000.01, 10000.02)}
    assert len(names) == 2
    assert [snapshot_filename(SchemeId.IMEX_NCCD, cfg, t) for t in (0.0, 5.0, 10.0)] == [
        f"imex-nccd_50_101_{t}.csv" for t in (0, 5, 10)]
