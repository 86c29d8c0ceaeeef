import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import awkward_floats, csv_by_value

from adrlab import CHUNK_ROWS
from adrlab.adr1d import AdrConfig, SchemeId, scheme_operators
from adrlab.operators import Grid1D
from adrlab.spectral import (
    DispersionMap,
    SpectralParams,
    dispersion_point,
    error_forcing_spectrum,
    error_forcing_value,
    g_exact,
    g_num,
    group_velocity_ratio,
    phase_shift,
    phase_speed_error,
    sampled_stability_boundary,
    stability_boundary,
    sweep,
    write_map_csv,
)
from adrlab.wavepacket import WavePacketConfig, point_diagnostics

PE, DA = 0.01, -0.01


def params(kh, nc, node=500, pe=PE, da=DA):
    return SpectralParams(kh, nc, pe, da, node)


def test_g_exact_values():
    assert g_exact(params(0.0, 0.1, da=0.0)) == 1.0
    assert abs(g_exact(params(0.0, 0.1)) - np.exp(-0.01)) < 1e-15
    g = g_exact(params(0.5, 0.1))
    assert abs(abs(g) - np.exp(-(0.01 * 0.25 + 0.01))) < 1e-15


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_g_num_unity_in_trivial_limit(scheme, ops1001):
    p = SpectralParams(0.0, 0.0, 0.0, 0.0, 500)
    assert abs(g_num(scheme, p, ops1001[scheme]) - 1.0) < 1e-12


def test_g_num_explicit_kh0_is_heun_reaction_factor(ops1001):
    # at kh = 0 the operator row sums vanish, leaving the two-stage
    # reaction factor 1 + Da + Da^2/2
    ops = ops1001[SchemeId.EXPLICIT_OUCS3_CD2]
    g = g_num(SchemeId.EXPLICIT_OUCS3_CD2, params(0.0, 0.05), ops)
    assert abs(g - (1 + DA + DA**2 / 2)) < 1e-10


def test_phase_shift_trivials():
    assert phase_shift(1.0 + 0j) == 0.0
    assert abs(phase_shift(1j) + np.pi / 2) < 1e-15
    theta = 0.3
    assert abs(phase_shift(np.exp(-1j * theta)) - theta) < 1e-15
    with pytest.raises(ValueError):
        phase_shift(0j)


def test_phase_speed_error_vanishes_for_exact_g():
    for kh in (0.3, 1.0, 2.5):
        p = params(kh, 0.1)
        assert phase_speed_error(p, g_exact(p)) < 1e-12
    # kh = 0 limit is finite for Da != 0 and zero for the exact factor
    p0 = params(0.0, 0.1)
    assert phase_speed_error(p0, g_exact(p0)) < 1e-12
    with pytest.raises(ValueError):
        phase_speed_error(params(0.0, 0.1, da=0.0), 1.0 + 0j)


# the CLI default map: 64 x 64 samples of kh in [0, pi] and N_c in [0.025, 1.6]
MAP_KH, MAP_NC = np.linspace(0.0, np.pi, 64), np.linspace(0.025, 1.6, 64)


def test_group_velocity_reference_value(ops1001):
    # a steep sample of the default map, where a +-1e-4 phase difference
    # reads 19.93610; differences with smaller steps converge to 19.934923
    scheme = SchemeId.EXPLICIT_OUCS3_CD2
    vg = group_velocity_ratio(scheme, params(MAP_KH[58], MAP_NC[34]), ops1001[scheme])
    assert abs(vg - 19.934923) <= 1e-5


def test_group_velocity_matches_unwrapped_phase_difference(ops1001):
    # the closed form -Im(G'/G)/N_c against a delta = 1e-6 central difference
    # of the phase, unwrapped where N_c kh crosses the branch cut of beta
    delta, kh = 1e-6, MAP_KH[1:-1]
    for scheme, ops in ops1001.items():
        vg = sweep(scheme, kh, MAP_NC, PE, DA, 500, ops).vg_ratio
        plus, minus = (sweep(scheme, kh + s, MAP_NC, PE, DA, 500, ops).beta
                       for s in (delta, -delta))
        diff = np.angle(np.exp(1j * (plus - minus))) / (2 * delta) / MAP_NC[:, None]
        assert np.all(np.abs(vg - diff) <= 1e-6 * np.maximum(1.0, np.abs(vg))), scheme


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_map_edges_are_the_schemes_limits(scheme, ops1001):
    # no override at kh = 0 or pi: V_g and the phase error there are the
    # scheme's own values, which continue those just inside the interval
    ops = ops1001[scheme]
    dmap = sweep(scheme, [0.0, 1e-7, np.pi - 1e-7, np.pi], MAP_NC, PE, DA, 500, ops)
    for name in ("vg_ratio", "phase_err"):
        col = getattr(dmap, name)
        for edge, inside in ((0, 1), (3, 2)):
            assert np.all(np.abs(col[:, edge] - col[:, inside])
                          <= 1e-6 * np.maximum(1.0, np.abs(col[:, edge]))), (name, edge)
    for nc, perr in zip(MAP_NC, dmap.phase_err[:, 0]):
        p = params(0.0, nc)
        assert abs(perr - phase_speed_error(p, g_num(scheme, p, ops))) <= 1e-9


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_conjugate_symmetry_of_row_symbols(scheme, ops1001):
    d1, d2 = ops1001[scheme]
    for op in (d1, d2):
        s_plus = op.row_symbol(499, 0.8)
        s_minus = op.row_symbol(499, -0.8)
        assert abs(s_minus - np.conj(s_plus)) < 1e-12


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_interior_node_independence(scheme, ops1001):
    ops_small = scheme_operators(scheme, Grid1D(501, 1.0))
    for kh in (0.5, 2.0):
        p_big = params(kh, 0.2)
        p_small = params(kh, 0.2, node=250)
        pt_big = dispersion_point(scheme, p_big, ops1001[scheme])
        pt_small = dispersion_point(scheme, p_small, ops_small)
        assert abs(pt_big.g_ratio - pt_small.g_ratio) < 1e-6
        assert abs(pt_big.vg_ratio - pt_small.vg_ratio) < 1e-6
        assert abs(pt_big.phase_err - pt_small.phase_err) < 1e-6


def test_error_forcing_vanishes_for_exact_g(ops1001):
    a0 = lambda kh: np.exp(-((kh - 0.5) ** 2))
    for kh in np.linspace(0.05, 3.1, 25):
        p = params(kh, 0.1)
        val = error_forcing_value(p, a0, 10.0, g_exact(p))
        assert abs(val) < 1e-10


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_error_forcing_is_the_exponent_gap(ops1001, scheme):
    # F = A0 (w_ex - w) G^t with w = -ln G and w_ex = Pe kh^2 + i N_c kh - Da,
    # the forcing with the bracket multiplied out; bounded by the size of one
    # of its terms, A0 w_ex G^t, since F itself cancels where G ~ G_exact
    a0 = lambda kh: np.exp(-((kh - 0.5) ** 2))
    for kh in np.linspace(0.0, np.pi, 17):
        for nc in (0.1, 0.5, 1.0):
            p = params(kh, nc)
            g = g_num(scheme, p, ops1001[scheme])
            w_ex = PE * kh**2 + 1j * nc * kh - DA
            for t in (1.0, 10.0, 100.0):
                want = a0(kh) * (w_ex + np.log(g)) * g**t
                got = error_forcing_value(p, a0, t, g)
                assert abs(got - want) <= 1e-13 * abs(a0(kh) * w_ex * g**t)


def test_error_forcing_zero_amplitude(ops1001):
    p = params(1.0, 0.1)
    ops = ops1001[SchemeId.EXPLICIT_OUCS3_CD2]
    assert error_forcing_spectrum(SchemeId.EXPLICIT_OUCS3_CD2, p, lambda kh: 0.0,
                                  10.0, ops) == 0.0


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_sweep_single_point_matches_pointwise(scheme, ops1001):
    # one evaluation path: every map entry, the one-sided kh = 0 and pi
    # edges included, is bit for bit the pointwise result; 19 kh fill one
    # whole batch of 16 forward-solve modes (64 columns) and part of another
    ops = ops1001[scheme]
    kh_axis, nc_axis = np.linspace(0.0, np.pi, 19).tolist(), [0.1, 0.6, 1.3]
    dmap = sweep(scheme, kh_axis, nc_axis, PE, DA, 500, ops)
    for i_nc, nc in enumerate(nc_axis):
        for i_kh, kh in enumerate(kh_axis):
            pt = dispersion_point(scheme, params(kh, nc), ops)
            assert (pt.kh, pt.nc) == (kh, nc)
            for name in ("g_num", "g_ratio", "beta", "vg_ratio", "phase_err"):
                assert getattr(pt, name) == getattr(dmap, name)[i_nc, i_kh], name
            assert g_num(scheme, params(kh, nc), ops) == pt.g_num
            assert phase_speed_error(params(kh, nc), pt.g_num) == pt.phase_err


def _reference_g(scheme, kh, nc, pe, da, ops):
    """The three per-scheme closed forms the two-stage template replaces."""
    d1, d2 = ops
    s1, s2 = d1.row_symbol(499, kh), d2.row_symbol(499, kh)
    if scheme is SchemeId.EXPLICIT_OUCS3_CD2:
        diff = pe * (np.cos(kh) - 1.0)
        g_star = 1 - nc * s1 + 2 * diff + da
        return 1 - ((nc / 2) * s1 - diff - da / 2) * (1 + g_star)
    if scheme is SchemeId.IMPLICIT_OUCS3_LELE:
        z = nc * s1 - pe * s2
        return (1 + da / 2 - z / 2) / (1 - da / 2 + z / 2)
    g_star = 1 + (da - (nc * s1 - pe * s2)) / (1 - da / 2 - (pe / 2) * s2)
    return 1 - ((nc / 2) * s1 - (pe / 2) * s2 - da / 2) * (1 + g_star)


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(list(SchemeId)),
       kh=st.floats(0.0, np.pi),
       nc=st.floats(0.0, 2.0, exclude_min=True),
       pe=st.floats(0.0, 0.5),
       da=st.floats(-0.5, 0.0))
def test_template_g_matches_closed_forms(ops1001, scheme, kh, nc, pe, da):
    g = g_num(scheme, SpectralParams(kh, nc, pe, da, 500), ops1001[scheme])
    ref = _reference_g(scheme, kh, nc, pe, da, ops1001[scheme])
    assert abs(g - ref) <= 1e-12 * max(1.0, abs(g))


def test_sweep_kh0_column_stores_analytic_limits(ops1001):
    # the kh = 0 column holds the scheme's limits: the reaction-only ratio,
    # the phase error of phase_speed_error (finite for Da != 0) and a V_g
    # that continues the kh > 0 values, not 1; with Da = 0 the phase error
    # keeps its limit 0
    scheme = SchemeId.EXPLICIT_OUCS3_CD2
    ops = ops1001[scheme]
    dmap = sweep(scheme, [0.0, 1e-7], [0.1], PE, DA, 500, ops)
    want_ratio = abs((1 + DA + DA**2 / 2) / np.exp(DA))
    assert abs(dmap.g_ratio[0, 0] - want_ratio) < 1e-10
    assert dmap.phase_err[0, 0] > 0
    p0 = params(0.0, 0.1)
    for each in SchemeId:  # the point function's value is the map entry's, bit for bit
        m = sweep(each, [0.0, 1e-7], [0.1], PE, DA, 500, ops1001[each])
        assert m.phase_err[0, 0] == phase_speed_error(p0, g_num(each, p0, ops1001[each]))
    vg0, vg1 = dmap.vg_ratio[0]
    assert abs(vg0 - vg1) < 1e-9 and vg0 != 1.0
    dmap = sweep(scheme, [0.0], [0.1], PE, 0.0, 500, ops)
    assert dmap.phase_err[0, 0] == 0.0 and np.isfinite(dmap.vg_ratio[0, 0])


def test_map_csv_format(tmp_path, ops1001):
    scheme = SchemeId.IMPLICIT_OUCS3_LELE
    dmap = sweep(scheme, [0.5, 1.0], [0.1, 0.2], PE, DA, 500, ops1001[scheme])
    path = tmp_path / "map.csv"
    write_map_csv(dmap, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# scheme=implicit-oucs3-lele,pe=0.01,da=-0.01")
    assert lines[1] == "kh,nc,g_ratio,vg_ratio,phase_err"
    assert len(lines) == 2 + 4
    # row-major over nc then kh: first two rows share nc=0.1
    assert lines[2].split(",")[1] == "0.1" and lines[3].split(",")[1] == "0.1"


def test_map_csv_matches_per_value_formatting(tmp_path, rng):
    # 3 nc x (CHUNK_ROWS / 2 + 1) kh rows: past one chunk, ending mid-chunk
    kh, nc = awkward_floats(rng, CHUNK_ROWS // 2 + 1), np.array([0.1, 1 / 3, 1e-300])
    ratio, vg, perr = (awkward_floats(rng, len(kh) * 3).reshape(3, -1) for _ in range(3))
    dmap = DispersionMap(kh, nc, None, ratio, None, vg, perr, SchemeId.IMEX_NCCD,
                         1 / 3, -0.0, 500, 1001)
    write_map_csv(dmap, tmp_path / "map.csv")
    expected = csv_by_value(
        f"# scheme=imex-nccd,pe={1 / 3:.12g},da=-0,node=500,n_points=1001\n"
        "kh,nc,g_ratio,vg_ratio,phase_err",
        ((kh[j], nc[i], ratio[i, j], vg[i, j], perr[i, j])
         for i in range(3) for j in range(len(kh))))
    assert (tmp_path / "map.csv").read_bytes() == expected


def test_node_is_interior_to_the_operators():
    # the operators fix the size: a map records it, and a node off their
    # interior is refused by every evaluation
    scheme = SchemeId.EXPLICIT_OUCS3_CD2
    ops = scheme_operators(scheme, Grid1D(51, 1.0))
    assert sweep(scheme, [0.5], [0.1], PE, DA, 25, ops).n_points == 51
    for node in (1, 51):
        with pytest.raises(ValueError, match="node must be interior"):
            sweep(scheme, [0.5], [0.1], PE, DA, node, ops)
        with pytest.raises(ValueError, match="node must be interior"):
            g_num(scheme, params(0.5, 0.1, node=node), ops)
        with pytest.raises(ValueError, match="node must be interior"):
            stability_boundary(scheme, ops, PE, DA, node)


def test_stability_boundary_explicit_scheme(ops1001):
    scheme = SchemeId.EXPLICIT_OUCS3_CD2
    b = stability_boundary(scheme, ops1001[scheme], PE, DA, iters=25)
    assert 0.95 < b < 1.1


def test_stability_boundary_requires_stable_start(ops1001):
    scheme = SchemeId.EXPLICIT_OUCS3_CD2
    with pytest.raises(ValueError):
        stability_boundary(scheme, ops1001[scheme], PE, DA, nc_start=2.5)


def test_sampled_stability_boundary_on_a_small_map():
    # the largest N_c sample whose whole kh row is ratio-stable: 1.0 on this
    # axis, the sample just below the bisected boundary; no imex-nccd row is
    kh, nc = np.linspace(0.0, np.pi, 9), np.linspace(0.1, 1.6, 16)
    got = {}
    for scheme in (SchemeId.EXPLICIT_OUCS3_CD2, SchemeId.IMEX_NCCD):
        ops = scheme_operators(scheme, Grid1D(51, 1.0))
        got[scheme] = sampled_stability_boundary(sweep(scheme, kh, nc, PE, DA, 25, ops))
    explicit = SchemeId.EXPLICIT_OUCS3_CD2
    assert got[explicit] == nc[9] == 1.0
    ops = scheme_operators(explicit, Grid1D(51, 1.0))
    assert nc[9] < stability_boundary(explicit, ops, PE, DA, 25, kh[1:]) < nc[10]
    assert got[SchemeId.IMEX_NCCD] is None


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_analysis_paths_form_no_dense_operator(scheme):
    # the map and packet diagnostics apply each operator to a table of kh
    # modes: neither the system's dense A^{-1} B nor anything near one dense
    # D (N^2 doubles) is allocated
    n = 2001
    cfg = WavePacketConfig(0.1, 0.0, 0.5, 5.0, n)
    tracemalloc.start()
    try:
        ops = scheme_operators(scheme, cfg.grid())
        sweep(scheme, np.linspace(0.1, 2.5, 8), np.linspace(0.01, 0.3, 8), PE, DA,
              n // 2, ops)
        point_diagnostics(scheme, cfg, AdrConfig(0.1, 1e-4, -1.0, 0.01, cfg.grid()), ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for op in ops:
        assert "dense" not in op.system.__dict__
    assert peak < n * n * 8 / 4
