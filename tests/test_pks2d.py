import functools
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from reference import csv_by_value, nccd_line_operators

from adrlab import pks2d
from adrlab.pks2d import (
    EdgeReconstructionError,
    Mesh2D,
    NonFiniteError,
    PksState,
    PksStepper,
    PksVariant,
    PositivityError,
    _Work,
    adaptive_slopes,
    diagnostics,
    edge_fluxes,
    init_gaussian,
    laplacian,
    make_stepper,
    minmod,
    oscillation_metric,
    radial_profile,
    rhs,
    total_mass,
    write_metadata,
    write_radial_csv,
    write_snapshot_csv,
)

VARIANTS = [PksVariant.EXPLICIT_OUCS3_CD2, PksVariant.IMEX_NCCD]
EXPLICIT, IMEX = VARIANTS


def state_from(mesh, rho, c, chi=30.0, theta=1.0):
    return PksState(mesh, rho, c, 0.0, chi, theta)


def gaussian_state(n=32, chi=30.0):
    return init_gaussian(Mesh2D.unit_square(n), chi=chi)


def velocity(c, mesh, variant):
    """Cell-centre velocities (u, v) = grad c, from the variant's kernel."""
    derivs = getattr(pks2d, pks2d._VARIANTS[variant][0])
    work = _Work(c.shape)
    return (derivs(c, mesh.h, np.empty(c.shape), work),
            derivs(c.T, mesh.k, np.empty(c.T.shape), work).T)


def z_of(state, variant=EXPLICIT):
    """The right-hand sides (z_rho, z_c) of `rhs`."""
    return rhs(state, variant, _Work(state.rho.shape))[0]


def upwind_edges(rho, mesh, slopes, u_edge, v_edge):
    """x- and y-edge values of the upwind kernel behind `edge_fluxes`."""
    work = _Work(rho.shape)
    return (pks2d._upwind(rho, slopes[0], mesh.h, u_edge, work, np.empty(u_edge.shape)),
            pks2d._upwind(rho.T, slopes[1].T, mesh.k, v_edge.T, work,
                          np.empty(v_edge.T.shape)).T)


def test_init_center_density_and_mass():
    state = init_gaussian(Mesh2D.unit_square(200))
    assert state.rho.max() > 990.0          # one-cell Taylor error off 1000
    mass = total_mass(state)
    assert abs(mass - 10 * np.pi) / (10 * np.pi) < 1e-3
    # supercritical by a wide margin: threshold is 8 pi / chi
    assert mass > 8 * np.pi / state.chi


def test_velocity_constant_field_is_zero():
    # rho = chi = 1: the edge fluxes are the edge means of the velocities
    state = state_from(Mesh2D.unit_square(32), np.ones((32, 32)), np.full((32, 32), 7.0), chi=1.0)
    for variant in VARIANTS:
        u, v = velocity(state.c, state.mesh, variant)
        assert np.max(np.abs(u)) < 1e-10 and np.max(np.abs(v)) < 1e-10
        fl = edge_fluxes(state, variant, _Work((32, 32)))
        assert np.max(np.abs(fl.p)) < 1e-10 and np.max(np.abs(fl.q)) < 1e-10


def test_velocity_linear_field_interior():
    # a linear c violates the zero-Neumann walls, so exactness holds away
    # from the boundary; the compact operator's mirror-ghost influence
    # decays like ~0.4^rows, hence the wider interior margin for it
    n = 64
    mesh = Mesh2D.unit_square(n)
    x, y = mesh.centers()
    c = np.broadcast_to(x[:, None], (n, n)).copy()
    u, v = velocity(c, mesh, PksVariant.EXPLICIT_OUCS3_CD2)
    assert np.max(np.abs(u[1:-1, :] - 1.0)) < 1e-12
    assert np.max(np.abs(v)) < 1e-12
    u2, v2 = velocity(c, mesh, PksVariant.IMEX_NCCD)
    assert np.max(np.abs(u2[25:-25, :] - 1.0)) < 1e-8
    assert np.max(np.abs(v2)) < 1e-8


def test_velocity_radial_antisymmetry():
    mesh = Mesh2D.unit_square(32)
    x, y = mesh.centers()
    c = np.exp(-3.0 * (x[:, None] ** 2 + y[None, :] ** 2))
    u, v = velocity(c, mesh, PksVariant.EXPLICIT_OUCS3_CD2)
    assert np.max(np.abs(u + u[::-1, :])) < 1e-12
    assert np.max(np.abs(v + v[:, ::-1])) < 1e-12
    # the compact variant's one-sided closures are only mirror-symmetric up
    # to the beta2/betaN asymmetry in the first/last cells; interior rows
    # are exactly equivariant
    u2, v2 = velocity(c, mesh, PksVariant.IMEX_NCCD)
    assert np.max(np.abs((u2 + u2[::-1, :])[2:-2, :])) < 1e-11


def test_minmod_cases():
    assert minmod(np.array(1.0), np.array(2.0), np.array(3.0)) == 1.0
    assert minmod(np.array(-1.0), np.array(-2.0), np.array(-3.0)) == -1.0
    assert minmod(np.array(-1.0), np.array(2.0), np.array(3.0)) == 0.0
    # exhaustive over sign patterns
    for sa in (-1, 0, 1):
        for sb in (-1, 0, 1):
            for sc in (-1, 0, 1):
                vals = np.array([2.0 * sa, 1.0 * sb, 3.0 * sc])
                got = minmod(*vals)
                if sa > 0 and sb > 0 and sc > 0:
                    assert got == vals.min()
                elif sa < 0 and sb < 0 and sc < 0:
                    assert got == vals.max()
                else:
                    assert got == 0.0


def test_slopes_constant_field_zero():
    mesh = Mesh2D.unit_square(16)
    sx, sy = adaptive_slopes(np.full((16, 16), 3.0), mesh, 1.0, _Work((16, 16)))
    assert np.max(np.abs(sx)) == 0.0 and np.max(np.abs(sy)) == 0.0


def test_slopes_restore_positivity_on_steep_front():
    mesh = Mesh2D.unit_square(16)
    rho = np.full((16, 16), 1e-8)
    rho[8:, :] = 1.0  # centered slope at the foot would overshoot below zero
    sx, _ = adaptive_slopes(rho, mesh, 1.0, _Work(rho.shape))
    h = mesh.h
    assert np.all(rho - 0.5 * h * sx >= 0)
    assert np.all(rho + 0.5 * h * sx >= 0)


def test_reconstruction_uniform_field_wind_independent():
    mesh = Mesh2D.unit_square(16)
    rho = np.full((16, 16), 2.5)
    slopes = adaptive_slopes(rho, mesh, 1.0, _Work(rho.shape))
    for sign in (1.0, -1.0):
        ue = sign * np.ones((15, 16))
        ve = sign * np.ones((16, 15))
        xe, ye = upwind_edges(rho, mesh, slopes, ue, ve)
        assert np.max(np.abs(xe - 2.5)) < 1e-14
        assert np.max(np.abs(ye - 2.5)) < 1e-14


def test_reconstruction_linear_field_exact_upwind():
    mesh = Mesh2D.unit_square(16)
    x, _ = mesh.centers()
    rho = 5.0 + np.broadcast_to(x[:, None], (16, 16)).copy()
    slopes = adaptive_slopes(rho, mesh, 1.0, _Work(rho.shape))
    ue = np.ones((15, 16))
    ve = np.ones((16, 15))
    xe, _ = upwind_edges(rho, mesh, slopes, ue, ve)
    edges = 5.0 + (x[:-1] + mesh.h / 2)
    assert np.max(np.abs(xe - edges[:, None])) < 1e-12


def test_reconstruction_reports_negative_edge(monkeypatch):
    # a slope of 10/h in cell (3, 5) puts rho - (h/2) s = 1 - 5 on its left
    # face, which the upwind rule takes for x-edge (2, 5) under the leftward
    # wind of c = -x
    mesh = Mesh2D.unit_square(16)
    x, _ = mesh.centers()
    sx = np.zeros((16, 16))
    sx[3, 5] = 10.0 / mesh.h
    monkeypatch.setattr(pks2d, "adaptive_slopes", lambda *_: (sx, np.zeros((16, 16))))
    state = state_from(mesh, np.ones((16, 16)), np.broadcast_to(-x[:, None], (16, 16)).copy())
    with pytest.raises(EdgeReconstructionError, match=r"reconstruction -4 at x-edge \(2, 5\)"):
        edge_fluxes(state, EXPLICIT, _Work((16, 16)))


def test_reconstruction_nonnegative_randomized(rng):
    # positivity of reconstructed edge values over many random fields/winds
    mesh = Mesh2D.unit_square(12)
    checks = 0
    for _ in range(120):
        rho = rng.random((12, 12)) ** 3
        slopes = adaptive_slopes(rho, mesh, float(1.0 + rng.random()), _Work(rho.shape))
        ue = rng.normal(size=(11, 12))
        ve = rng.normal(size=(12, 11))
        xe, ye = upwind_edges(rho, mesh, slopes, ue, ve)
        assert xe.min() >= 0.0 and ye.min() >= 0.0
        checks += xe.size + ye.size
    assert checks > 10_000


def test_rho_rhs_trivial_zero():
    mesh = Mesh2D.unit_square(16)
    state = state_from(mesh, np.full((16, 16), 2.0), np.full((16, 16), 5.0))
    for variant in VARIANTS:
        assert np.max(np.abs(z_of(state, variant)[0])) < 1e-9


def test_rho_rhs_reduces_to_laplacian_without_chemotaxis():
    # chi -> 0 limit checked against the analytic Laplacian with slope ~2
    errs = []
    for n in (32, 64):
        mesh = Mesh2D.unit_square(n)
        x, y = mesh.centers()
        rho = 2.0 + np.cos(np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]
        lap = -2 * np.pi**2 * (rho - 2.0)
        state = state_from(mesh, rho, np.ones((n, n)), chi=1e-30)
        got = z_of(state, PksVariant.EXPLICIT_OUCS3_CD2)[0]
        errs.append(np.max(np.abs(got - lap)[2:-2, 2:-2]))
    assert 1.7 < np.log2(errs[0] / errs[1]) < 2.3


def test_rho_rhs_telescopes_to_zero(rng):
    mesh = Mesh2D.unit_square(24)
    x, y = mesh.centers()
    rho = 1.0 + rng.random((24, 24))
    c = np.exp(-2.0 * (x[:, None] ** 2 + y[None, :] ** 2))
    state = state_from(mesh, rho, c)
    z_rho = z_of(state, PksVariant.EXPLICIT_OUCS3_CD2)[0]
    scale = np.max(np.abs(z_rho))
    assert abs(z_rho.sum()) < 1e-10 * max(scale, 1.0) * z_rho.size


def test_c_rhs_forms():
    mesh = Mesh2D.unit_square(16)
    x, y = mesh.centers()
    f = np.exp(-(x[:, None] ** 2 + y[None, :] ** 2))
    state = state_from(mesh, f.copy(), f.copy())
    got = z_of(state, PksVariant.EXPLICIT_OUCS3_CD2)[1]
    lap = laplacian(state.c, mesh, PksVariant.EXPLICIT_OUCS3_CD2, _Work((16, 16)))
    assert np.max(np.abs(got - lap)) < 1e-12
    state0 = state_from(mesh, f.copy(), np.zeros((16, 16)))
    assert np.max(np.abs(z_of(state0, PksVariant.EXPLICIT_OUCS3_CD2)[1] - f)) < 1e-14


def test_c_rhs_equilibrium_fixture():
    # c solving (lap - 1) c = -rho makes the c-equation stationary; the
    # oracle solves the discrete system directly
    n = 16
    mesh = Mesh2D.unit_square(n)
    x, y = mesh.centers()
    rho = np.exp(-5.0 * (x[:, None] ** 2 + y[None, :] ** 2))
    # dense 5-point Laplacian with mirror ghosts, built independently
    h2 = mesh.h**2
    t1d = np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    t1d[0, 0] = -1.0
    t1d[-1, -1] = -1.0
    eye = np.eye(n)
    lap2d = (np.kron(t1d, eye) + np.kron(eye, t1d)) / h2
    c = np.linalg.solve(lap2d - np.eye(n * n), -rho.reshape(-1)).reshape(n, n)
    state = state_from(mesh, rho, c)
    res = z_of(state, PksVariant.EXPLICIT_OUCS3_CD2)[1]
    assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_zero_fields(variant):
    mesh = Mesh2D.unit_square(16)
    state = state_from(mesh, np.zeros((16, 16)), np.zeros((16, 16)))
    out = make_stepper(variant, mesh, 1e-8).step(state)
    assert np.max(np.abs(out.rho)) == 0.0
    assert np.max(np.abs(out.c)) == 0.0
    assert out.t == 1e-8


def test_explicit_step_conserves_mass_per_step():
    state = gaussian_state(n=64)
    stepper = PksStepper(EXPLICIT, state.mesh, 1e-8)
    m0 = total_mass(state)
    out = stepper.step(state)
    assert abs(total_mass(out) - m0) / m0 < 1e-10


def test_explicit_step_conserves_mass_without_chemotaxis():
    state = gaussian_state(n=32, chi=1e-30)
    out = PksStepper(EXPLICIT, state.mesh, 1e-7).step(state)
    assert abs(total_mass(out) - total_mass(state)) / total_mass(state) < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_c_raises_naming_the_field(variant):
    # a uniform c = 1e308 has zero gradient (no transport, so rho stays
    # finite at chi ~ 0) but overflows the Laplacian of c
    mesh = Mesh2D.unit_square(16)
    state = state_from(mesh, np.ones((16, 16)), np.full((16, 16), 1e308), chi=1e-300)
    with pytest.raises(NonFiniteError, match="non-finite c at cell") as exc:
        make_stepper(variant, mesh, 1e-8).step(state)
    assert exc.value.field == "c"


@pytest.mark.parametrize("variant", VARIANTS)
def test_wrappers_set_on_the_module_see_the_kernel_calls(variant, monkeypatch):
    # a profiler wraps module attributes: a step reaches `edge_fluxes` and
    # the NCCD Laplacian through the module, once per right-hand side
    calls = {"edge_fluxes": 0, "_lap_nccd": 0}
    for name, inner in [(name, getattr(pks2d, name)) for name in calls]:
        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(pks2d, name, counting)
    state = gaussian_state(n=16)
    make_stepper(variant, state.mesh, 1e-8).step(state)
    assert calls == {"edge_fluxes": 2, "_lap_nccd": 2 if variant is IMEX else 0}


def test_explicit_step_is_heun_bit_for_bit():
    state = gaussian_state(n=32)
    mesh, dt = state.mesh, 1e-8
    fr, fc = z_of(state)
    mid = PksState(mesh, state.rho + dt * fr, state.c + dt * fc, dt, state.chi, state.theta)
    gr, gc = z_of(mid)
    rho = state.rho + 0.5 * dt * (fr + gr)
    c = state.c + 0.5 * dt * (fc + gc)
    out = PksStepper(EXPLICIT, mesh, dt).step(state)
    assert (out.rho == rho).all() and (out.c == c).all()
    assert out.t == dt


@pytest.mark.parametrize("variant,rel", [(PksVariant.EXPLICIT_OUCS3_CD2, 0.0),
                                         (PksVariant.IMEX_NCCD, 1e-12)])
def test_transposed_problem_gives_transposed_result(variant, rel):
    # nx != ny and h != k: a kernel applied along the wrong axis, or with
    # the other direction's spacing, breaks the x <-> y symmetry
    nx, ny, h, k = 24, 32, 1.0 / 24, 0.75 / 32
    mesh, mesh_t = Mesh2D(nx, ny, h, k), Mesh2D(ny, nx, k, h)
    x = h * (np.arange(nx) + 0.5) - 0.5
    y = k * (np.arange(ny) + 0.5) - 0.375
    r2 = (x[:, None] - 0.05) ** 2 + 2.0 * (y[None, :] + 0.03) ** 2
    rho, c = 200.0 * np.exp(-40.0 * r2), 100.0 * np.exp(-20.0 * r2)
    state, state_t = state_from(mesh, rho, c), state_from(mesh_t, rho.T.copy(), c.T.copy())
    stepper, stepper_t = make_stepper(variant, mesh, 1e-7), make_stepper(variant, mesh_t, 1e-7)
    for _ in range(3):
        state, state_t = stepper.step(state), stepper_t.step(state_t)
    for f, f_t in ((state.rho, state_t.rho), (state.c, state_t.c)):
        assert np.max(np.abs(f_t.T - f)) <= rel * np.max(np.abs(f))


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_refuses_a_state_on_another_mesh(variant):
    # the same 32 x 32 cells at half the spacing: the line factors would use
    # the stepper's h and the right-hand side the state's
    mesh = Mesh2D.unit_square(32)
    stepper = make_stepper(variant, mesh, 1e-8)
    for other in (Mesh2D(32, 32, 0.5 / 32, 0.5 / 32, (-0.25, -0.25)), Mesh2D.unit_square(16)):
        with pytest.raises(ValueError, match="is not the stepper's mesh"):
            stepper.step(init_gaussian(other))
    assert stepper.step(init_gaussian(Mesh2D.unit_square(32))).t == 1e-8


def test_imex_positivity_violation_raises():
    # chi = 30 drives the advective CFL far above one at this dt; the step
    # must fail loudly rather than return a negative or non-finite field
    state = gaussian_state(n=32)
    stepper = PksStepper(IMEX, state.mesh, 1e-5)
    with pytest.raises((PositivityError, NonFiniteError)):
        cur = state
        for _ in range(10):
            cur = stepper.step(cur)


@pytest.mark.parametrize("variant", VARIANTS)
def test_symmetry_preserved_on_short_run(variant):
    state = gaussian_state(n=64)
    stepper = make_stepper(variant, state.mesh, 1e-8)
    for _ in range(20):
        state = stepper.step(state)
    rho = state.rho
    scale = rho.max()
    assert np.max(np.abs(rho - rho[::-1, :])) / scale < 1e-9
    assert np.max(np.abs(rho - rho[:, ::-1])) / scale < 1e-9


def test_oscillation_metric_fixtures():
    mesh = Mesh2D.unit_square(64)
    x, y = mesh.centers()
    r2 = x[:, None] ** 2 + y[None, :] ** 2
    monotone = state_from(mesh, 100.0 * np.exp(-10 * r2), np.ones((64, 64)))
    assert oscillation_metric(monotone) == 0.0
    # single ripple of height eps on a locally flat radial profile
    eps = 0.37
    flat = np.full((64, 64), 10.0)
    j0 = np.argmin(np.abs(y))
    i0 = np.argmin(np.abs(x))
    flat[i0 + 20, j0] += eps
    ripple_state = state_from(mesh, flat, np.ones((64, 64)))
    assert oscillation_metric(ripple_state) == pytest.approx(eps)


def test_radial_profile_geometry():
    state = gaussian_state(n=32)
    r, prof = radial_profile(state)
    assert r[0] == 0.0
    assert len(r) == 17  # from the cell nearest x = 0 out to the +x wall
    assert r[-1] == pytest.approx(0.5)
    assert prof[0] == state.rho.max()


def test_writers(tmp_path):
    state = gaussian_state(n=16)
    write_snapshot_csv(state, tmp_path / "snap.csv")
    lines = (tmp_path / "snap.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,rho,c" and len(lines) == 1 + 16 * 16
    write_radial_csv(state, tmp_path / "rad.csv")
    assert (tmp_path / "rad.csv").read_text().startswith("r,rho\n0,")
    write_metadata(tmp_path / "meta.json", state, PksVariant.IMEX_NCCD, 1e-6, 1e-5,
                   [diagnostics(state)])
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["variant"] == "imex-nccd"
    assert meta["mesh"] == {"nx": 16, "ny": 16, "h": 1 / 16, "k": 1 / 16, "origin": [-0.5, -0.5]}
    assert (meta["chi"], meta["theta"]) == (state.chi, state.theta)
    assert meta["diagnostics"][0]["mass"] == pytest.approx(total_mass(state))


def test_writers_match_per_value_formatting(tmp_path):
    # the chunked writers give the bytes of formatting each value alone
    mesh = Mesh2D(16, 12, 1.0 / 16, 0.75 / 12, (-0.5, -0.375))
    x, y = mesh.centers()
    rho = 1e3 * np.exp(-40.0 * (x[:, None] ** 2 + 2.0 * y[None, :] ** 2))
    rho[3, 4], rho[5, 6] = 0.0, -0.0
    state = state_from(mesh, rho, np.cos(x)[:, None] * np.sin(y)[None, :] - 1e-300)
    write_snapshot_csv(state, tmp_path / "snap.csv")
    expected = csv_by_value("x,y,rho,c", ((x[i], y[j], state.rho[i, j], state.c[i, j])
                                          for i in range(16) for j in range(12)))
    assert (tmp_path / "snap.csv").read_bytes() == expected
    write_radial_csv(state, tmp_path / "rad.csv")
    assert (tmp_path / "rad.csv").read_bytes() == csv_by_value("r,rho", zip(*radial_profile(state)))


def test_snapshot_writer_memory_does_not_grow_with_the_mesh(tmp_path):
    # rows are formatted a chunk at a time: formatting the 160 000 rows of a
    # 400^2 mesh at once holds about 40 MB of Python floats and text
    state = gaussian_state(n=400)
    tracemalloc.start()
    try:
        write_snapshot_csv(state, tmp_path / "snap.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"writer peak {peak / 1e6:.2f} MB"


def skewed_state(nx=24, ny=20):
    """An off-center blob on a mesh with nx != ny and h != k."""
    mesh = Mesh2D(nx, ny, 1.0 / nx, 0.75 / ny, (-0.5, -0.375))
    x, y = mesh.centers()
    r2 = (x[:, None] - 0.05) ** 2 + 2.0 * (y[None, :] + 0.03) ** 2
    return state_from(mesh, 200.0 * np.exp(-40.0 * r2), 100.0 * np.exp(-20.0 * r2))


def fields(state):
    return state.rho, state.c


@pytest.mark.parametrize("variant", VARIANTS)
def test_work_arrays_never_escape(variant):
    state = skewed_state()
    mesh = state.mesh
    stepper = make_stepper(variant, mesh, 1e-7)
    first = stepper.step(state)
    kept = [f.copy() for f in fields(first)]
    again = stepper.step(state)
    for f in fields(first) + fields(again):
        assert not any(np.shares_memory(f, b) for b in stepper.work.buffers)
    assert all((a == b).all() for a, b in zip(fields(first), fields(again)))
    cur = first
    for _ in range(3):
        cur = stepper.step(cur)
    assert all((a == b).all() for a, b in zip(fields(first), kept))
    # two steppers stepped in alternation match each one stepped alone
    other = state_from(mesh, 0.5 * state.rho[::-1].copy(), state.c[:, ::-1].copy())
    s1, s2 = make_stepper(variant, mesh, 1e-7), make_stepper(variant, mesh, 1e-7)
    a, b = state, other
    for _ in range(3):
        a, b = s1.step(a), s2.step(b)
    alone_a, alone_b = state, other
    lone1, lone2 = make_stepper(variant, mesh, 1e-7), make_stepper(variant, mesh, 1e-7)
    for _ in range(3):
        alone_a = lone1.step(alone_a)
    for _ in range(3):
        alone_b = lone2.step(alone_b)
    for x, y in zip(fields(a) + fields(b), fields(alone_a) + fields(alone_b)):
        assert (x == y).all()
    # no step carries a value over in a work array, so only this shows that
    # the two never share one (which two threads would race on)
    assert not any(np.shares_memory(x, y) for x in s1.work.buffers for y in s2.work.buffers)


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_allocates_at_most_six_mesh_arrays(variant):
    # a step allocates its two returned fields and small masks; everything
    # else lives in the stepper's work arrays, made during the first step
    state = skewed_state(96, 80)
    mesh = state.mesh
    stepper = make_stepper(variant, mesh, 1e-8)
    state = stepper.step(state)
    retained = sum(b.nbytes for b in stepper.work.buffers)
    scratch = sum(a.nbytes for a in stepper.work.scratch.values())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    for _ in range(3):
        state = stepper.step(state)
    array = mesh.nx * mesh.ny * 8
    assert sum(b.nbytes for b in stepper.work.buffers) == retained
    assert peak <= 6 * array, f"step peak {peak / array:.2f} arrays"
    assert retained + peak <= 14 * array, f"{retained / array:.2f} + {peak / array:.2f} arrays"
    # the solves' scratch sits beside the work arrays, sized during the first step
    assert sum(a.nbytes for a in stepper.work.scratch.values()) == scratch
    assert scratch <= 4.5 * array, f"solver scratch {scratch / array:.2f} arrays"


def test_explicit_step_is_heun_bit_for_bit_where_the_limiter_acts():
    # a density front over a near-vacuum: centered slopes at its foot would
    # extrapolate below zero, so the masked minmod branch runs; the stepper
    # has stepped once before, so its work arrays hold stale values
    state = skewed_state()
    mesh, dt = state.mesh, 1e-8
    stepper = PksStepper(EXPLICIT, mesh, dt)
    stepper.step(state)
    rho = np.full((mesh.nx, mesh.ny), 1e-8)
    rho[12:, 5:-1] = 1.0         # and beside the last y wall, so a wall cell is limited
    state = state_from(mesh, rho, state.c, chi=1.0)
    from adrlab.pks2d import _limited_slopes
    centered = (rho[2:] - rho[:-2]) / (2 * mesh.h)
    assert (_limited_slopes(rho, mesh.h, 1.0, _Work(rho.shape))[1:-1] != centered).any()
    one_sided = (rho[:, -1] - rho[:, -2]) / mesh.k
    assert (_limited_slopes(rho.T, mesh.k, 1.0, _Work(rho.shape))[-1] != one_sided).any()
    fr, fc = z_of(state)
    mid = PksState(mesh, state.rho + dt * fr, state.c + dt * fc, dt, state.chi, state.theta)
    gr, gc = z_of(mid)
    want_rho = state.rho + 0.5 * dt * (fr + gr)
    want_c = state.c + 0.5 * dt * (fc + gc)
    out = stepper.step(state)
    assert (out.rho == want_rho).all() and (out.c == want_c).all()


def line_factor(n, s, dt, rate):
    """The dense x or y line factor (1 + rate dt/4) I - (dt/2) D2 / s^2."""
    return (1 + rate * dt / 4) * np.eye(n) - (dt / 2) * (nccd_line_operators(n)[1] / s**2)


@pytest.mark.parametrize("dt", [1e-8, 1e-6])
def test_inverse_line_factors(dt):
    # each stage-1 solve applies the inverse of its line factor: solved for
    # the identity, as 200 columns, it leaves a residual of roundoff
    mesh = Mesh2D.unit_square(200)
    stepper = PksStepper(IMEX, mesh, dt)
    for rate, stages in zip((0.0, 1.0), stepper.stages):
        for stage, s in zip(stages, (mesh.h, mesh.k)):
            inv = stage.solve(np.eye(200))[1:-1]
            m = line_factor(200, s, dt, rate)
            assert np.abs(m @ inv - np.eye(200)).sum(axis=1).max() <= 1e-12


@pytest.mark.parametrize("nx,ny", [(25, 32), (32, 25)])
def test_line_operators_match_dense(nx, ny, rng):
    # D1, D2 and the stage-1 solves along the lines, odd and even line
    # lengths, both axes, h != k, against the folded dense operators
    from adrlab.pks2d import _nccd
    mesh, dt = Mesh2D(nx, ny, 1.0 / nx, 0.8 / ny), 1e-5
    stepper = PksStepper(IMEX, mesh, dt)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for axis, (n, s) in enumerate(((nx, mesh.h), (ny, mesh.k))):
        f = rng.standard_normal((n, 7))
        for got, op in zip(_nccd(f, (0, 1), stepper.work), nccd_line_operators(n)):
            close(got, op @ f)
        for rate, stages in zip((0.0, 1.0), stepper.stages):
            close(stages[axis].solve(f)[1:-1], np.linalg.solve(line_factor(n, s, dt, rate), f))
    # the velocities and the compact Laplacian, whose y passes read the
    # transposed field, and the Laplacian of c that the velocities' solves
    # give (z_c = lap c - c + rho, here with rho = 0)
    (d1x, d2x), (d1y, d2y) = nccd_line_operators(nx), nccd_line_operators(ny)
    f = rng.standard_normal((nx, ny))
    u, v = velocity(f, mesh, IMEX)
    close(u, d1x @ f / mesh.h)
    close(v, f @ d1y.T / mesh.k)
    want = d2x @ f / mesh.h**2 + f @ d2y.T / mesh.k**2
    close(laplacian(f, mesh, PksVariant.IMEX_NCCD, _Work((nx, ny))), want)
    (_, z_c), _ = rhs(state_from(mesh, np.zeros((nx, ny)), f), IMEX, stepper.work)
    close(z_c + f, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_work_set_survives_steps_that_raise(variant):
    mesh = Mesh2D.unit_square(32)
    stepper, fresh = make_stepper(variant, mesh, 1e-6), make_stepper(variant, mesh, 1e-6)
    good = init_gaussian(mesh, chi=1e-3)
    stepper.step(good)
    buffers = list(stepper.work.buffers)
    for _ in range(3):
        stepper.step(good)
    assert stepper.work.buffers == buffers
    # chi = 30 puts the chemotactic CFL near 3: stage 1 goes negative
    with pytest.raises(PositivityError):
        stepper.step(init_gaussian(mesh, chi=30.0))
    assert all((a == b).all() for a, b in zip(fields(stepper.step(good)), fields(fresh.step(good))))
    # a negative cell makes the split raise after it copied the transpose of
    # rho; the step after it must not read that copy once rho is mended
    rho = good.rho.copy()
    rho[5, 9] = -1.0
    bad = state_from(mesh, rho, good.c, chi=good.chi)
    with pytest.raises(EdgeReconstructionError):
        stepper.step(bad)
    rho[5, 9] = good.rho[5, 9]
    assert all((a == b).all() for a, b in zip(fields(stepper.step(bad)), fields(fresh.step(good))))
    assert stepper.work.buffers == buffers


def test_work_give_ignores_foreign_arrays():
    work, other = _Work((8, 8)), _Work((8, 8))
    work.reset()
    other.reset()
    a = work.take((8, 8))
    foreign = [np.empty((8, 8)), np.empty(81)[:64].reshape(8, 8), other.take((8, 8)), a[1:].copy()]
    work.give(*foreign)
    t = work.take((8, 8))
    assert not any(np.shares_memory(t, f) for f in foreign)
    assert len(work.buffers) == 2
    work.give(a, a.T, a)                 # one buffer, given three times, is freed once
    b, c = work.take((9, 7)), work.take((8, 8))
    assert np.shares_memory(a, b) and not np.shares_memory(a, c)
    assert len(work.buffers) == 3


def test_a_work_set_builds_each_line_length_once(monkeypatch):
    # the work set is the one owner of the NCCD lines: kernels called on one
    # set share its lines, and a stepper's stage factors are built from the
    # operators of its own set's lines
    built = []
    init = pks2d._NccdLines.__init__

    def counting(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(pks2d._NccdLines, "__init__", counting)
    state = skewed_state()
    mesh, f = state.mesh, state.c
    work = _Work(f.shape)
    for _ in range(3):
        laplacian(f, mesh, IMEX, work)
        pks2d._nccd(f, (0, 1), work)
        pks2d._nccd(f.T, (1,), work)
    assert sorted(built) == [mesh.ny, mesh.nx]
    built.clear()
    stepper = PksStepper(IMEX, mesh, 1e-8)
    assert sorted(built) == [mesh.ny, mesh.nx]          # built with the stage factors
    for stages in stepper.stages:
        for stage, n in zip(stages, (mesh.nx, mesh.ny)):
            assert stage.terms[0][0] is stepper.work.lines[n].ops[1]
    stepper.step(stepper.step(state))
    assert sorted(built) == [mesh.ny, mesh.nx]


def test_no_kernel_defaults_its_work_set_or_output():
    # one calling convention: every function of the module that takes a
    # work set or an output array takes it from its caller
    takers, defaulted = set(), []
    for name, obj in vars(pks2d).items():
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
        for qualname, f in members:
            if not (inspect.isfunction(f) and f.__module__ == pks2d.__name__):
                continue
            for p in inspect.signature(f).parameters.values():
                if p.name in ("work", "out"):
                    takers.add(qualname)
                    if p.default is not p.empty:
                        defaulted.append(f"{qualname}({p.name}=)")
    assert defaulted == []
    assert {"rhs", "edge_fluxes", "laplacian", "_upwind", "_axis_diff", "_nccd"} <= takers


def test_edge_fluxes_zero_on_boundary():
    state = gaussian_state(n=16)
    fl = edge_fluxes(state, PksVariant.EXPLICIT_OUCS3_CD2, _Work((16, 16)))
    assert np.all(fl.p[0, :] == 0) and np.all(fl.p[-1, :] == 0)
    assert np.all(fl.q[:, 0] == 0) and np.all(fl.q[:, -1] == 0)
    assert fl.p.shape == (17, 16) and fl.q.shape == (16, 17)


def test_state_validation():
    mesh = Mesh2D.unit_square(16)
    with pytest.raises(ValueError):
        PksState(mesh, np.zeros((16, 16)), np.zeros((16, 16)), 0.0, chi=30.0, theta=2.5)
    for rho, c in (((16, 16), (16, 15)), ((16, 15), (16, 16)), ((15, 16), (15, 16))):
        with pytest.raises(ValueError, match="do not match mesh"):
            PksState(mesh, np.zeros(rho), np.zeros(c), 0.0, chi=30.0, theta=1.0)
    with pytest.raises(ValueError):
        Mesh2D.unit_square(4)


@functools.lru_cache(maxsize=None)
def smooth_run(variant, n):
    """Sub-critical data away from blow-up on n^2 cells: rho0 = 100 exp(-50 r^2),
    c0 = 5 exp(-50 r^2), chi = 1, 250 steps of 2e-6. Returns rho and the
    relative mass drift."""
    state = init_gaussian(Mesh2D.unit_square(n), amplitude_rho=100.0, width_rho=50.0,
                          amplitude_c=5.0, width_c=50.0, chi=1.0)
    mass0, stepper = total_mass(state), make_stepper(variant, state.mesh, 2e-6)
    for _ in range(250):
        state = stepper.step(state)
    return state.rho, abs(total_mass(state) - mass0) / mass0


@pytest.mark.parametrize("variant", VARIANTS)
def test_smooth_data_converge_at_second_order_in_l1(variant):
    # the flux (edge velocities the mean of two cells, limited linear edge
    # densities) is second order; each coarse cell is read against the centre
    # cell of its 9x9 or 3x3 block of the 108^2 run, which shares its centre
    fine, _ = smooth_run(variant, 108)
    errors = []
    for n in (12, 36):
        r = 108 // n
        ref = fine[r // 2::r, r // 2::r]
        errors.append(np.abs(smooth_run(variant, n)[0] - ref).sum() / ref.sum())
    assert np.log(errors[0] / errors[1]) / np.log(3) >= 1.8


def test_explicit_variant_keeps_mass_on_smooth_data():
    # the imex-nccd drift (1.8e-8 to 1.0e-4 here) is its Laplacian's, not pinned
    assert all(smooth_run(EXPLICIT, n)[1] <= 1e-14 for n in (12, 36, 108))
