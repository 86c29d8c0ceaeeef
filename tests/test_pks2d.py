import json

import numpy as np
import pytest

from adrlab.pks2d import (
    ExplicitPksStepper,
    Field2D,
    ImexNccdStepper,
    Mesh2D,
    NonFiniteError,
    PksState,
    PksVariant,
    PositivityError,
    adaptive_slopes,
    c_rhs,
    chemotactic_velocity,
    diagnostics,
    edge_fluxes,
    init_gaussian,
    make_stepper,
    minmod,
    oscillation_metric,
    radial_profile,
    reconstruct_edges,
    rho_rhs,
    total_mass,
    write_metadata,
    write_radial_csv,
    write_snapshot_csv,
)

VARIANTS = [PksVariant.EXPLICIT_OUCS3_CD2, PksVariant.IMEX_NCCD]


def state_from(mesh, rho, c, chi=30.0, theta=1.0):
    return PksState(Field2D(mesh, rho), Field2D(mesh, c), 0.0, chi, theta)


def gaussian_state(n=32, chi=30.0):
    return init_gaussian(Mesh2D.unit_square(n), chi=chi)


def test_init_center_density_and_mass():
    state = init_gaussian(Mesh2D.unit_square(200))
    assert state.rho.values.max() > 990.0          # one-cell Taylor error off 1000
    mass = total_mass(state)
    assert abs(mass - 10 * np.pi) / (10 * np.pi) < 1e-3
    # supercritical by a wide margin: threshold is 8 pi / chi
    assert mass > 8 * np.pi / state.chi


def test_velocity_constant_field_is_zero():
    mesh = Mesh2D.unit_square(32)
    c = Field2D(mesh, np.full((32, 32), 7.0))
    for variant in VARIANTS:
        u, v, ue, ve = chemotactic_velocity(c, variant)
        assert np.max(np.abs(u)) < 1e-10 and np.max(np.abs(v)) < 1e-10
        assert np.max(np.abs(ue)) < 1e-10 and np.max(np.abs(ve)) < 1e-10


def test_velocity_linear_field_interior():
    # a linear c violates the zero-Neumann walls, so exactness holds away
    # from the boundary; the compact operator's mirror-ghost influence
    # decays like ~0.4^rows, hence the wider interior margin for it
    n = 64
    mesh = Mesh2D.unit_square(n)
    x, y = mesh.centers()
    c = Field2D(mesh, np.broadcast_to(x[:, None], (n, n)).copy())
    u, v, _, _ = chemotactic_velocity(c, PksVariant.EXPLICIT_OUCS3_CD2)
    assert np.max(np.abs(u[1:-1, :] - 1.0)) < 1e-12
    assert np.max(np.abs(v)) < 1e-12
    u2, v2, _, _ = chemotactic_velocity(c, PksVariant.IMEX_NCCD)
    assert np.max(np.abs(u2[25:-25, :] - 1.0)) < 1e-8
    assert np.max(np.abs(v2)) < 1e-8


def test_velocity_radial_antisymmetry():
    mesh = Mesh2D.unit_square(32)
    x, y = mesh.centers()
    c = Field2D(mesh, np.exp(-3.0 * (x[:, None] ** 2 + y[None, :] ** 2)))
    u, v, _, _ = chemotactic_velocity(c, PksVariant.EXPLICIT_OUCS3_CD2)
    assert np.max(np.abs(u + u[::-1, :])) < 1e-12
    assert np.max(np.abs(v + v[:, ::-1])) < 1e-12
    # the compact variant's one-sided closures are only mirror-symmetric up
    # to the beta2/betaN asymmetry in the first/last cells; interior rows
    # are exactly equivariant
    u2, v2, _, _ = chemotactic_velocity(c, PksVariant.IMEX_NCCD)
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
    sx, sy = adaptive_slopes(Field2D(mesh, np.full((16, 16), 3.0)), 1.0)
    assert np.max(np.abs(sx)) == 0.0 and np.max(np.abs(sy)) == 0.0


def test_slopes_restore_positivity_on_steep_front():
    mesh = Mesh2D.unit_square(16)
    rho = np.full((16, 16), 1e-8)
    rho[8:, :] = 1.0  # centered slope at the foot would overshoot below zero
    f = Field2D(mesh, rho)
    sx, _ = adaptive_slopes(f, 1.0)
    h = mesh.h
    assert np.all(rho - 0.5 * h * sx >= 0)
    assert np.all(rho + 0.5 * h * sx >= 0)


def test_reconstruction_uniform_field_wind_independent():
    mesh = Mesh2D.unit_square(16)
    rho = Field2D(mesh, np.full((16, 16), 2.5))
    slopes = adaptive_slopes(rho, 1.0)
    for sign in (1.0, -1.0):
        ue = sign * np.ones((15, 16))
        ve = sign * np.ones((16, 15))
        xe, ye = reconstruct_edges(rho, slopes, ue, ve)
        assert np.max(np.abs(xe - 2.5)) < 1e-14
        assert np.max(np.abs(ye - 2.5)) < 1e-14


def test_reconstruction_linear_field_exact_upwind():
    mesh = Mesh2D.unit_square(16)
    x, _ = mesh.centers()
    rho = Field2D(mesh, 5.0 + np.broadcast_to(x[:, None], (16, 16)).copy())
    slopes = adaptive_slopes(rho, 1.0)
    ue = np.ones((15, 16))
    ve = np.ones((16, 15))
    xe, _ = reconstruct_edges(rho, slopes, ue, ve)
    edges = 5.0 + (x[:-1] + mesh.h / 2)
    assert np.max(np.abs(xe - edges[:, None])) < 1e-12


def test_reconstruction_nonnegative_randomized(rng):
    # positivity of reconstructed edge values over many random fields/winds
    mesh = Mesh2D.unit_square(12)
    checks = 0
    for _ in range(120):
        rho = Field2D(mesh, rng.random((12, 12)) ** 3)
        slopes = adaptive_slopes(rho, theta=float(1.0 + rng.random()))
        ue = rng.normal(size=(11, 12))
        ve = rng.normal(size=(12, 11))
        xe, ye = reconstruct_edges(rho, slopes, ue, ve)
        assert xe.min() >= 0.0 and ye.min() >= 0.0
        checks += xe.size + ye.size
    assert checks > 10_000


def test_rho_rhs_trivial_zero():
    mesh = Mesh2D.unit_square(16)
    state = state_from(mesh, np.full((16, 16), 2.0), np.full((16, 16), 5.0))
    for variant in VARIANTS:
        assert np.max(np.abs(rho_rhs(state, variant).values)) < 1e-9


def test_rho_rhs_reduces_to_laplacian_without_chemotaxis():
    # chi -> 0 limit checked against the analytic Laplacian with slope ~2
    errs = []
    for n in (32, 64):
        mesh = Mesh2D.unit_square(n)
        x, y = mesh.centers()
        rho = 2.0 + np.cos(np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]
        lap = -2 * np.pi**2 * (rho - 2.0)
        state = state_from(mesh, rho, np.ones((n, n)), chi=1e-30)
        got = rho_rhs(state, PksVariant.EXPLICIT_OUCS3_CD2).values
        errs.append(np.max(np.abs(got - lap)[2:-2, 2:-2]))
    assert 1.7 < np.log2(errs[0] / errs[1]) < 2.3


def test_rho_rhs_telescopes_to_zero(rng):
    mesh = Mesh2D.unit_square(24)
    x, y = mesh.centers()
    rho = 1.0 + rng.random((24, 24))
    c = np.exp(-2.0 * (x[:, None] ** 2 + y[None, :] ** 2))
    state = state_from(mesh, rho, c)
    rhs = rho_rhs(state, PksVariant.EXPLICIT_OUCS3_CD2).values
    scale = np.max(np.abs(rhs))
    assert abs(rhs.sum()) < 1e-10 * max(scale, 1.0) * rhs.size


def test_c_rhs_forms():
    mesh = Mesh2D.unit_square(16)
    x, y = mesh.centers()
    f = np.exp(-(x[:, None] ** 2 + y[None, :] ** 2))
    state = state_from(mesh, f.copy(), f.copy())
    got = c_rhs(state, PksVariant.EXPLICIT_OUCS3_CD2).values
    from adrlab.pks2d import laplacian
    assert np.max(np.abs(got - laplacian(state.c, PksVariant.EXPLICIT_OUCS3_CD2))) < 1e-12
    state0 = state_from(mesh, f.copy(), np.zeros((16, 16)))
    assert np.max(np.abs(c_rhs(state0, PksVariant.EXPLICIT_OUCS3_CD2).values - f)) < 1e-14


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
    res = c_rhs(state, PksVariant.EXPLICIT_OUCS3_CD2).values
    assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_zero_fields(variant):
    mesh = Mesh2D.unit_square(16)
    state = state_from(mesh, np.zeros((16, 16)), np.zeros((16, 16)))
    out = make_stepper(variant, mesh, 1e-8).step(state)
    assert np.max(np.abs(out.rho.values)) == 0.0
    assert np.max(np.abs(out.c.values)) == 0.0
    assert out.t == 1e-8


def test_explicit_step_conserves_mass_per_step():
    state = gaussian_state(n=64)
    stepper = ExplicitPksStepper(1e-8)
    m0 = total_mass(state)
    out = stepper.step(state)
    assert abs(total_mass(out) - m0) / m0 < 1e-10


def test_explicit_step_conserves_mass_without_chemotaxis():
    state = gaussian_state(n=32, chi=1e-30)
    out = ExplicitPksStepper(1e-7).step(state)
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


def test_explicit_step_is_heun_bit_for_bit():
    state = gaussian_state(n=32)
    mesh, dt = state.rho.mesh, 1e-8
    fr, fc = rho_rhs(state).values, c_rhs(state).values
    mid = PksState(Field2D(mesh, state.rho.values + dt * fr),
                   Field2D(mesh, state.c.values + dt * fc), dt, state.chi, state.theta)
    rho = state.rho.values + 0.5 * dt * (fr + rho_rhs(mid).values)
    c = state.c.values + 0.5 * dt * (fc + c_rhs(mid).values)
    out = ExplicitPksStepper(dt).step(state)
    assert (out.rho.values == rho).all() and (out.c.values == c).all()
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
        assert np.max(np.abs(f_t.values.T - f.values)) <= rel * np.max(np.abs(f.values))


def test_imex_positivity_violation_raises():
    # chi = 30 drives the advective CFL far above one at this dt; the step
    # must fail loudly rather than return a negative or non-finite field
    state = gaussian_state(n=32)
    stepper = ImexNccdStepper(state.rho.mesh, 1e-5)
    with pytest.raises((PositivityError, NonFiniteError)):
        cur = state
        for _ in range(10):
            cur = stepper.step(cur)


@pytest.mark.parametrize("variant", VARIANTS)
def test_symmetry_preserved_on_short_run(variant):
    state = gaussian_state(n=64)
    stepper = make_stepper(variant, state.rho.mesh, 1e-8)
    for _ in range(20):
        state = stepper.step(state)
    rho = state.rho.values
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
    assert prof[0] == state.rho.values.max()


def test_writers(tmp_path):
    state = gaussian_state(n=16)
    write_snapshot_csv(state, tmp_path / "snap.csv")
    lines = (tmp_path / "snap.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,rho,c" and len(lines) == 1 + 16 * 16
    write_radial_csv(state, tmp_path / "rad.csv")
    assert (tmp_path / "rad.csv").read_text().startswith("r,rho\n0,")
    write_metadata(tmp_path / "meta.json", PksVariant.IMEX_NCCD, 1e-6, 1e-5,
                   state.rho.mesh, 30.0, 1.0, [diagnostics(state)])
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["variant"] == "imex-nccd"
    assert meta["mesh"]["nx"] == 16
    assert meta["diagnostics"][0]["mass"] == pytest.approx(total_mass(state))


def test_edge_fluxes_zero_on_boundary():
    state = gaussian_state(n=16)
    fl = edge_fluxes(state, PksVariant.EXPLICIT_OUCS3_CD2)
    assert np.all(fl.p[0, :] == 0) and np.all(fl.p[-1, :] == 0)
    assert np.all(fl.q[:, 0] == 0) and np.all(fl.q[:, -1] == 0)
    assert fl.p.shape == (17, 16) and fl.q.shape == (16, 17)


def test_state_validation():
    mesh = Mesh2D.unit_square(16)
    with pytest.raises(ValueError):
        PksState(Field2D(mesh, np.zeros((16, 16))),
                 Field2D(mesh, np.zeros((16, 16))), 0.0, chi=30.0, theta=2.5)
    with pytest.raises(ValueError):
        Mesh2D.unit_square(4)
