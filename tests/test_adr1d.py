import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from adrlab.adr1d import (
    AdrConfig,
    AdrInstabilityError,
    ImplicitStage,
    SchemeId,
    SolutionState,
    make_stepper,
    run,
    scheme_operators,
    whole_steps,
    z_parts,
)
from adrlab.operators import (DEFAULT_OUCS3, DerivativeOperator, Grid1D, build_lele_second,
                               build_nccd, build_oucs3)
from reference import SpectralParams, dense, g_num, nccd_line_operators

N_SMALL = 101


def small_cfg(c=0.1, nu=1e-4, lam=-1.0, dt=0.01, n=N_SMALL, length=5.0):
    grid = Grid1D(n, 2 * length / (n - 1), -length)
    return AdrConfig(c, nu, lam, dt, grid)


def reaction_only_cfg(lam, dt=1.0, n=N_SMALL):
    # N_c and Pe made negligible rather than zero (c, nu must stay positive)
    grid = Grid1D(n, 1.0)
    return AdrConfig(1e-13, 1e-13, lam, dt, grid)


def test_nondimensional_groups():
    cfg = small_cfg(c=0.1, nu=1e-4, lam=-1.0, dt=0.01, n=1001, length=5.0)
    assert abs(cfg.grid.h - 0.01) < 1e-15
    assert abs(cfg.n_c - 0.1) < 1e-12
    assert abs(cfg.pe - 0.01) < 1e-10
    assert abs(cfg.da + 0.01) < 1e-15


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_zero_is_fixed_point(scheme):
    cfg = small_cfg()
    stepper = make_stepper(scheme, cfg)
    out = stepper.step(SolutionState(np.zeros(N_SMALL), 0.0))
    assert np.array_equal(out.values, np.zeros(N_SMALL))
    assert out.t == cfg.dt


def test_explicit_pure_reaction_heun_factor():
    da = -0.25
    cfg = reaction_only_cfg(lam=da)
    u0 = np.ones(N_SMALL)
    out = make_stepper(SchemeId.EXPLICIT_OUCS3_CD2, cfg).step(SolutionState(u0, 0.0))
    want = 1 + da + da**2 / 2
    assert np.max(np.abs(out.values[1:-1] - want)) < 1e-10


def test_implicit_pure_reaction_midpoint_factor():
    da = -0.25
    cfg = reaction_only_cfg(lam=da)
    stepper = make_stepper(SchemeId.IMPLICIT_OUCS3_LELE, cfg)
    out = stepper.step(SolutionState(np.ones(N_SMALL), 0.0))
    want = (1 + da / 2) / (1 - da / 2)
    assert np.max(np.abs(out.values[1:-1] - want)) < 1e-10


def test_imex_pure_reaction_composite_factor():
    da = -0.25
    cfg = reaction_only_cfg(lam=da)
    stepper = make_stepper(SchemeId.IMEX_OUCS3_LELE, cfg)
    out = stepper.step(SolutionState(np.ones(N_SMALL), 0.0))
    g_star = 1 + da / (1 - da / 2)
    want = 1 + (da / 2) * (1 + g_star)
    assert np.max(np.abs(out.values[1:-1] - want)) < 1e-10


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_single_mode_matches_spectral_theory(scheme, ops1001):
    # the binding contract between steppers and the spectral module
    grid = Grid1D(1001, 0.01, -5.0)
    cfg = AdrConfig(0.1, 1e-4, -1.0, 0.01, grid)
    ops = ops1001[scheme]
    stepper = make_stepper(scheme, cfg, ops)
    # both run adr1d.two_stage, so they differ by rounding alone
    for kh in np.linspace(0.0, np.pi, 17):
        u0 = np.exp(1j * kh * np.arange(1001))
        out = stepper.step(SolutionState(u0, 0.0))
        ratio = out.values[499] / u0[499]
        p = SpectralParams(kh, cfg.n_c, cfg.pe, cfg.da, 500)
        assert abs(ratio - g_num(scheme, p, ops)) < 1e-12, kh


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_linearity(scheme, rng):
    cfg = small_cfg()
    stepper = make_stepper(scheme, cfg)
    u = rng.normal(size=N_SMALL)
    v = rng.normal(size=N_SMALL)
    a, b = 0.7, -1.3
    lhs = stepper.step(SolutionState(a * u + b * v, 0.0)).values
    rhs = (a * stepper.step(SolutionState(u, 0.0)).values
           + b * stepper.step(SolutionState(v, 0.0)).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_determinism_bitwise(scheme, rng):
    cfg = small_cfg()
    u = rng.normal(size=N_SMALL)
    a = make_stepper(scheme, cfg).step(SolutionState(u.copy(), 0.0)).values
    b = make_stepper(scheme, cfg).step(SolutionState(u.copy(), 0.0)).values
    assert np.array_equal(a, b)


def test_run_zero_steps_returns_initial():
    cfg = small_cfg()
    u0 = SolutionState(np.zeros(N_SMALL), 0.0)
    out = run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, 0.0)
    assert len(out) == 1 and out[0] is u0


def test_run_reaction_decay_of_constant_field():
    da = -0.01
    cfg = reaction_only_cfg(lam=da, dt=1.0)
    u0 = SolutionState(np.ones(N_SMALL), 0.0)
    out = run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, 5.0)
    factor = (1 + da + da**2 / 2) ** 5
    # interior decays by the Heun factor each step; ends stay pinned
    assert abs(out[-1].values[N_SMALL // 2] - factor) < 1e-9
    assert out[-1].values[0] == 1.0


def test_run_snapshots_at_nearest_steps():
    cfg = small_cfg(dt=0.25)
    u0 = SolutionState(np.zeros(N_SMALL), 0.0)
    out = run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, 2.0, snapshot_times=[0.0, 0.9, 1.6])
    assert [s.t for s in out] == [0.0, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("t_end,snapshot", [(1.0, -0.25), (1.0, 1.25), (0.0, 0.25),
                                             (1.0, 1e308), (1.0, -1e308)])
def test_run_rejects_a_snapshot_outside_the_run(t_end, snapshot):
    # a time that rounds to no step of the run would never be written
    cfg = small_cfg(dt=0.25)
    u0 = SolutionState(np.zeros(N_SMALL), 0.0)
    with pytest.raises(ValueError, match=re.escape(f"snapshot time {snapshot:g} is outside")):
        run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, t_end, snapshot_times=[0.0, snapshot])


@pytest.mark.parametrize("t_end", [0.015, 0.3 + 1e-6, -0.01, float("nan")])
def test_run_rejects_t_end_off_the_step_grid(t_end):
    cfg = small_cfg(dt=0.01)
    u0 = SolutionState(np.zeros(N_SMALL), 0.0)
    with pytest.raises(ValueError):
        run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, t_end)


def test_whole_steps_tolerates_rounding_only():
    # 0.3/0.1 is 2.9999999999999996 in binary floating point
    assert whole_steps(0.3, 0.1) == 3
    assert whole_steps(10.0, 0.01) == 1000
    assert whole_steps(0.0, 0.01) == 0
    with pytest.raises(ValueError):
        whole_steps(1.0 + 1e-7, 0.5)
    with pytest.raises(ValueError):
        whole_steps(1.0, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_aborts_on_instability():
    # CFL far beyond the explicit stability limit blows up to inf quickly
    cfg = small_cfg(c=50.0, dt=0.01)
    assert cfg.n_c > 4
    x = cfg.grid.x()
    u0 = SolutionState(np.exp(-x**2), 0.0)
    with pytest.raises(AdrInstabilityError) as err:
        run(SchemeId.EXPLICIT_OUCS3_CD2, cfg, u0, 50.0)
    assert err.value.step > 0


def test_operator_grid_mismatch_rejected():
    cfg = small_cfg(n=101)
    d1, d2 = scheme_operators(SchemeId.EXPLICIT_OUCS3_CD2, Grid1D(51, 0.1))
    with pytest.raises(ValueError):
        make_stepper(SchemeId.EXPLICIT_OUCS3_CD2, cfg, (d1, d2)).step(
            SolutionState(np.zeros(101), 0.0))


def dense_step(scheme, cfg, ops, u):
    """One step of the two-stage template written with dense matrices: the
    stage matrices combined from D1, D2 and I, stage 1 solved by a dense LU
    with identity end rows, complex input as two real solves."""
    ci, ce = z_parts(scheme, cfg.n_c, cfg.pe, cfg.da)
    d1, d2 = dense(ops[0]), dense(ops[1])

    def combine(c):
        return c[0] * d1 + c[1] * d2 + c[2] * np.eye(len(u))

    us = u + combine([i / 2 + e for i, e in zip(ci, ce)]) @ u
    us[0], us[-1] = u[0], u[-1]
    if any(ci):
        m = combine([-ci[0] / 2, -ci[1] / 2, 1 - ci[2] / 2])
        m[[0, -1]] = 0.0
        m[0, 0] = m[-1, -1] = 1.0
        lu = lu_factor(m)
        us = lu_solve(lu, us.real) + (1j * lu_solve(lu, us.imag) if np.iscomplexobj(us) else 0)
    if any(ce):
        us = u + 0.5 * (combine([i + e for i, e in zip(ci, ce)]) @ (u + us))
        us[0], us[-1] = u[0], u[-1]
    return us


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_banded_step_matches_dense_reference(scheme, kind, rng):
    # N_c = 0.3, Pe = 0.225, Da = -0.01 on 151 nodes
    cfg = small_cfg(c=1.0, nu=0.05, lam=-0.5, dt=0.02, n=151)
    ops = scheme_operators(scheme, cfg.grid)
    u = rng.normal(size=151) + (1j * rng.normal(size=151) if kind == "complex" else 0.0)
    got = make_stepper(scheme, cfg, ops).step(SolutionState(u.copy(), 0.0)).values
    want = dense_step(scheme, cfg, ops, u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def stage_and_matrix(case):
    """An `ImplicitStage` and its matrix, dense, with identity end rows;
    for the mirror-closed stage, the matrix of its inner nodes."""
    if case == "pks-mirror-closure":
        # the PKS line factor alpha I - beta D2 on n cells: the stage on the
        # n + 2 nodes of the mirror-padded line, D2 folded (zero-Neumann)
        n, alpha, beta = 30, 1.25, 0.3
        d2 = build_nccd(Grid1D(n + 2, 1.0))[1]
        closure = ((0, 0, (1.0, -1.0)), (n + 1, n, (-1.0, 1.0)))
        stage = ImplicitStage(n + 2, alpha, [(d2, beta)], closure)
        return stage, alpha * np.eye(n) - beta * nccd_line_operators(n)[1]
    if case == "lele-adjacent-patches":
        # CD2 rows at rows 1 and 2 of a Lele D2: a patched row reads another
        n, cd2 = 41, (1.0, -2.0, 1.0)
        op = DerivativeOperator(2, 1.0, build_lele_second(Grid1D(n, 1.0)).system,
                                patch=((1, 0, cd2), (2, 1, cd2), (n - 2, n - 3, cd2)))
        stage, m = ImplicitStage(n, 1.0, [(op, 0.3)]), np.eye(n) - 0.3 * dense(op)
    else:
        cfg, scheme = small_cfg(c=1.0, nu=0.05, lam=-0.5, dt=0.02), SchemeId(case)
        stage, m = stepper_stage(scheme, cfg, scheme_operators(scheme, cfg.grid))
    m[[0, -1]] = np.eye(len(m))[[0, -1]]
    return stage, m


def stepper_stage(scheme, cfg, ops):
    """A stepper's `ImplicitStage` and its matrix I - z_I/2, dense."""
    ci = z_parts(scheme, cfg.n_c, cfg.pe, cfg.da)[0]
    m = ((1 - ci[2] / 2) * np.eye(cfg.grid.n_points)
         - ci[0] / 2 * dense(ops[0]) - ci[1] / 2 * dense(ops[1]))
    return make_stepper(scheme, cfg, ops).stage, m


@pytest.mark.parametrize("case", ["lele-adjacent-patches", "implicit-oucs3-lele",
                                  "imex-oucs3-lele", "imex-nccd", "pks-mirror-closure"])
def test_implicit_stage_solves_its_matrix(case, rng):
    stage, m = stage_and_matrix(case)
    y = rng.normal(size=len(m))
    w = stage.solve(y)
    if len(w) > len(y):  # the mirror-closed stage also returns its two ghosts
        assert max(abs(w[0] - w[1]), abs(w[-1] - w[-2])) <= 1e-12 * np.max(np.abs(w))
        w = w[1:-1]
    assert np.linalg.norm(m @ w - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("zero", [("beta2",), ("beta2", "beta_n")], ids="=".join)
def test_implicit_stage_with_a_zero_closure_weight(zero):
    # at beta2 = 0 OUCS3's B band at offset +3 is all zero (it holds only
    # row 1's weight 2 beta2/3), and at beta_n = 0 its band at -3 too: the
    # stage leaves them out and still solves its matrix
    cfg = small_cfg(c=1.0, nu=0.05, lam=-0.5, dt=0.02, n=41)
    d1 = build_oucs3(cfg.grid, replace(DEFAULT_OUCS3, **dict.fromkeys(zero, 0.0)))
    stage, m = stepper_stage(SchemeId.IMPLICIT_OUCS3_LELE, cfg, (d1, build_lele_second(cfg.grid)))
    m[[0, -1]] = np.eye(41)[[0, -1]]
    y = np.cos(np.arange(41.0))
    assert np.linalg.norm(m @ stage.solve(y) - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_operators_used_before_the_stepper_give_the_same_step(scheme, rng):
    # products and rows leave an operator as it was: a stepper built from
    # operators already used steps bit for bit the same
    cfg = small_cfg()
    u = rng.normal(size=N_SMALL)
    fresh, used = scheme_operators(scheme, cfg.grid), scheme_operators(scheme, cfg.grid)
    for op in used:
        op @ u
        dense(op)
    want = make_stepper(scheme, cfg, fresh).step(SolutionState(u.copy(), 0.0)).values
    got = make_stepper(scheme, cfg, used).step(SolutionState(u.copy(), 0.0)).values
    assert np.array_equal(got, want)
    for a, b in zip(fresh, used):
        assert np.array_equal(dense(a), dense(b))


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_stepper_memory_is_linear_in_n(scheme):
    # a single dense N x N array at N = 1e5 would take 80 GB
    grid = Grid1D(100_000, 10.0 / 99_999, -5.0)
    cfg = AdrConfig(0.1, 1e-4, -1.0, 0.01, grid)
    state = SolutionState(np.exp(-grid.x() ** 2), 0.0)
    tracemalloc.start()
    try:
        stepper = make_stepper(scheme, cfg, scheme_operators(scheme, grid))
        for _ in range(3):
            state = stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(state.values))
    # measured 21.9 / 78.0 / 45.6 / 67.1 MB (explicit / implicit /
    # imex-oucs3-lele / imex-nccd); the implicit set-up peaks while the
    # stage's partitioned LU is built from its assembled matrix (three
    # unknowns per node, 20 weights per row)
    assert peak < 80e6, f"peak {peak / 1e6:.1f} MB"
