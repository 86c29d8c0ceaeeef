import numpy as np
import pytest

from adrlab.operators import (
    DEFAULT_OUCS3,
    Grid1D,
    build_cd2_first,
    build_cd2_second,
    build_lele_second,
    build_nccd,
    build_oucs3,
    lele_system,
    nccd_system,
    oucs3_system,
)
from adrlab.linalg import residual_bound, residual_inf, solve_dense

ALL_BUILDERS = [
    ("cd2_first", lambda g: build_cd2_first(g)),
    ("cd2_second", lambda g: build_cd2_second(g)),
    ("oucs3", lambda g: build_oucs3(g)),
    ("lele", lambda g: build_lele_second(g)),
    ("nccd_d1", lambda g: build_nccd(g)[0]),
    ("nccd_d2", lambda g: build_nccd(g)[1]),
]


def unit_grid(n):
    return Grid1D.on_interval(0.0, 1.0, n)


def interior_error(op, f, exact, lo=10):
    grid = Grid1D.on_interval(0.0, 1.0, op.n_points)
    x = grid.x()
    num = op.apply(f(x))
    return np.max(np.abs(num - exact(x))[lo:-lo])


def two_step_slope(build, f, exact, sizes):
    errs = [interior_error(build(unit_grid(n)), f, exact) for n in sizes]
    return 0.5 * np.log2(errs[0] / errs[2])


def test_oucs3_coefficient_identities():
    c = DEFAULT_OUCS3
    q = c.q()
    # constants annihilated exactly; linear functions reproduced to the
    # rounding level of the published ten-digit constants
    assert abs(q.sum()) < 1e-15
    assert abs((q * np.arange(-2, 3)).sum() - (1 + c.p_minus + c.p_plus)) < 1e-9
    assert abs(c.e + c.f - (1 + 2 * c.d)) < 1e-9


@pytest.mark.parametrize("name,build", ALL_BUILDERS)
def test_row_sums_vanish(name, build):
    op = build(unit_grid(201))
    assert np.max(np.abs(op.matrix.sum(axis=1))) < 1e-8


@pytest.mark.parametrize("name,build", ALL_BUILDERS)
def test_constant_annihilated(name, build):
    op = build(unit_grid(64))
    assert np.max(np.abs(op.apply(np.ones(64)))) < 1e-8


def test_cd2_first_linear_exact():
    op = build_cd2_first(unit_grid(11))
    x = unit_grid(11).x()
    assert np.max(np.abs(op.apply(x)[1:-1] - 1.0)) < 1e-13


def test_cd2_first_convergence_ratio():
    e1 = interior_error(build_cd2_first(unit_grid(101)), np.sin, np.cos, lo=2)
    e2 = interior_error(build_cd2_first(unit_grid(201)), np.sin, np.cos, lo=2)
    assert 3.5 < e1 / e2 < 4.5  # second order: halving h quarters the error


def test_cd2_second_quadratic_exact():
    op = build_cd2_second(unit_grid(33))
    x = unit_grid(33).x()
    assert np.max(np.abs(op.apply(x**2)[1:-1] - 2.0)) < 1e-10


def test_cd2_second_convergence_slope():
    s = two_step_slope(build_cd2_second, np.sin, lambda x: -np.sin(x), (101, 201, 401))
    assert s >= 1.9


def test_oucs3_linear_exact_interior():
    op = build_oucs3(unit_grid(101))
    x = unit_grid(101).x()
    assert np.max(np.abs(op.apply(x)[3:-3] - 1.0)) < 1e-8


def test_oucs3_boundary_rows_are_replaced_cd2():
    op = build_oucs3(unit_grid(41))
    m = op.matrix
    row = np.zeros(41)
    row[0], row[2] = -0.5, 0.5
    assert np.array_equal(m[1], row)
    assert np.array_equal(m[-2], row[::-1] * -1.0)


def test_oucs3_one_sided_end_rows():
    op = build_oucs3(unit_grid(41))
    assert np.allclose(op.matrix[0, :3], [-1.5, 2.0, -0.5], atol=1e-12)
    assert np.allclose(op.matrix[-1, -3:], [0.5, -2.0, 1.5], atol=1e-12)


def test_oucs3_modified_wavenumber_small_kh():
    op = build_oucs3(unit_grid(1001))
    keq = op.row_symbol(500, 0.01) / 1j
    assert abs(keq.real - 0.01) < 1e-5


def test_oucs3_interior_error_is_first_order_dissipative():
    # the eta-upwinding contributes ~|eta| h u''/75 at interior rows, so the
    # sin-x error scales like h, not h^2
    s = two_step_slope(lambda g: build_oucs3(g), np.sin, np.cos, (201, 401, 801))
    assert 0.7 < s < 1.4
    op = build_oucs3(unit_grid(401))
    x = unit_grid(401).x()
    err_mid = abs(op.apply(np.sin(x))[200] - np.cos(x[200]))
    expect = abs(DEFAULT_OUCS3.eta) * unit_grid(401).h * abs(np.sin(x[200])) / 75.0
    assert 0.3 * expect < err_mid < 3.0 * expect


def test_lele_quadratic_exact():
    op = build_lele_second(unit_grid(64))
    x = unit_grid(64).x()
    assert np.max(np.abs(op.apply(x**2)[3:-3] - 2.0)) < 1e-8


def test_lele_interior_convergence_slope():
    # measured at a resolvable wavenumber so the sixth-order error stays
    # well above roundoff, and away from the ends so the lower-order
    # boundary closures do not pollute the interior rate
    k = 20.0
    errs = []
    for n in (81, 161, 321):
        grid = unit_grid(n)
        x = grid.x()
        op = build_lele_second(grid)
        err = np.abs(op.apply(np.sin(k * x)) + k**2 * np.sin(k * x))
        lo = max(10, n // 8)
        errs.append(np.max(err[lo:-lo]))
    s = 0.5 * np.log2(errs[0] / errs[2])
    assert s >= 4.0


def test_lele_boundary_rows_frozen():
    op = build_lele_second(unit_grid(41))
    # row 1 is eliminated through A^{-1}, but row 1 of A is identity with
    # rhs (1,-2,1): the assembled row must reproduce the CD2 values
    assert np.allclose(op.matrix[0, :3], [1.0, -2.0, 1.0], atol=1e-10)


def test_nccd_polynomial_exactness():
    n = 101
    d1, d2 = build_nccd(unit_grid(n))
    x = unit_grid(n).x()
    assert np.max(np.abs(d1.apply(x)[3:-3] - 1.0)) < 1e-8
    assert np.max(np.abs(d2.apply(x)[3:-3])) < 1e-8
    assert np.max(np.abs(d2.apply(x**2)[3:-3] - 2.0)) < 1e-8
    assert np.max(np.abs(d1.apply(x**2)[3:-3] - 2 * x[3:-3])) < 1e-8


@pytest.mark.parametrize("n", [51, 201])
def test_nccd_defining_relations_pre_fix(n):
    # the unpatched D1, D2 interleaved as (v_1, w_1, v_2, ...) solve the
    # banded system within the solver's residual contract
    grid = unit_grid(n)
    d1, d2 = build_nccd(grid, boundary_fix=False)
    lhs, rhs = nccd_system(grid)
    x = np.empty((2 * n, n))
    x[0::2], x[1::2] = d1.matrix, d2.matrix
    a = lhs.to_dense()
    assert (lhs.lower, lhs.upper) == (3, 3)
    assert residual_inf(a, x, rhs) <= residual_bound(a, x, rhs)


@pytest.mark.parametrize("system,build,patched", [
    (oucs3_system, build_oucs3, lambda n: [1, n - 2]),
    (lele_system, build_lele_second, lambda n: []),
])
@pytest.mark.parametrize("n", [51, 201])
def test_banded_assembly_matches_dense_solve(system, build, patched, n):
    grid = unit_grid(n)
    a, b = system(grid)
    assert (a.lower, a.upper) == (1, 1)
    want = np.delete(solve_dense(a.to_dense(), b), patched(n), axis=0)
    got = np.delete(build(grid).matrix, patched(n), axis=0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_nccd_boundary_fix_rows():
    n = 41
    d1, d2 = build_nccd(unit_grid(n))
    b2 = DEFAULT_OUCS3.beta2
    want = [2 * b2 / 3 - 1 / 3, -(8 * b2 / 3 + 0.5), 4 * b2 + 1, -(8 * b2 / 3 + 1 / 6), 2 * b2 / 3]
    assert np.allclose(d1.matrix[1, :5], want, atol=1e-14)
    assert np.count_nonzero(d1.matrix[1, 5:]) == 0
    assert np.allclose(d2.matrix[1, :3], [1.0, -2.0, 1.0], atol=1e-14)
    assert np.allclose(d2.matrix[-2, -3:], [1.0, -2.0, 1.0], atol=1e-14)


def test_small_grid_rejected():
    with pytest.raises(ValueError):
        build_oucs3(Grid1D(6, 1.0))
    with pytest.raises(ValueError):
        Grid1D(4, 1.0)
