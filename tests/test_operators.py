import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adrlab import linalg, operators
from adrlab.operators import (
    BandedSystem,
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
from adrlab.linalg import solve_dense
from reference import dense, nccd_raw, residual_bound, residual_inf, solve_banded

ALL_BUILDERS = [
    ("cd2_first", lambda g: build_cd2_first(g)),
    ("cd2_second", lambda g: build_cd2_second(g)),
    ("oucs3", lambda g: build_oucs3(g)),
    ("lele", lambda g: build_lele_second(g)),
    ("nccd_d1", lambda g: build_nccd(g)[0]),
    ("nccd_d2", lambda g: build_nccd(g)[1]),
]


def unit_grid(n):
    return Grid1D(n, 1.0 / (n - 1), 0.0)


def interior_error(op, f, exact, lo=10):
    x = unit_grid(op.n_points).x()
    num = op.scale * (op @ f(x))
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
    assert np.max(np.abs(dense(op).sum(axis=1))) < 1e-8


@pytest.mark.parametrize("name,build", ALL_BUILDERS)
def test_constant_annihilated(name, build):
    op = build(unit_grid(64))
    assert np.max(np.abs(op.scale * (op @ np.ones(64)))) < 1e-8


def test_cd2_first_linear_exact():
    op = build_cd2_first(unit_grid(11))
    x = unit_grid(11).x()
    assert np.max(np.abs(op.scale * (op @ x)[1:-1] - 1.0)) < 1e-13


def test_cd2_first_convergence_ratio():
    e1 = interior_error(build_cd2_first(unit_grid(101)), np.sin, np.cos, lo=2)
    e2 = interior_error(build_cd2_first(unit_grid(201)), np.sin, np.cos, lo=2)
    assert 3.5 < e1 / e2 < 4.5  # second order: halving h quarters the error


def test_cd2_second_quadratic_exact():
    op = build_cd2_second(unit_grid(33))
    x = unit_grid(33).x()
    assert np.max(np.abs(op.scale * (op @ (x**2))[1:-1] - 2.0)) < 1e-10


def test_cd2_second_convergence_slope():
    s = two_step_slope(build_cd2_second, np.sin, lambda x: -np.sin(x), (101, 201, 401))
    assert s >= 1.9


def test_oucs3_linear_exact_interior():
    op = build_oucs3(unit_grid(101))
    x = unit_grid(101).x()
    assert np.max(np.abs(op.scale * (op @ x)[3:-3] - 1.0)) < 1e-8


def test_oucs3_boundary_rows_are_replaced_cd2():
    op = build_oucs3(unit_grid(41))
    m = dense(op)
    row = np.zeros(41)
    row[0], row[2] = -0.5, 0.5
    assert np.array_equal(m[1], row)
    assert np.array_equal(m[-2], row[::-1] * -1.0)


def test_oucs3_one_sided_end_rows():
    m = dense(build_oucs3(unit_grid(41)))
    assert np.allclose(m[0, :3], [-1.5, 2.0, -0.5], atol=1e-12)
    assert np.allclose(m[-1, -3:], [0.5, -2.0, 1.5], atol=1e-12)


def test_oucs3_modified_wavenumber_small_kh():
    op = build_oucs3(unit_grid(1001))
    keq = op.row_symbol(500, 0.01) / 1j
    assert abs(keq.real - 0.01) < 1e-5


def test_oucs3_stored_e_and_f_are_the_published_pair_exchanged():
    # Im S1 at node 500 of N = 1001 stays within 1 % of kh up to 0.159 with
    # the stored constants and up to 2.153 with E and F in their published
    # places, so swapping the stored pair fails here
    grid, kh = Grid1D(1001, 1.0), np.linspace(0.01, 2.0, 200)

    def resolved(coeffs):
        return np.abs(build_oucs3(grid, coeffs).row_symbol(500, kh).imag - kh) <= 0.01 * kh

    c = DEFAULT_OUCS3
    assert not resolved(c)[kh <= 0.25].all()
    assert resolved(replace(c, e=c.f, f=c.e)).all()


def test_oucs3_interior_error_is_first_order_dissipative():
    # the eta-upwinding contributes ~|eta| h u''/75 at interior rows, so the
    # sin-x error scales like h, not h^2
    s = two_step_slope(lambda g: build_oucs3(g), np.sin, np.cos, (201, 401, 801))
    assert 0.7 < s < 1.4
    op = build_oucs3(unit_grid(401))
    x = unit_grid(401).x()
    err_mid = abs(op.scale * (op @ np.sin(x))[200] - np.cos(x[200]))
    expect = abs(DEFAULT_OUCS3.eta) * unit_grid(401).h * abs(np.sin(x[200])) / 75.0
    assert 0.3 * expect < err_mid < 3.0 * expect


def test_lele_quadratic_exact():
    op = build_lele_second(unit_grid(64))
    x = unit_grid(64).x()
    assert np.max(np.abs(op.scale * (op @ (x**2))[3:-3] - 2.0)) < 1e-8


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
        err = np.abs(op.scale * (op @ np.sin(k * x)) + k**2 * np.sin(k * x))
        lo = max(10, n // 8)
        errs.append(np.max(err[lo:-lo]))
    s = 0.5 * np.log2(errs[0] / errs[2])
    assert s >= 4.0


def test_lele_boundary_rows_frozen():
    op = build_lele_second(unit_grid(41))
    # row 1 is eliminated through A^{-1}, but row 1 of A is identity with
    # rhs (1,-2,1): the assembled row must reproduce the CD2 values
    assert np.allclose(dense(op)[0, :3], [1.0, -2.0, 1.0], atol=1e-10)


def test_nccd_polynomial_exactness():
    n = 101
    d1, d2 = build_nccd(unit_grid(n))
    x = unit_grid(n).x()
    assert np.max(np.abs(d1.scale * (d1 @ x)[3:-3] - 1.0)) < 1e-8
    assert np.max(np.abs(d2.scale * (d2 @ x)[3:-3])) < 1e-8
    assert np.max(np.abs(d2.scale * (d2 @ (x**2))[3:-3] - 2.0)) < 1e-8
    assert np.max(np.abs(d1.scale * (d1 @ (x**2))[3:-3] - 2 * x[3:-3])) < 1e-8


@pytest.mark.parametrize("n", [51, 201])
def test_nccd_defining_relations_pre_fix(n):
    # the unpatched D1, D2 interleaved as (v_1, w_1, v_2, ...) solve the
    # banded system within the solver's residual contract
    grid = unit_grid(n)
    d1, d2 = nccd_raw(grid)
    lhs, rhs = nccd_system(grid)
    x = np.empty((2 * n, n))
    x[0::2], x[1::2] = dense(d1), dense(d2)
    a = dense(lhs)
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
    want = np.delete(solve_dense(dense(a), dense(b)), patched(n), axis=0)
    got = np.delete(dense(build(grid)), patched(n), axis=0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_nccd_boundary_fix_rows():
    n = 41
    d1, d2 = (dense(op) for op in build_nccd(unit_grid(n)))
    b2 = DEFAULT_OUCS3.beta2
    want = [2 * b2 / 3 - 1 / 3, -(8 * b2 / 3 + 0.5), 4 * b2 + 1, -(8 * b2 / 3 + 1 / 6), 2 * b2 / 3]
    assert np.allclose(d1[1, :5], want, atol=1e-14)
    assert np.count_nonzero(d1[1, 5:]) == 0
    assert np.allclose(d2[1, :3], [1.0, -2.0, 1.0], atol=1e-14)
    assert np.allclose(d2[-2, -3:], [1.0, -2.0, 1.0], atol=1e-14)


def test_small_grid_rejected():
    with pytest.raises(ValueError):
        build_oucs3(Grid1D(6, 1.0))
    with pytest.raises(ValueError):
        Grid1D(4, 1.0)


def cd2_patch(n, w):
    return [(1, 0, w), (n - 2, n - 3, w)]


def near_boundary_patch(n):
    b2, bn = DEFAULT_OUCS3.beta2, DEFAULT_OUCS3.beta_n
    row = lambda b: np.array([2 * b / 3 - 1 / 3, -(8 * b / 3 + 0.5), 4 * b + 1,
                              -(8 * b / 3 + 1 / 6), 2 * b / 3])
    return [(1, 0, row(b2)), (n - 2, n - 5, -row(bn)[::-1])]


@pytest.mark.parametrize("n", [41, 201])
def test_matrix_is_the_dense_solve_of_the_system_with_its_patch(n):
    # the dense operator is the LAPACK solve_banded(A, B), with the columns of B as
    # right-hand sides, to 1e-13 of each row's largest entry (its rows come
    # from transposed solves, another algorithm), and the patched rows are
    # the patch stencils exactly
    grid = unit_grid(n)
    cases = [
        (oucs3_system, [build_oucs3(grid)], [cd2_patch(n, (-0.5, 0.0, 0.5))]),
        (lele_system, [build_lele_second(grid)], [[]]),
        (nccd_system, list(build_nccd(grid)),
         [near_boundary_patch(n), cd2_patch(n, (1.0, -2.0, 1.0))]),
    ]
    for system, ops, patches in cases:
        y = solve_banded(*system(grid))
        for part, (op, patch) in enumerate(zip(ops, patches)):
            want = y[part::len(ops)].copy()
            for row, first, w in patch:
                want[row] = 0.0
                want[row, first:first + len(w)] = w
            m = dense(op)
            err = np.max(np.abs(m - want), axis=1)
            assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=1)), system.__name__
            for row, _, _ in patch:
                assert np.array_equal(m[row], want[row])


def count_row_solves(monkeypatch):
    """Calls of the banded factorization and of the row pass, as two lists."""
    factors, passes = [], []
    factor, rows = linalg.PartitionedLU, BandedSystem.solve_rows
    monkeypatch.setattr(operators, "PartitionedLU",
                        lambda *a: factors.append(1) or factor(*a))
    monkeypatch.setattr(BandedSystem, "solve_rows",
                        lambda self, *a: passes.append(1) or rows(self, *a))
    return factors, passes


def test_apply_matches_matrix_for_real_and_complex_input(rng):
    for name, build in ALL_BUILDERS:
        op = build(unit_grid(57))
        for u in (rng.normal(size=57), rng.normal(size=57) + 1j * rng.normal(size=57)):
            want = dense(op) @ u
            assert np.max(np.abs(op @ u - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_nccd_build_allocates_no_dense_matrix():
    n = 2001
    tracemalloc.start()
    try:
        d1, d2 = build_nccd(Grid1D(n, 1.0))
        d1 @ np.ones(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # one eighth of one dense N x N array


ROW_BUILDERS = ALL_BUILDERS + [
    ("nccd_d1_raw", lambda g: nccd_raw(g)[0]),
    ("nccd_d2_raw", lambda g: nccd_raw(g)[1]),
]


@pytest.mark.parametrize("n", [7, 64, 65, 1001])  # one block, exactly one, one column over
def test_row_is_the_matrix_row_bit_for_bit(n):
    # a row solved alone equals its row of the whole A^-1 B solved at once,
    # with the patch stencils written in
    for name, build in ROW_BUILDERS:
        op = build(Grid1D(n, 1.0))
        r = op.system.per_node
        m = op.system.solve_rows(range(r * n))[op.part::r]
        for row, first, w in op.patch:
            m[row] = np.pad(w, (first, n - first - len(w)))
        for j in (0, 1, n // 2, n - 2, n - 1):  # rows 1 and n-2 are the patched ones
            assert np.array_equal(op.row(j), m[j]), (name, j)


def test_nccd_pair_reads_its_rows_from_one_blocked_pass(monkeypatch):
    # one factorization and one pass of transposed solves serve both rows
    factors, passes = count_row_solves(monkeypatch)
    d1, d2 = build_nccd(Grid1D(1001, 1.0))
    d1.row(500), d2.row(500), d1.row_symbol(500, 0.3), d2.row_symbol(500, 0.3)
    assert (len(factors), len(passes)) == (1, 1)


def test_rows_at_n_1e5_match_the_operator(rng):
    # at N = 10^5 the interface systems of both factorizations are
    # partitioned again; row N-1 of Lele's D2 is its (11, 1) row
    n = 100_000
    grid = Grid1D(n, 1.0)
    u = rng.normal(size=n)
    for op in (*build_nccd(grid), build_lele_second(grid)):
        assert op.system.row_lu._child is not None
        du = op @ u
        for j in (2, n // 2, n - 3, n - 1):
            row = op.row(j)
            assert abs(row @ u - du[j]) <= 1e-12 * (np.abs(row) @ np.abs(u)), j


@pytest.mark.parametrize("node", [-1, 21])
def test_row_symbol_rejects_a_node_outside_the_grid(node):
    op = build_oucs3(Grid1D(21, 1.0))
    with pytest.raises(ValueError, match=rf"node {node} .*0\.\.20"):
        op.row_symbol(node, 0.5)
    with pytest.raises(ValueError, match=rf"node {node}"):
        op.row(node)
