import numpy as np
import pytest

from adrlab import linalg
from adrlab.linalg import (
    LinearSolveError,
    PartitionedLU,
    StencilMatrix,
    solve_dense,
    tridiagonal,
)
from reference import dense, from_dense, residual_bound, residual_inf, solve_banded, sparse


def test_banded_identity():
    a = tridiagonal(0.0, np.ones(3), 0.0)
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(solve_banded(a, b), b)


def test_banded_constructed_exact_solution():
    # tridiag(1, 10, 1), rhs = row sums -> all-ones solution
    a = tridiagonal(1.0, 10.0 * np.ones(5), 1.0)
    b = dense(a) @ np.ones(5)
    x = solve_banded(a, b)
    assert np.allclose(x, 1.0, rtol=0, atol=1e-13)


def test_banded_matches_dense_lu(rng):
    n = 40
    lo = rng.normal(size=n)
    up = rng.normal(size=n)
    diag = 4.0 + rng.random(n)  # diagonally dominant
    a = tridiagonal(lo, diag, up)
    full = dense(a)
    b = rng.normal(size=(n, 3))
    xb = solve_banded(a, b)
    xd = solve_dense(full, b)
    assert np.max(np.abs(xb - xd)) < 1e-10
    assert residual_inf(full, xb, b) <= residual_bound(full, xb, b)


def test_band_roundtrip(rng):
    full = np.triu(np.tril(rng.normal(size=(7, 7)), 1), -2)
    a = from_dense(full, 2, 1)
    assert (a.lower, a.upper) == (2, 1)
    assert np.array_equal(dense(a), full)
    assert np.array_equal(dense(a.transpose()), full.T)
    assert np.array_equal(a.transpose().weights, from_dense(full.T, 1, 2).weights)


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


def test_stencil_weights_outside_the_matrix_are_dropped(rng):
    # weights[k, i] is entry (i, i - lower + k); the weights left of column
    # 0 or right of the last column, NaN here, change no result, bit for
    # bit. At n = 65 the factorization has two blocks, the second of one
    # row, so the first block holds a row that reaches past the last column.
    n, lower, upper = 65, 3, 2
    weights = rng.normal(size=(lower + upper + 1, n))
    weights[lower] += 2.0 * (lower + upper + 1)
    want = np.zeros((n, n))
    for i in range(n):
        for k in range(lower + upper + 1):
            if 0 <= i - lower + k < n:
                want[i, i - lower + k] = weights[k, i]
            else:
                weights[k, i] = np.nan
    a, clean = StencilMatrix(weights, lower), from_dense(want, lower, upper)
    assert np.array_equal(dense(a), want)
    assert np.array_equal(dense(a.transpose()), want.T)
    assert np.array_equal(bits(a.transpose().weights), bits(clean.transpose().weights))
    v, y = rng.normal(size=n), rng.normal(size=(n, 3))
    b = StencilMatrix(rng.normal(size=(3, n)), 1)
    assert PartitionedLU(a, b).blocks == 2
    for got, ref in [(a.tdot(y), clean.tdot(y)),
                     (PartitionedLU(a, b).solve(v), PartitionedLU(clean, b).solve(v)),
                     (PartitionedLU(a.transpose()).solve(v),
                      PartitionedLU(clean.transpose()).solve(v))]:
        assert np.array_equal(bits(got), bits(ref))
    assert np.allclose(PartitionedLU(a).solve(want @ v), v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("weights, lower, per_node", [
    (np.ones(6), 0, 1),
    (np.ones((3, 6)), 3, 1),
    (np.ones((3, 6)), -1, 1),
    (np.ones((3, 6)), 1, 4),
], ids=["one-dimensional", "lower-past-the-width", "negative-lower", "partial-node"])
def test_stencil_matrix_rejects_a_malformed_shape(weights, lower, per_node):
    with pytest.raises(ValueError):
        StencilMatrix(weights, lower, per_node)


def test_tridiagonal_per_row_arrays():
    lo, diag, up = np.array([9.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.0]), np.array([6.0, 7.0, 9.0])
    want = np.array([[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0, 5.0]])
    assert np.array_equal(dense(tridiagonal(lo, diag, up)), want)


def test_banded_singular_raises():
    a = tridiagonal(0.0, np.zeros(4), 0.0)
    with pytest.raises(LinearSolveError):
        solve_banded(a, np.ones(4))
    with pytest.raises(LinearSolveError):
        PartitionedLU(a)


def test_banded_factor_keeps_the_matrix_and_solves_complex_input(rng):
    # the weights outside the matrix are nonzero and stay as they are
    a = StencilMatrix(rng.uniform(-1, 1, (4, 12)) + [[0], [0], [4], [0]], 2)
    weights = a.weights.copy()
    lu = PartitionedLU(a)
    assert np.array_equal(a.weights, weights)
    b = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert np.max(np.abs(dense(a) @ lu.solve(b) - b)) < 1e-12


def test_dense_scaled_identity():
    a = 2.0 * np.eye(4)
    x = solve_dense(a, np.eye(4))
    assert np.allclose(x, 0.5 * np.eye(4), rtol=0, atol=0)


def test_dense_permutation_inverse_is_transpose():
    p = np.eye(5)[[3, 0, 4, 1, 2]]
    assert np.allclose(solve_dense(p, np.eye(5)), p.T, rtol=0, atol=0)


def test_dense_residual_contract(rng):
    a = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
    b = rng.normal(size=(20, 4))
    x = solve_dense(a, b)
    assert residual_inf(a, x, b) <= residual_bound(a, x, b)


def test_dense_singular_raises():
    a = np.ones((3, 3))
    with pytest.raises(LinearSolveError):
        solve_dense(a, np.ones(3))


def test_inverse_roundtrip(rng):
    a = rng.normal(size=(30, 30)) + 10.0 * np.eye(30)
    inv = solve_dense(a, np.eye(30))
    assert np.max(np.abs(a @ inv - np.eye(30))) < 1e-9


def random_band(rng, n, lower, upper, dominant):
    weights = rng.normal(size=(lower + upper + 1, n))  # weights outside the matrix too
    if dominant:
        weights[lower] += 2.0 * (lower + upper + 1)
    return StencilMatrix(weights, lower)


def test_transposed_lu_pivots_past_a_zero_diagonal():
    # a^T = [[0, 1, 0], [1, 0, 1], [0, 1, 0.5]]: one diagonal block, no LU
    # of it without row interchanges
    a = tridiagonal(1.0, np.array([0.0, 0.0, 0.5]), 1.0)
    lu = PartitionedLU(a.transpose())
    assert lu.blocks == 1
    x = np.column_stack([lu.solve(e) for e in np.eye(3)])
    assert np.allclose(x, np.linalg.inv(dense(a).T), rtol=0, atol=1e-15)


@pytest.mark.parametrize("a", [
    tridiagonal(0.0, np.zeros(4), 0.0),
    StencilMatrix(np.array([[0, 1, 1], [1, 1, 0], [0, 1, 0], [0, 1, 0]]).T, 1),  # rows 0, 1 equal
    tridiagonal(0.0, np.array([1.0, np.nan, 1.0]), 0.0),
], ids=["zero-diagonal", "singular", "nan"])
def test_transposed_lu_zero_pivot_raises(a):
    with pytest.raises(LinearSolveError, match="singular"):
        PartitionedLU(a.transpose())


def test_transposed_solve_of_a_non_finite_rhs_raises():
    from adrlab.operators import BandedSystem

    weights = np.ones((3, 5))
    weights[1, 3] = np.inf
    system = BandedSystem(tridiagonal(1.0, 4.0 * np.ones(5), 1.0), StencilMatrix(weights, 1))
    with pytest.raises(LinearSolveError, match="non-finite"), np.errstate(invalid="ignore"):
        system.solve_rows(range(5))


def test_one_column_alone_equals_its_column_of_a_many_column_solve(rng):
    from adrlab.operators import BandedSystem

    system = BandedSystem(random_band(rng, 60, 3, 2, dominant=False),
                          StencilMatrix(rng.normal(size=(5, 60)), 2))
    many = system.solve_rows(range(9))
    for c in range(9):
        alone = system.solve_rows(range(c, c + 1))[0]
        assert np.array_equal(alone.view(np.int64), many[c].view(np.int64)), c


def test_solve_leaves_its_right_hand_side_as_it_is(rng):
    lu = PartitionedLU(random_band(rng, 20, 1, 1, dominant=True).transpose())
    b = rng.normal(size=20)
    keep = b.copy()
    lu.solve(b)
    assert np.array_equal(b, keep)


@pytest.mark.parametrize("per_node, lower", [(1, 3), (2, 2)])
def test_stencil_matrix_forms_agree(rng, per_node, lower):
    n = 9
    weights = rng.normal(size=(2 * lower + 1, per_node * n))
    weights[1, 4] = 0.0
    b = StencilMatrix(weights, lower, per_node)
    assert b.shape == (per_node * n, n)
    want = np.zeros(b.shape)
    for k in range(2 * lower + 1):
        for i in range(per_node * n):
            c = i // per_node + k - lower
            if 0 <= c < n:
                want[i, c] = weights[k, i]
    assert np.array_equal(dense(b), want)
    v = rng.normal(size=n)
    assert np.allclose(sparse(b) @ v, want @ v, rtol=0, atol=1e-13)
    y = rng.normal(size=(per_node * n, 4))
    assert np.allclose(b.tdot(y), want.T @ y, rtol=0, atol=1e-13)
    for c in range(4):
        assert np.array_equal(b.tdot(y[:, c:c + 1])[:, 0], b.tdot(y)[:, c])


def test_inverse_rows_are_rows_of_the_dense_solve(rng):
    from adrlab.operators import BandedSystem

    n = 11
    a = random_band(rng, 2 * n, 3, 3, dominant=False)
    b = StencilMatrix(rng.normal(size=(5, 2 * n)), 2, per_node=2)
    want = solve_dense(dense(a), dense(b))
    rows = range(3, 2 * n)
    got = BandedSystem(a, b).solve_rows(rows)
    assert got.shape == (len(rows), n)
    assert np.max(np.abs(got - want[3:])) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(BandedSystem(a, b).solve_rows(range(7, 8))[0], got[4])


# The partitioned factorization of every matrix a stepper factors, against
# LAPACK (`reference.solve_banded`).

def stage_config(n):
    from adrlab.adr1d import AdrConfig
    from adrlab.operators import Grid1D

    # N_c = 0.3, Pe = 0.225, Da = -0.01 (the banded-step test's) at any n
    return AdrConfig(15.0, 11.25, -0.5, 0.02, Grid1D(n, 1.0))


def factored(name, n):
    """(factorization, A, B) of one matrix a stepper or a row pass factors,
    on n nodes."""
    from adrlab.adr1d import SchemeId, make_stepper
    from adrlab import operators

    grid = operators.Grid1D(n, 1.0)
    base = name.removesuffix("-transposed")
    if base in ("cd2", "oucs3", "lele", "nccd"):
        build = {"cd2": operators.build_cd2_second, "oucs3": operators.build_oucs3,
                 "lele": operators.build_lele_second,
                 "nccd": lambda g: operators.build_nccd(g)[0]}[base]
        system = build(grid).system
        if base != name:  # the factors of A^T that give the operator's rows
            a = system.lhs.transpose()
            return system.row_lu, a, StencilMatrix(np.ones((1, a.shape[0])), 0)
        return system.lu, system.lhs, system.rhs
    stage = make_stepper(SchemeId(name), stage_config(n)).stage
    return (stage.lu,) + stage.system()


FACTORED = ["cd2", "oucs3", "lele", "nccd", "implicit-oucs3-lele", "imex-oucs3-lele",
            "imex-nccd", "oucs3-transposed", "lele-transposed", "nccd-transposed"]


def one_block_nodes(name):
    """Nodes that make the system exactly one block of the factorization."""
    lu = factored(name, 101)[0]
    return lu.rows * 101 // lu.size


@pytest.mark.parametrize("name", FACTORED)
@pytest.mark.parametrize("where", ["n7", "one-block", "one-node-over", "n1001"])
def test_partitioned_solve_matches_lapack(rng, name, where):
    n = {"n7": 7, "n1001": 1001}.get(where) or one_block_nodes(name) + (where == "one-node-over")
    lu, a, b = factored(name, n)
    if where != "n1001":
        assert lu.blocks == (2 if where == "one-node-over" else 1)
    m, bd = b.shape[1], dense(b)
    for u in (rng.normal(size=m), rng.normal(size=m) + 1j * rng.normal(size=m)):
        rhs = bd @ u
        want = solve_banded(a, rhs.real) + 1j * solve_banded(a, rhs.imag)
        x = lu.solve(u)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert residual_inf(dense(a), x, rhs) <= residual_bound(dense(a), x, rhs)


@pytest.mark.parametrize("name", FACTORED)
def test_partitioned_solve_residual_at_n_1e5(rng, name):
    n = 100_000
    lu, a, b = factored(name, n)
    assert lu._child is not None or name == "cd2"  # A = I has no interface system
    u = rng.normal(size=b.shape[1])
    x, rhs = lu.solve(u), sparse(b) @ u
    residual = np.max(np.abs(sparse(a) @ x - rhs))
    bound = 1e-10 * (np.max(np.sum(np.abs(a.weights), axis=0)) * np.max(np.abs(x))
                     + np.max(np.abs(rhs)))
    assert residual <= bound, name


@pytest.mark.parametrize("case", [(12, 0, 2), (200, 1, 1), (200, 3, 3), "implicit-oucs3-lele",
                                  "imex-oucs3-lele", "imex-nccd", "child-interface"], ids=str)
def test_partitioned_solve_backward_error(rng, case, monkeypatch):
    # ||A x - b|| / (||A|| ||x|| + ||b||) of the solve as it is, with no
    # refinement step: on seeded non-dominant random bands (100 per shape),
    # and on the stage systems, whose rows hold B's weights beside A's; for
    # the vector solves and for the columns of one (n, 4) block solve.
    # Where the system is well conditioned (the stage systems, and dominant
    # bands whose interface system is partitioned again, "child-interface"),
    # the block's columns equal the vector solves to roundoff. On the
    # non-dominant bands an ill-conditioned diagonal block amplifies the
    # different summation order of the block products (up to 3e-11 of the
    # column at (200, 3, 3)), so there the block is held to the same
    # backward error instead.
    dominant = case == "child-interface"
    if dominant:
        monkeypatch.setattr(linalg, "DENSE_INTERFACE", 8)
        case = (200, 1, 1)
        assert PartitionedLU(random_band(rng, *case, dominant=True))._child is not None
    if isinstance(case, str):
        lu, a, b = factored(case, 1001)
        draws = [(lu, a, b, rng.normal(size=(b.shape[1], 4)))]
    else:
        draws = [(PartitionedLU(a), a, None, rng.normal(size=(case[0], 4)))
                 for a in (random_band(rng, *case, dominant=dominant) for _ in range(100))]
    for lu, a, b, u in draws:
        a = sparse(a)
        norm = np.max(abs(a) @ np.ones(a.shape[0]))
        many = lu.solve(u)
        for c in range(u.shape[1]):
            one, rhs = lu.solve(u[:, c]), u[:, c] if b is None else sparse(b) @ u[:, c]
            for x in (one, many[:, c]):
                error = np.max(np.abs(a @ x - rhs)) / (norm * np.max(np.abs(x))
                                                       + np.max(np.abs(rhs)))
                assert error <= 1e-11, case
            if dominant or b is not None:
                assert np.max(np.abs(many[:, c] - one)) <= 1e-14 * np.max(np.abs(one)), case


def test_partitioned_singular_diagonal_block_raises_naming_its_rows():
    # A is regular (row 31 reads x_32), but block 0 (rows 0..31) has a zero row
    n = 64
    rows = np.tile([0.5, 4.0, 0.5], (n, 1))
    rows[31] = (0.0, 0.0, 1.0)
    assert abs(np.linalg.det(dense(StencilMatrix(rows.T, 1)))) > 0
    with pytest.raises(LinearSolveError, match=r"diagonal block of rows 0\.\.31"):
        PartitionedLU(StencilMatrix(rows.T, 1))


def test_partitioned_singular_matrix_raises_naming_its_rows():
    # rows 31 and 32 are equal; each diagonal block alone is regular
    n = 64
    rows = np.tile([0.0, 1.0, 0.0], (n, 1))
    rows[31] = rows[32] = (1.0, 1.0, 1.0)
    rows[31, 0] = rows[32, 2] = 0.0
    rows[31, 2], rows[32, 0] = 1.0, 1.0
    with pytest.raises(LinearSolveError, match=r"interface system of rows 31\.\.32"):
        PartitionedLU(StencilMatrix(rows.T, 1))
    with pytest.raises(LinearSolveError, match="singular"):
        PartitionedLU(tridiagonal(0.0, np.zeros(4), 0.0))
