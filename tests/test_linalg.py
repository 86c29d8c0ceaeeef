import numpy as np
import pytest

from adrlab.linalg import (
    BandedMatrix,
    LinearSolveError,
    residual_bound,
    residual_inf,
    solve_banded,
    solve_dense,
    tridiagonal,
)


def test_banded_identity():
    a = tridiagonal(0.0, np.ones(3), 0.0)
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(solve_banded(a, b), b)


def test_banded_constructed_exact_solution():
    # tridiag(1, 10, 1), rhs = row sums -> all-ones solution
    a = tridiagonal(1.0, 10.0 * np.ones(5), 1.0)
    b = a.to_dense() @ np.ones(5)
    x = solve_banded(a, b)
    assert np.allclose(x, 1.0, rtol=0, atol=1e-13)


def test_banded_matches_dense_lu(rng):
    n = 40
    lo = rng.normal(size=n)
    up = rng.normal(size=n)
    diag = 4.0 + rng.random(n)  # diagonally dominant
    a = tridiagonal(lo, diag, up)
    dense = a.to_dense()
    b = rng.normal(size=(n, 3))
    xb = solve_banded(a, b)
    xd = solve_dense(dense, b)
    assert np.max(np.abs(xb - xd)) < 1e-10
    assert residual_inf(dense, xb, b) <= residual_bound(dense, xb, b)


@pytest.mark.parametrize("lower, upper", [(1, 1), (2, 1)])  # tridiagonal and general band
def test_banded_overwrite_solves_in_place(rng, lower, upper):
    n = 30
    bands = rng.normal(size=(lower + upper + 1, n))
    bands[upper] += 6.0  # diagonally dominant
    a = BandedMatrix(n, lower, upper, bands)
    b = np.asfortranarray(rng.normal(size=(n, 4)))
    want = solve_banded(a, b)
    x = solve_banded(a, b, overwrite_b=True)
    assert np.shares_memory(x, b)
    assert np.array_equal(x, want)


def test_band_roundtrip(rng):
    dense = np.triu(np.tril(rng.normal(size=(7, 7)), 1), -2)
    bm = BandedMatrix.from_dense(dense, 2, 1)
    assert np.array_equal(bm.to_dense(), dense)


def test_from_rows_places_stencils_and_drops_outside_entries(rng):
    # rows[i, k] is entry (i, i - lower + k); stencil entries left of
    # column 0 or right of the last column are dropped
    n, lower, upper = 6, 3, 2
    rows = rng.normal(size=(n, lower + upper + 1))
    want = np.zeros((n, n))
    for i in range(n):
        for k in range(lower + upper + 1):
            if 0 <= i - lower + k < n:
                want[i, i - lower + k] = rows[i, k]
    bm = BandedMatrix.from_rows(rows, lower)
    assert (bm.lower, bm.upper) == (lower, upper)
    assert np.array_equal(bm.to_dense(), want)
    assert np.array_equal(BandedMatrix.from_dense(want, lower, upper).bands, bm.bands)


def test_tridiagonal_per_row_arrays():
    lo, diag, up = np.array([9.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.0]), np.array([6.0, 7.0, 9.0])
    want = np.array([[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0, 5.0]])
    assert np.array_equal(tridiagonal(lo, diag, up).to_dense(), want)


def test_banded_singular_raises():
    a = tridiagonal(0.0, np.zeros(4), 0.0)
    with pytest.raises(LinearSolveError):
        solve_banded(a, np.ones(4))
    with pytest.raises(LinearSolveError):
        a.factor()


def test_banded_factor_keeps_the_matrix_and_solves_complex_input(rng):
    a = BandedMatrix.from_rows(rng.uniform(-1, 1, (12, 4)) + [0, 0, 4, 0], 2)
    bands = a.bands.copy()
    lu = a.factor()
    assert np.array_equal(a.bands, bands)
    b = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert np.max(np.abs(a.to_dense() @ lu.solve(b) - b)) < 1e-12


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
