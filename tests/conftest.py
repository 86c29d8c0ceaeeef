import numpy as np
import pytest

from adrlab.adr1d import SchemeId, scheme_operators
from adrlab.operators import Grid1D


@pytest.fixture(scope="session")
def grid1001():
    return Grid1D(1001, 1.0)


@pytest.fixture(scope="session")
def ops1001(grid1001):
    """Operator pairs for all four schemes on the 1001-point analysis grid.

    Built once per session and shared by the tests. Operators are stored
    banded. Row symbols read one row per node, one O(N) solve with the
    partitioned factors of A^T (`operators.BandedSystem.solve_rows`), cached
    per node. A test that reads `.matrix` forms the dense matrix from the
    same solves, one per row, and caches it.
    """
    return {scheme: scheme_operators(scheme, grid1001) for scheme in SchemeId}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
