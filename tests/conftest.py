import zlib

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
    banded, and each caches its factorization on first use. Row symbols are
    one forward solve of a mode table per operator (`operators.row_symbols`).
    A test that reads the dense operator (`reference.dense`) gets the LAPACK
    solve of the operator's system.
    """
    return {scheme: scheme_operators(scheme, grid1001) for scheme in SchemeId}


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from its id, so its data do not
    depend on the draws of the tests collected before it."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
