"""Shared fixtures: the unit-step worked example and a mid-resolution grid.

The step potential V = 1 on (0, 1) with the Robin angle arctan(coth 1) is the
exceptional-case touchstone used throughout the suite; closed forms for its
Jost solution are frozen in test modules and re-derived in oracles.py.
"""

import numpy as np
import pytest

from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.jost import jost_matrix, marchenko_kernel, solve_faddeev
from scatterkit.potentials import PotentialSpec, box_potential

# arctan(coth 1): the Robin angle making J(0) = 0 for the unit step
GOLDEN_THETA = 0.9199161587718891


@pytest.fixture(scope="session")
def golden_potential():
    return box_potential(1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def golden_boundary():
    return BoundaryPair.robin(GOLDEN_THETA)


@pytest.fixture(scope="session")
def matrix_potential():
    """A 2x2 Hermitian (complex) two-cell potential for cross-checks."""
    cells = [
        (0.0, 1.0, np.array([[1.0, 0.5j], [-0.5j, 2.0]])),
        (1.0, 2.0, np.array([[-0.3, 0.0], [0.0, 0.4]])),
    ]
    return PotentialSpec.from_cells(2, cells)


@pytest.fixture(scope="session")
def matrix_boundary():
    """The Robin pair (pi, 0.9): one Dirichlet and one Robin channel."""
    return BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)


@pytest.fixture(scope="session")
def matrix3_potential():
    """A 3x3 Hermitian (complex) two-cell potential: the one n >= 3 input,
    where the Jost stack's algebra takes the LAPACK branch."""
    cells = [
        (0.0, 1.0, np.array([[1.0, 0.5j, 0.2], [-0.5j, 2.0, 0.3 - 0.1j], [0.2, 0.3 + 0.1j, -0.5]])),
        (1.0, 2.0, np.array([[-0.3, 0.0, 0.1j], [0.0, 0.4, 0.0], [-0.1j, 0.0, 0.7]])),
    ]
    return PotentialSpec.from_cells(3, cells)


@pytest.fixture(scope="session")
def matrix3_boundary():
    """The Robin pair (0.3, 1.1, pi) under a random right factor, a mixed
    pair with off-diagonal ``A`` and ``B`` (as test_boundary builds it)."""
    rng = np.random.default_rng(7)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return BoundaryPair.robin(np.array([0.3, 1.1, np.pi]), n=3).transformed(T)


@pytest.fixture(scope="session")
def medium_grid():
    return KXGrid.build(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=8.0)


@pytest.fixture(scope="session")
def golden_table(golden_potential, medium_grid, golden_boundary):
    jt = solve_faddeev(golden_potential, medium_grid)
    return jost_matrix(jt, golden_boundary)


@pytest.fixture(scope="session")
def golden_kernel(golden_table):
    return marchenko_kernel(golden_table)


@pytest.fixture(scope="session")
def golden_scatter(golden_potential, golden_boundary):
    """Full scattering pipeline for the unit-step example on a wide window
    (the transforms need more room than ``medium_grid`` provides)."""
    from scatterkit.scattering import scattering_table

    grid = KXGrid.build(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=16.0)
    jt = jost_matrix(solve_faddeev(golden_potential, grid), golden_boundary)
    return jt, scattering_table(jt)


@pytest.fixture(scope="session")
def matrix_tables(matrix_potential, matrix_boundary):
    """Scattering, kernel and physical-solution tables for the 2x2 potential
    under the Robin pair (pi, 0.9), a Dirichlet and a Robin channel, on the
    grid of the benchmark's ``matrix2x2`` workload: S(0) = -I and
    S_inf = diag(-1, 1), so neither limit is the identity."""
    from scatterkit.scattering import scattering_table
    from scatterkit.spectral import physical_solution

    grid = KXGrid.build(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0)
    jt = jost_matrix(solve_faddeev(matrix_potential, grid), matrix_boundary)
    st = scattering_table(jt)
    return st, marchenko_kernel(jt), physical_solution(jt, st)
