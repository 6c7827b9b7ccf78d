import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GOLDEN_THETA
from scatterkit import scattering
from scatterkit.boundary import (
    BoundaryPair,
    diagonalize_boundary,
    line_interaction_matrices,
    predicted_s_infinity,
)
from scatterkit.grids import KXGrid, cosine_taper, trapezoid_weights
from scatterkit.jost import jost_matrix, solve_faddeev
from scatterkit.potentials import PotentialSpec, box_potential, zero_potential
from scatterkit.scattering import (
    NoPlateau,
    ScatteringError,
    ScatteringTable,
    SingularJost,
    fs_symbol,
    h1_membership,
    p_symbols,
    s_limits,
    scattering_table,
    smatrix,
)
from scatterkit.spectral import boundary_residual, physical_solution

# --- frozen scattering values for V = 1 on (0, 1), mixed boundary at the
# exceptional angle; from the closed form S(k) = -J(-k)/J(k) with
# J(k) = f(-k,0) cos(theta) - f'(-k,0) sin(theta) (real potential), evaluated
# with 30-digit arithmetic (see oracles.step_smatrix_closed).
S_AT_1 = 0.8603462471589842 + 0.5097100499298124j
S_AT_5 = 0.9928836534741219 + 0.11908841532189383j

# frozen values of (1/2pi) integral_0^inf e^{ikx}/(1 + ik) dk (mpmath
# oscillatory quadrature, 30 digits; see oracles.rational_p_minus)
RATIONAL_P_MINUS = {
    0.5: 0.3032653298563167 + 0.04384691602784141j,
    1.0: 0.18393972058572117 + 0.11095882886637572j,
    2.0: 0.06766764161830635 + 0.1067106375207389j,
}


@pytest.fixture(scope="module")
def free_scatter():
    grid = KXGrid.build(kmax=40.0, nk=2048, dx=1 / 128, xmax=8.0)
    return solve_faddeev(zero_potential(1), grid)


def test_smatrix_matches_closed_form_at_nodes(golden_scatter):
    _, table = golden_scatter
    idx = np.arange(16, table.k.size, 64)
    oracle = np.array(
        [oracles.step_smatrix_closed(float(k), GOLDEN_THETA) for k in table.k[idx]]
    )
    assert np.abs(table.S[idx, 0, 0] - oracle).max() < 2e-7


def test_smatrix_unitary_and_reflection_symmetric(golden_scatter):
    _, table = golden_scatter
    # real scalar potential: the solver is conjugation-equivariant, so both
    # defects sit at machine precision (well inside the 1e-8 requirement)
    assert table.unitarity_defect < 1e-12
    assert table.symmetry_defect < 1e-12
    assert table.exceptional


def test_smatrix_frozen_interpolated_values(golden_scatter):
    _, table = golden_scatter
    got = table.s_at(np.array([1.0, 5.0]))[:, 0, 0]
    assert abs(got[0] - S_AT_1) < 1e-6
    assert abs(got[1] - S_AT_5) < 1e-6


def test_limits_of_exceptional_step(golden_scatter):
    jt, table = golden_scatter
    # both limits are +1: the zero-energy limit because J(0) is singular at
    # this angle, the high-energy limit because no channel is Dirichlet
    assert abs(table.S0[0, 0] - 1.0) < 1e-12
    assert abs(table.S_infinity[0, 0] - 1.0) < 1e-12
    assert table.plateau_deviation < 1e-3
    # Dirichlet on the same potential is generic: both limits are -1
    dirichlet = s_limits(smatrix(jost_matrix(jt, BoundaryPair.dirichlet(1))))
    assert abs(dirichlet.S0[0, 0] + 1.0) < 1e-12
    assert abs(dirichlet.S_infinity[0, 0] + 1.0) < 1e-12


def _rotated_pair():
    """The unit step in channel 1 at the exceptional angle and a well under
    a generic Robin angle in channel 2, rotated by a fixed complex unitary:
    ``Ker J(0)^dagger`` is one-dimensional and not a coordinate axis."""
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = PotentialSpec.from_cells(2, [(0.0, 1.0, q @ np.diag([1.0, -0.5]) @ q.conj().T)])
    bc = BoundaryPair.robin(np.array([GOLDEN_THETA, 0.4]), n=2)
    return v, BoundaryPair.from_matrices(q @ bc.A, q @ bc.B), q


def test_s0_matches_richardson_oracle(golden_potential, golden_boundary, matrix_potential):
    rotated, rotated_bc, q = _rotated_pair()
    cases = [
        (golden_potential, golden_boundary, np.eye(1)),
        (matrix_potential, BoundaryPair.robin(np.array([np.pi, 0.9]), n=2), -np.eye(2)),
        (zero_potential(2), line_interaction_matrices(np.zeros((1, 1))), np.array([[0, 1], [1, 0]])),
        (rotated, rotated_bc, q @ np.diag([1.0, -1.0]) @ q.conj().T),
    ]
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=8.0)
    for v, bc, closed in cases:
        table = smatrix(jost_matrix(solve_faddeev(v, grid), bc))
        assert np.abs(table.S0 - oracles.s_zero_richardson(v, bc)).max() < 1e-10
        assert np.abs(table.S0 - closed).max() < 1e-10


def test_fs_symbol_tail_and_reconstruction(golden_scatter):
    _, table = golden_scatter
    y, Fs = table.grid.x_sym, table.Fs[:, 0, 0]
    wy = trapezoid_weights(y)
    outer = np.abs(y) > y.max() / 2
    tail = np.abs(Fs[outer]) @ wy[outer]
    assert tail < 0.05 * table.fs_l1
    # synthesizing Fs and transforming back must reproduce S at interior nodes
    inner = np.abs(table.k) <= 0.45 * table.grid.kmax
    rec = table.S_infinity[0, 0] + np.exp(-1j * np.outer(table.k[inner], y)) @ (Fs * wy)
    assert np.abs(rec - table.S[inner, 0, 0]).max() < 1e-3


def test_h1_norm_stable_under_window_change(golden_scatter, golden_potential, golden_boundary):
    _, table = golden_scatter
    assert 1.7 < table.h1norm < 2.3
    half = KXGrid.build(kmax=20.0, nk=1024, dx=1 / 128, xmax=16.0)
    other = h1_membership(
        s_limits(smatrix(jost_matrix(solve_faddeev(golden_potential, half), golden_boundary)))
    )
    assert abs(other.h1norm - table.h1norm) / table.h1norm < 0.05


def test_dilation_covariance():
    # V(x) -> 4 V(2x) sends S(k) -> S(k/2); the two grids are built so the
    # scaled nodes land exactly on twice the base nodes
    base = KXGrid.build(kmax=20.0, nk=2048, dx=1 / 256, xmax=4.0)
    scaled = KXGrid.build(kmax=40.0, nk=2048, dx=1 / 256, xmax=4.0)
    assert np.abs(scaled.k - 2.0 * base.k).max() == 0.0
    j1 = solve_faddeev(box_potential(1.0, 0.0, 1.0), base)
    j2 = solve_faddeev(box_potential(4.0, 0.0, 0.5), scaled)
    for bc in (BoundaryPair.dirichlet(1), BoundaryPair.neumann(1)):
        s1 = smatrix(jost_matrix(j1, bc))
        s2 = smatrix(jost_matrix(j2, bc))
        assert np.abs(s2.S - s1.S).max() < 1e-6


def test_free_neumann_is_identity(free_scatter):
    table = scattering_table(jost_matrix(free_scatter, BoundaryPair.neumann(1)))
    assert np.abs(table.S - np.eye(1)).max() < 1e-12
    assert np.abs(table.S0 - np.eye(1)).max() < 1e-12
    assert np.abs(table.S_infinity - np.eye(1)).max() < 1e-12
    assert table.fs_l1 < 1e-10
    assert table.h1norm < 1e-12
    assert np.abs(table.Pminus).max() < 1e-12


def test_free_dirichlet_is_minus_identity(free_scatter):
    table = smatrix(jost_matrix(free_scatter, BoundaryPair.dirichlet(1)))
    assert np.abs(table.S + np.eye(1)).max() < 1e-14


def test_free_point_interaction_fold_is_swap():
    # uncoupled point interaction on the line, folded to two half-line
    # channels: everything transmits, nothing reflects
    grid = KXGrid.build(kmax=40.0, nk=1024, dx=1 / 128, xmax=4.0)
    jt = solve_faddeev(zero_potential(2), grid)
    table = s_limits(smatrix(jost_matrix(jt, line_interaction_matrices(np.zeros((1, 1))))))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(table.S - swap).max() < 1e-12
    assert np.abs(table.S0 - swap).max() < 1e-12
    assert np.abs(table.S_infinity - swap).max() < 1e-12


def _synthetic_table(grid, values, s0):
    """A scalar table with ``S_inf = 1`` and the given ``S(0)``, both known
    by construction."""
    return ScatteringTable(
        k=grid.k,
        S=values.reshape(-1, 1, 1),
        n=1,
        exceptional=False,
        unitarity_defect=0.0,
        symmetry_defect=0.0,
        S0=np.array([[s0]], dtype=complex),
        S_infinity=np.eye(1, dtype=complex),
        grid=grid,
    )


def test_p_symbols_rational_toy():
    # scalar S - S_inf = 1/(1 + ik) injected directly; the positive-momentum
    # transform is frozen from an oscillatory-aware high-precision quadrature,
    # and its real part equals exp(-x)/2
    grid = KXGrid.build(kmax=640.0, nk=16384, dx=1 / 1024, xmax=4.0)
    table = _synthetic_table(grid, 1.0 + 1.0 / (1.0 + 1j * grid.k), s0=2.0)
    xq = np.array(sorted(RATIONAL_P_MINUS))
    table = p_symbols(table)
    nodes = np.searchsorted(grid.x_sym, xq)
    np.testing.assert_array_equal(grid.x_sym[nodes], xq)  # the symbols live on grid.x_sym
    for i, xv in zip(nodes, xq):
        got = table.Pminus[i, 0, 0]
        assert abs(got - RATIONAL_P_MINUS[xv]) < 1e-4
        assert abs(got.real - np.exp(-xv) / 2.0) < 1e-5
    # the conjugation pairing is exact on a reflection-symmetric table
    assert table.p_conjugation_defect < 1e-15
    # the two half-line pieces recombine to the full-line transform exp(-x)
    full = table.Pminus[nodes, 0, 0] + table.Pplus[nodes, 0, 0]
    assert np.abs(full - np.exp(-xq)).max() < 1e-4


def test_symbols_on_default_grid_build_no_phase_matrix():
    # a dense e^{iky} matrix on the default grid (4096 momenta, 20481 nodes)
    # would take 1.3 GB; the chirp-z sums need a few megabytes
    grid = KXGrid.build()
    table = s_limits(_synthetic_table(grid, (grid.k - 1j) / (grid.k + 1j), s0=-1.0))
    tracemalloc.start()
    try:
        table = fs_symbol(table)
        fs_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = p_symbols(table)
        p_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.Fs.shape == (grid.x_sym.size, 1, 1)
    assert table.Pplus.shape == table.Pminus.shape == (grid.x_sym.size, 1, 1)
    assert fs_peak < 64 * 2**20
    assert p_peak < 64 * 2**20


def test_symbols_take_one_synthesis_per_half_line(golden_table, monkeypatch):
    # F_s = P_plus + P_minus: one Fourier sum per half line gives all three
    # symbols, and p_symbols after fs_symbol sums nothing more
    calls = []
    fourier_sum = scattering.fourier_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return fourier_sum(*args, **kwargs)

    monkeypatch.setattr(scattering, "fourier_sum", counting)
    table = p_symbols(fs_symbol(s_limits(smatrix(golden_table))))
    assert len(calls) == 2
    np.testing.assert_array_equal(table.Fs, table.Pplus + table.Pminus)


@pytest.mark.parametrize("fixture, index", [("golden_scatter", 1), ("matrix_tables", 0)])
def test_fs_symbol_matches_direct_full_line_sum(fixture, index, request):
    # the full-line transform of the tapered S - S_inf, summed term by term
    # in long double over the whole momentum grid
    table = request.getfixturevalue(fixture)[index]
    grid = table.grid
    nodes = np.linspace(0, grid.x_sym.size - 1, 32).round().astype(int)
    g = (table.S - table.S_infinity) * cosine_taper(grid.k, grid.kmax)[:, None, None]
    ref = (grid.dk / (2.0 * np.pi)) * oracles.direct_fourier_sum(g, grid.k[0], grid.dk, grid.x_sym[nodes])
    assert np.abs(table.Fs[nodes] - ref).max() < 1e-13 * np.abs(ref).max()


def test_fs_symbol_free_mixed_boundary_closed_form():
    # zero potential with cos(1) y(0) + sin(1) y'(0) = 0: the symbol is
    # -2a e^{-ay} on y > 0 (a = cot 1) and vanishes on y < 0
    grid = KXGrid.build(kmax=640.0, nk=16384, dx=1 / 1024, xmax=4.0)
    th = 1.0
    S = -(np.cos(th) - 1j * grid.k * np.sin(th)) / (np.cos(th) + 1j * grid.k * np.sin(th))
    table = fs_symbol(s_limits(_synthetic_table(grid, S, s0=-1.0)))
    y = grid.x_sym
    away_from_jump = np.abs(y) > 0.25
    oracle = oracles.free_robin_fs(y, th)
    assert np.abs(table.Fs[away_from_jump, 0, 0] - oracle[away_from_jump]).max() < 2e-4


@pytest.mark.parametrize("n", [1, 2])
def test_singular_jost_is_reported(n, free_scatter, matrix_potential, matrix_boundary):
    if n == 1:
        jt = jost_matrix(free_scatter, BoundaryPair.neumann(1))
    else:
        grid = KXGrid.build(kmax=20.0, nk=1024, dx=1 / 64, xmax=16.0)  # the matrix_tables grid
        jt = jost_matrix(solve_faddeev(matrix_potential, grid), matrix_boundary)
    J = jt.jmatrix.J.copy()
    # n = 1: a zero node; n = 2: a rank-one node, two parallel columns (det 0 exactly)
    J[5] = 0.0 if n == 1 else J[5, :, :1] * np.array([1.0, 2.0])
    bad = replace(jt.jmatrix, J=J)
    with pytest.raises(SingularJost) as err:
        smatrix(replace(jt, jmatrix=bad))
    assert err.value.k == pytest.approx(jt.k[5])
    assert err.value.min_sv <= 1e-12 * np.linalg.svd(J, compute_uv=False).max()


@pytest.mark.parametrize(
    "n, potential, boundary",
    [
        (1, "golden_potential", "golden_boundary"),
        (2, "matrix_potential", "matrix_boundary"),
        (3, "matrix3_potential", "matrix3_boundary"),
    ],
    ids=["1", "2", "3"],
)
def test_jost_stack_decompositions_by_channel_count(n, potential, boundary, request, monkeypatch):
    # the singular values, the solve and the products of the J(k) stack are
    # closed forms for n <= 2; at n = 3 the stack takes one SVD and one
    # solve; J(0) is a single matrix and not counted
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=4.0)
    jt = solve_faddeev(request.getfixturevalue(potential), grid)
    calls = []

    def counting(name, fn):
        def call(a, *args, **kwargs):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kwargs)

        return call

    for name in ("svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    jt = jost_matrix(jt, request.getfixturevalue(boundary))
    smatrix(jt)
    assert jt.jmatrix.min_sv == jt.jmatrix.sv.min()
    stack = [name for name, ndim in calls if ndim == 3]
    assert sorted(stack) == ([] if n <= 2 else ["solve", "svd"])


def test_three_channel_pipeline(matrix3_potential, matrix3_boundary):
    """n = 3 under a mixed pair with off-diagonal (A, B): S is unitary and
    reflection-symmetric, matches S formed from ODE wall values, and the
    physical solutions meet the boundary condition."""
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=4.0)
    jt = jost_matrix(solve_faddeev(matrix3_potential, grid), matrix3_boundary)
    st = smatrix(jt)
    S = st.S
    Sh = S.conj().swapaxes(-1, -2)
    assert np.abs(Sh @ S - np.eye(3)).max() < 1e-12
    assert np.abs(S[::-1] - Sh).max() < 1e-12
    A, B = matrix3_boundary.A, matrix3_boundary.B

    def jost(k):  # J(k) = f(-k,0)^dagger B - f'(-k,0)^dagger A
        f, fp = (v[0].conj().T for v in oracles.ode_jost(matrix3_potential, -k))
        return f @ B - fp @ A

    for i in (37, 300, 480):
        k = float(jt.k[i])
        ref = -jost(-k) @ np.linalg.inv(jost(k))
        assert np.abs(S[i] - ref).max() < 1e-8
    assert boundary_residual(physical_solution(jt, st)) < 1e-10


def test_fs_l1_integrates_svd_norms_on_2x2_table(matrix_tables):
    st, _, _ = matrix_tables
    norms = np.linalg.norm(st.Fs, ord=2, axis=(-2, -1))
    expected = norms @ trapezoid_weights(st.grid.x_sym)
    assert st.fs_l1 > 0.0
    np.testing.assert_allclose(st.fs_l1, expected, rtol=1e-14, atol=0)


def test_smatrix_requires_attached_jost_matrix(free_scatter):
    with pytest.raises(ScatteringError, match="Jost matrix"):
        smatrix(free_scatter)


def test_unitarity_guard_rejects_asymmetric_table(free_scatter):
    jt = jost_matrix(free_scatter, BoundaryPair.neumann(1))
    J = jt.jmatrix.J.copy()
    J[jt.k < 0] *= 2.0  # breaks S(k)^dagger S(k) = I by a factor 4
    bad = replace(jt.jmatrix, J=J)
    with pytest.raises(ScatteringError, match="unitarity"):
        smatrix(replace(jt, jmatrix=bad))


def test_no_plateau_raised_when_window_too_small():
    grid = KXGrid.build(kmax=10.0, nk=512, dx=1 / 128, xmax=4.0)
    # S(0) has no limit here; s_limits reads only S_inf
    table = _synthetic_table(grid, np.exp(5j / grid.k), s0=1.0)
    with pytest.raises(NoPlateau):
        s_limits(table)


def test_matrix_potential_pipeline(matrix_potential):
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=8.0)
    bc = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    table = scattering_table(jost_matrix(solve_faddeev(matrix_potential, grid), bc))
    assert table.unitarity_defect < 1e-5
    assert table.symmetry_defect < 1e-5
    # complex potential: conjugation symmetry only up to the solver error
    assert table.p_conjugation_defect < 5e-6
    predicted = predicted_s_infinity(diagonalize_boundary(bc))
    np.testing.assert_array_equal(table.S_infinity, predicted)
    assert 0.0 < table.h1norm < np.inf


def test_s_infinity_comes_from_one_diagonalization(
    golden_potential, golden_boundary, matrix_potential, matrix_boundary,
    matrix3_potential, matrix3_boundary, monkeypatch,
):
    # the pairs of the three benchmark workloads and the 3x3 fixture: from
    # jost_matrix to smatrix the pair is validated and diagonalized once,
    # and S_inf is bit for bit predicted_s_infinity of that normal form
    from scatterkit import boundary, jost

    grid = KXGrid.build(kmax=10.0, nk=128, dx=1 / 32, xmax=4.0)
    cases = [
        (golden_potential, golden_boundary),
        (matrix_potential, matrix_boundary),
        (zero_potential(1), BoundaryPair.neumann(1)),
        (matrix3_potential, matrix3_boundary),
    ]
    calls = []
    validate = boundary.validate_boundary
    for module in (boundary, jost):
        monkeypatch.setattr(
            module, "validate_boundary", lambda bp: calls.append(bp) or validate(bp), raising=False
        )
    for potential, bp in cases:
        jt = solve_faddeev(potential, grid)
        del calls[:]
        table = smatrix(jost_matrix(jt, bp))
        assert calls == [bp]
        np.testing.assert_array_equal(table.S_infinity, predicted_s_infinity(diagonalize_boundary(bp)))


@settings(max_examples=15, deadline=None)
@given(
    a1=st.floats(min_value=1.0, max_value=3.0),
    a2=st.floats(min_value=1.0, max_value=3.0),
)
def test_synthetic_unimodular_products(a1, a2):
    # products of factors (a - ik)/(a + ik) are exactly unimodular with
    # S(0) = S_inf = 1
    grid = KXGrid.build(kmax=600.0, nk=65536, dx=1 / 1024, xmax=1.0)
    k = grid.k
    S = ((a1 - 1j * k) / (a1 + 1j * k)) * ((a2 - 1j * k) / (a2 + 1j * k))
    table = s_limits(_synthetic_table(grid, S, s0=1.0))
    table = h1_membership(table)
    assert 0.0 < table.h1norm < np.inf
    # pure quadrature refinement: the norm is already converged
    dense = KXGrid.build(kmax=600.0, nk=131072, dx=1 / 1024, xmax=1.0)
    Sd = ((a1 - 1j * dense.k) / (a1 + 1j * dense.k)) * (
        (a2 - 1j * dense.k) / (a2 + 1j * dense.k)
    )
    other = h1_membership(s_limits(_synthetic_table(dense, Sd, s0=1.0)))
    assert abs(other.h1norm - table.h1norm) / table.h1norm < 1e-3
    table = p_symbols(table)
    assert table.p_conjugation_defect < 1e-14
