import numpy as np
import pytest

import oracles
from conftest import GOLDEN_THETA
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.jost import (
    JostError,
    JostOverflow,
    TailNotNegligible,
    born_term,
    faddeev_solve,
    jost_matrix,
    marchenko_kernel,
    solve_faddeev,
)
from scatterkit.potentials import (
    NonHermitian,
    PotentialSpec,
    _spectral_norms,
    box_potential,
    zero_potential,
)
from scatterkit.scattering import smatrix

# --- frozen Jost values for V = 1 on (0, 1) ---------------------------------
# f(k, 0) = e^{ik} (cos g - (ik/g) sin g), f'(k, 0) = e^{ik} (g sin g + ik cos g)
# with g = sqrt(k^2 - 1); cross-checked against a DOP853 integration to 1e-10
# (see oracles.step_jost_closed).  The literals carry 14-16 digits.
F2 = 1.103159739289392 + 0.32829730771248344j
FP2 = -0.419449137875723 + 1.6881471567415j
F07 = 1.45858085158185 + 0.233522393202157j
FP07 = -0.99499751751274 + 0.320616987377183j
COSH1 = np.cosh(1.0)
SINH1 = np.sinh(1.0)


def _assert_step_values(m, mp, atol):
    """Check ``m`` and the wall values ``m'(k, 0)`` at k = (2, 0.7, -2, 0)
    against the frozen unit-step values."""
    # x = 0: f = m, f' = ik m + m'
    np.testing.assert_allclose(m[0, 0, 0, 0], F2, atol=atol)
    np.testing.assert_allclose(2j * m[0, 0, 0, 0] + mp[0, 0, 0], FP2, atol=atol)
    np.testing.assert_allclose(m[1, 0, 0, 0], F07, atol=atol)
    np.testing.assert_allclose(0.7j * m[1, 0, 0, 0] + mp[1, 0, 0], FP07, atol=atol)
    # zero energy: m(0, 0) = cosh 1, m'(0, 0) = -sinh 1
    np.testing.assert_allclose(m[3, 0, 0, 0], COSH1, atol=atol)
    np.testing.assert_allclose(mp[3, 0, 0], -SINH1, atol=atol)


def test_jost_matches_closed_form_step():
    v = box_potential(1.0, 0.0, 1.0)
    k = np.array([2.0, 0.7, -2.0, 0.0])
    x = np.linspace(0.0, 1.0, 257)
    m, mp0 = faddeev_solve(v, k, x)
    _assert_step_values(m, mp0, atol=1e-12)
    # real potential: k -> -k is entrywise conjugation
    mp = oracles.mprime_nodes(v, k, x)
    np.testing.assert_allclose(m[2], m[0].conj(), atol=1e-12)
    np.testing.assert_allclose(mp[2], mp[0].conj(), atol=1e-12)
    # beyond-support edge is exact
    np.testing.assert_allclose(m[:, -1], np.broadcast_to(np.eye(1), (4, 1, 1)), atol=1e-14)
    np.testing.assert_allclose(mp[:, -1], 0.0, atol=1e-14)


def test_jost_matches_ode_oracle_matrix(matrix_potential):
    x = np.linspace(0.0, 2.0, 257)
    idx = [0, 96]  # x = 0 and x = 0.75
    for k in (0.6, 3.7):
        m, _ = faddeev_solve(matrix_potential, np.array([k]), x)
        mp = oracles.mprime_nodes(matrix_potential, np.array([k]), x)
        f = np.exp(1j * k * x[idx, None, None]) * m[0, idx]
        fp = np.exp(1j * k * x[idx, None, None]) * (1j * k * m[0, idx] + mp[0, idx])
        f_ref, fp_ref = oracles.ode_jost(matrix_potential, k, x[idx])
        np.testing.assert_allclose(f, f_ref, atol=1e-8)
        np.testing.assert_allclose(fp, fp_ref, atol=1e-8)


def test_jost_agrees_with_volterra_oracle_matrix(matrix_potential):
    # the integral-equation oracle is second order in its segment width, so
    # its gap to the exact solver shrinks about fourfold per doubling
    x = np.linspace(0.0, 2.0, 257)
    k = np.array([0.0, 0.6, -1.3, 3.7])
    m, _ = faddeev_solve(matrix_potential, k, x)
    mp = oracles.mprime_nodes(matrix_potential, k, x)
    gaps = []
    for refine in (8, 16):
        mv, mpv = oracles.volterra_faddeev(matrix_potential, k, x, refine=refine)
        gaps.append(max(np.abs(mv - m).max(), np.abs(mpv - mp).max()))
    assert gaps[0] < 5e-6
    assert gaps[1] < gaps[0] / 3.0


def test_volterra_oracle_matches_closed_form_step():
    k = np.array([2.0, 0.7, -2.0, 0.0])
    m, mp = oracles.volterra_faddeev(box_potential(1.0, 0.0, 1.0), k, np.linspace(0.0, 1.0, 257))
    _assert_step_values(m, mp[:, 0], atol=5e-7)


def test_volterra_oracle_stall_reports_worst_momentum():
    v = box_potential(1e6, 0.0, 1.0)
    with pytest.raises(oracles.VolterraStall) as err:
        oracles.volterra_faddeev(v, np.array([1.0]), np.linspace(0.0, 1.0, 65), max_sweeps=5)
    assert err.value.sweeps == 5
    assert err.value.k == 1.0
    assert err.value.delta > 0


def test_wronskian_identities(matrix_potential):
    # For Hermitian V both pairings are x-independent; the conjugate pairing
    # carries the constant 2ik, the k/-k pairing vanishes identically.
    k = 1.3
    x = np.linspace(0.0, 2.0, 257)
    m, _ = faddeev_solve(matrix_potential, np.array([k, -k]), x)
    mp = oracles.mprime_nodes(matrix_potential, np.array([k, -k]), x)
    phase = np.exp(1j * np.array([k, -k])[:, None] * x[None, :])
    f = phase[..., None, None] * m
    fp = phase[..., None, None] * (
        1j * np.array([k, -k])[:, None, None, None] * m + mp
    )
    dag = lambda a: a.conj().swapaxes(-1, -2)
    diag_w = dag(f[0]) @ fp[0] - dag(fp[0]) @ f[0]
    cross_w = dag(f[1]) @ fp[0] - dag(fp[1]) @ f[0]
    target = 2j * k * np.eye(2)
    assert np.abs(diag_w - target).max() < 1e-8
    assert np.abs(diag_w - diag_w[-1]).max() < 1e-8  # constancy
    assert np.abs(cross_w).max() < 1e-8


def test_conjugation_symmetry_real_matrix():
    v = PotentialSpec.from_cells(2, [(0.0, 1.5, np.array([[1.0, 0.4], [0.4, -0.5]]))])
    x = np.linspace(0.0, 1.5, 97)
    m, _ = faddeev_solve(v, np.array([0.9, -0.9]), x)
    mp = oracles.mprime_nodes(v, np.array([0.9, -0.9]), x)
    np.testing.assert_allclose(m[1], m[0].conj(), atol=1e-10)
    np.testing.assert_allclose(mp[1], mp[0].conj(), atol=1e-10)


def test_output_window_must_cover_support():
    v = box_potential(1.0, 0.0, 1.0)
    with pytest.raises(JostError):
        faddeev_solve(v, np.array([1.0]), np.linspace(0.0, 0.5, 17))
    with pytest.raises(JostError):
        faddeev_solve(v, np.array([1.0]), np.array([0.0]))


def test_non_hermitian_cell_rejected():
    # the cellwise eigenbasis needs Hermitian cells; a silent triangle read
    # would solve a different potential
    v = PotentialSpec.from_cells(2, [(0.0, 1.0, np.array([[1.0, 0.5], [0.0, 1.0]]))])
    with pytest.raises(NonHermitian):
        faddeev_solve(v, np.array([1.0]), np.linspace(0.0, 1.0, 17))


def test_tall_barrier_raises_jost_overflow():
    # sqrt(1e6 - k^2) over a unit width is ~1000 > log(float64 max) ~ 709.8:
    # cosh overflows, and no table with non-finite entries may be returned
    v = box_potential(1e6, 0.0, 1.0)
    with pytest.raises(JostOverflow) as err:
        faddeev_solve(v, np.array([1.0]), np.linspace(0.0, 1.0, 65))
    assert err.value.cell == (0.0, 1.0)
    assert err.value.k == 1.0
    assert err.value.growth > np.log(np.finfo(float).max)
    with pytest.raises(JostOverflow):
        solve_faddeev(v, KXGrid.build(kmax=8.0, nk=64, dx=1.0 / 32.0, xmax=4.0))


def test_deep_well_with_bound_states():
    # V = -10 on (0, 2) binds states; the table must be exact down to k -> 0
    v = box_potential(-10.0, 0.0, 2.0)
    g = KXGrid.build(kmax=8.0, nk=512, dx=1.0 / 32.0, xmax=4.0)
    jt = solve_faddeev(v, g)
    picks = np.flatnonzero(np.isin(np.abs(g.k), np.abs(g.k)[[255, 250, 200, 20]]))
    assert np.abs(g.k[picks]).min() < 0.05
    f, fp = jt.wall
    for i in picks:
        f_ref, fp_ref = oracles.ode_jost(v, g.k[i])
        np.testing.assert_allclose(f[i], f_ref[0], atol=1e-8)
        np.testing.assert_allclose(fp[i], fp_ref[0], atol=1e-8)
    f0_ref, fp0_ref = oracles.ode_jost(v, 0.0)
    np.testing.assert_allclose(jt.m0, f0_ref[0], atol=1e-8)
    np.testing.assert_allclose(jt.m0prime, fp0_ref[0], atol=1e-8)
    for bp in (BoundaryPair.dirichlet(), BoundaryPair.neumann()):
        assert smatrix(jost_matrix(jt, bp)).unitarity_defect < 1e-12


def test_free_table_and_free_jost():
    g = KXGrid.build(kmax=8.0, nk=64, dx=1.0 / 32.0, xmax=4.0)
    jt = solve_faddeev(zero_potential(2), g)
    np.testing.assert_array_equal(jt.m, np.broadcast_to(np.eye(2), jt.m.shape))
    np.testing.assert_array_equal(jt.mprime, 0.0)
    bp = BoundaryPair.robin(GOLDEN_THETA, n=2)
    jm = jost_matrix(jt, bp).jmatrix
    np.testing.assert_allclose(jm.J, oracles.free_jost_matrix(g.k, bp), atol=1e-14)
    np.testing.assert_allclose(jm.J0, bp.B, atol=1e-14)
    assert not jm.exceptional
    # free Neumann is the classic exceptional case: J(k) = -ik I vanishes at 0
    jn = jost_matrix(jt, BoundaryPair.neumann(2)).jmatrix
    assert jn.exceptional
    assert jn.min_sv0 < 1e-12


def test_golden_jost_matrix_is_exceptional(golden_table):
    jm = golden_table.jmatrix
    assert jm.exceptional
    assert jm.min_sv0 < 1e-6
    # J(0) = cosh(1) cos(theta) - sinh(1) sin(theta) = 0 at the golden angle
    np.testing.assert_allclose(
        jm.J0[0, 0], COSH1 * np.cos(GOLDEN_THETA) - SINH1 * np.sin(GOLDEN_THETA), atol=1e-6
    )
    # Dirichlet on the same potential is generic: |J(0)| = cosh 1
    jd = jost_matrix(golden_table, BoundaryPair.dirichlet()).jmatrix
    assert not jd.exceptional
    np.testing.assert_allclose(jd.min_sv0, COSH1, atol=1e-6)


def test_golden_table_far_edge_exact(golden_table):
    # at the support edge m = I exactly, so f = e^{ikx} I there
    xe = golden_table.xv[-1]
    f_edge = np.exp(1j * golden_table.k * xe) * golden_table.m[:, -1, 0, 0]
    np.testing.assert_allclose(f_edge, np.exp(1j * golden_table.k), atol=1e-12)
    np.testing.assert_allclose(golden_table.m0[0, 0], COSH1, atol=1e-6)
    np.testing.assert_allclose(golden_table.m0prime[0, 0], -SINH1, atol=1e-6)


def test_kernel_diagonal_matches_half_tail(golden_kernel, matrix_potential):
    # K(x, x+) = (1/2) integral_x^inf V, summed by hand over the cells:
    # (1 - x)/2 for the unit step, zero for V = 0, and for the 2x2 potential
    # ((1 - x) V1 + V2)/2 on [0, 1] and (2 - x) V2 / 2 on [1, 2]
    xv = golden_kernel.x
    np.testing.assert_allclose(golden_kernel.diagonal[:, 0, 0], 0.5 * (1.0 - xv), atol=1e-13)
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=8.0)
    kt = marchenko_kernel(solve_faddeev(matrix_potential, grid))
    v1, v2 = matrix_potential.values
    w1 = np.clip(1.0 - kt.x, 0.0, None)[:, None, None]
    w2 = np.clip(2.0 - np.maximum(kt.x, 1.0), 0.0, None)[:, None, None]
    np.testing.assert_allclose(kt.diagonal, 0.5 * (w1 * v1 + w2 * v2), rtol=0, atol=1e-13)
    kt = marchenko_kernel(solve_faddeev(zero_potential(2), grid))
    assert np.abs(kt.diagonal).max() == 0.0


def test_kernel_is_real_and_upper_triangular(golden_kernel):
    assert np.abs(golden_kernel.values.imag).max() < 1e-12
    sub = golden_kernel.y[None, :] < golden_kernel.x[:, None] - 1e-12
    assert np.abs(golden_kernel.values[sub]).max() == 0.0
    assert golden_kernel.tail_fraction < 5e-3


def test_kernel_exponential_bound(golden_kernel):
    # |K(x, y)| <= (1/2) e^{sigma1(x)} sigma((x+y)/2) with sigma, sigma1 the
    # closed-form tail moments of the unit step.  The synthesized kernel is
    # band-limited, so the jump at y = x and the crease at x + y = 2 X_V are
    # smeared over a width ~ 2 pi / K_max: the bound holds strictly away from
    # those sets and within a smearing allowance globally.
    x = golden_kernel.x[:, None]
    y = golden_kernel.y[None, :]
    mid = 0.5 * (x + y)
    sigma = np.clip(1.0 - mid, 0.0, None)
    sigma1 = 0.5 * np.clip(1.0 - x**2, 0.0, None)
    bound = 0.5 * np.exp(sigma1) * sigma
    vals = np.abs(golden_kernel.values[:, :, 0, 0])
    width = 2.0 * np.pi / 40.0
    smooth = ((y - x) >= width) & ((x + y) <= 2.0 - width)
    assert np.all(vals[smooth] <= bound[smooth])
    assert np.all(vals <= bound + 5e-3)


def test_jost_representation(golden_table, golden_kernel):
    report = oracles.jost_representation_check(golden_table, golden_kernel)
    assert report["max_defect"] < 6e-3  # O(dy^2) at dy = 1/128
    assert report["defects"].size == report["k"].size


def test_kernel_requires_momentum_window():
    g = KXGrid.build(kmax=8.0, nk=128, dx=1.0 / 32.0, xmax=4.0)
    jt = solve_faddeev(box_potential(25.0, 0.0, 1.0), g)
    with pytest.raises(TailNotNegligible):
        marchenko_kernel(jt)


def test_tail_fraction_equals_all_norms_check(matrix_potential):
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1.0 / 64.0, xmax=6.0)
    # the rotated n = 3 potential reads 8.3e-3 on that grid, past TAIL_TOL,
    # and 2.2e-3 at kmax 40
    wide = KXGrid.build(kmax=40.0, nk=512, dx=1.0 / 64.0, xmax=6.0)
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s, 0.0], [s * 0.6, c * 0.6, 0.8], [-s * 0.8, -c * 0.8, 0.6]])
    rotated = box_potential(rot @ np.diag([0.5, 1.0, 1.5]) @ rot.T, 0.0, 1.0)
    for potential, on in ((matrix_potential, grid), (rotated, wide)):
        jt = solve_faddeev(potential, on)
        kt = marchenko_kernel(jt)
        assert kt.tail_fraction > 0.0
        assert kt.tail_fraction == oracles.tail_fraction_all_norms(jt)
    # on n = 3 the Frobenius peak is not the spectral one, so the equality
    # above needs the exact norms the filter keeps
    remainder = jt.m - np.eye(3) - born_term(rotated, jt.k, jt.xv)
    fro = np.linalg.norm(remainder, axis=(-2, -1)).max()
    spectral = np.linalg.norm(remainder, ord=2, axis=(-2, -1)).max()
    assert fro > spectral * (1.0 + 1e-3)


def test_schur_integrals_match_svd_norms(golden_kernel, matrix_potential, medium_grid):
    bp = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    matrix_kernel = marchenko_kernel(jost_matrix(solve_faddeev(matrix_potential, medium_grid), bp))
    for kt in (golden_kernel, matrix_kernel):
        norms = np.linalg.norm(kt.values, ord=2, axis=(-2, -1))
        row = (norms * kt.wy[None, :]).sum(axis=1).max()
        col = (norms * kt.wx[:, None]).sum(axis=0).max()
        np.testing.assert_allclose([kt.schur_row, kt.schur_col], [row, col], rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_norms_match_svd(n):
    """``_spectral_norms`` (closed form at n = 2, Gram eigenvalue at n = 3)
    against the SVD norm on random, zero, rank-one and equal-singular-value
    stacks."""
    rng = np.random.default_rng(3)
    shape = (40, 7, n, n)
    random = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u, v = (rng.normal(size=(40, 7, n, 1)) + 1j * rng.normal(size=(40, 7, n, 1)) for _ in range(2))
    rank_one = u @ v.conj().swapaxes(-1, -2)
    unitary = np.linalg.qr(random)[0] * rng.uniform(0.1, 10.0, size=(40, 7, 1, 1))
    for mats in (random, rank_one, unitary, 1e-150 * random, 1e150 * random):
        expected = np.linalg.norm(mats, ord=2, axis=(-2, -1))
        np.testing.assert_allclose(_spectral_norms(mats), expected, rtol=1e-14, atol=0)
    assert not _spectral_norms(np.zeros(shape, dtype=complex)).any()


def test_born_term_leading_order():
    eps = 1e-3
    v = box_potential(eps, 0.0, 1.0)
    k = np.array([1.1, 0.0])
    x = np.linspace(0.0, 1.0, 129)
    m, _ = faddeev_solve(v, k, x)
    born = born_term(v, k, x)
    resid = np.abs(m - np.eye(1) - born).max()
    assert resid < 5e-6  # second order in the coupling
    # k = 0 closed form: integral_x^1 (y - x) eps dy = eps (1 - x)^2 / 2
    np.testing.assert_allclose(
        born[1, :, 0, 0], 0.5 * eps * (1.0 - x) ** 2, atol=1e-12
    )
