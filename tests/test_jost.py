import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import GOLDEN_THETA
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.jost import (
    KERNEL_TOL,
    JostError,
    JostOverflow,
    bound_states,
    faddeev_solve,
    jost_matrix,
    marchenko_kernel,
    solve_faddeev,
)
from scatterkit.potentials import (
    NonHermitian,
    PotentialSpec,
    _singular_values,
    _spectral_norms,
    box_potential,
    zero_potential,
)
from scatterkit.scattering import smatrix
from scatterkit.waveop import FieldRplus, kernel_apply

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


def _three_cells():
    """A 2x2 Hermitian three-cell potential whose breaks sit off every grid
    node, with ``V = 0`` left of its first break."""
    cells = [
        (0.13, 0.71, np.array([[1.0, 0.5j], [-0.5j, 2.0]])),
        (0.71, 1.37, np.array([[-0.3, 0.2], [0.2, 0.4]])),
        (1.37, 2.29, np.array([[0.7, -0.4 + 0.1j], [-0.4 - 0.1j, -1.2]])),
    ]
    return PotentialSpec.from_cells(2, cells)


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
    m, mp0 = oracles.faddeev_m(v, k, x)
    _assert_step_values(m, mp0, atol=1e-12)
    # real potential: k -> -k is entrywise conjugation
    mp = oracles.mprime_nodes(v, k, x)
    np.testing.assert_allclose(m[2], m[0].conj(), atol=1e-12)
    np.testing.assert_allclose(mp[2], mp[0].conj(), atol=1e-12)
    # beyond-support edge is exact
    np.testing.assert_allclose(m[:, -1], np.broadcast_to(np.eye(1), (4, 1, 1)), atol=1e-14)
    np.testing.assert_allclose(mp[:, -1], 0.0, atol=1e-14)


def test_jost_matches_ode_oracle_matrix(matrix_potential):
    """On nodes through the breaks, and for a potential whose breaks sit off
    the nodes: on non-uniform nodes (each cell's exponentials taken
    directly) and on uniform ones whose cells start off a node (the factored
    tables from an offset origin)."""
    scattered = np.sort(np.random.default_rng(11).uniform(0.0, 2.29, 50))
    cases = (
        (matrix_potential, np.linspace(0.0, 2.0, 257), [0, 96]),  # x = 0 and x = 0.75
        (_three_cells(), np.concatenate([[0.0], scattered, [2.5]]), [0, 9, 23, 37, 49]),
        (_three_cells(), np.linspace(0.0, 2.5, 161), [0, 9, 23, 37, 140]),  # the oracle stops at 2.29
    )
    for v, x, idx in cases:
        for k in (0.6, 3.7):
            m, _ = oracles.faddeev_m(v, np.array([k]), x)
            mp = oracles.mprime_nodes(v, np.array([k]), x)
            f = np.exp(1j * k * x[idx, None, None]) * m[0, idx]
            fp = np.exp(1j * k * x[idx, None, None]) * (1j * k * m[0, idx] + mp[0, idx])
            f_ref, fp_ref = oracles.ode_jost(v, k, x[idx])
            np.testing.assert_allclose(f, f_ref, atol=1e-8)
            np.testing.assert_allclose(fp, fp_ref, atol=1e-8)


def test_jost_agrees_with_volterra_oracle_matrix(matrix_potential):
    # the integral-equation oracle is second order in its segment width, so
    # its gap to the exact solver shrinks about fourfold per doubling
    x = np.linspace(0.0, 2.0, 257)
    k = np.array([0.0, 0.6, -1.3, 3.7])
    m, _ = oracles.faddeev_m(matrix_potential, k, x)
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
    m, _ = oracles.faddeev_m(matrix_potential, np.array([k, -k]), x)
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
    m, _ = oracles.faddeev_m(v, np.array([0.9, -0.9]), x)
    mp = oracles.mprime_nodes(v, np.array([0.9, -0.9]), x)
    np.testing.assert_allclose(m[1], m[0].conj(), atol=1e-10)
    np.testing.assert_allclose(mp[1], mp[0].conj(), atol=1e-10)


def test_unsorted_momenta_match_one_momentum_solves(matrix_potential):
    """The cell factors are formed once per distinct ``|k|`` and gathered: on
    an unsorted, asymmetric set holding 0 and repeated ``|k|``, with
    evanescent channels, each row equals its own one-momentum solve."""
    k = np.array(UNSORTED_K)
    cases = ((matrix_potential, np.linspace(0.0, 2.0, 129)), (_three_cells(), np.linspace(0.0, 2.5, 161)))
    for v, x in cases:
        near, mprime = faddeev_solve(v, k, x)
        f = near.f()
        assert f.shape == (k.size, x.size, 2, 2)
        for i in range(k.size):
            alone, alone_prime = faddeev_solve(v, k[i : i + 1], x)
            np.testing.assert_allclose(f[i], alone.f()[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(mprime[i], alone_prime[0], rtol=0, atol=1e-14)


#: the unsorted, asymmetric momenta with 0 and repeated ``|k|``
UNSORTED_K = (0.7, -2.3, 0.0, 2.3, 5.1, -0.7, 0.7, 3.3, -1.2)


def _reference_cases(request):
    """``(potential, k, x)`` for the factored near field's checks: the golden
    step and the 2x2 fixture on their benchmark grids' near fields, the
    three cells (evanescent channels) and a zero potential on table grids,
    and the unsorted momenta."""
    grid = KXGrid.build(kmax=20.0, nk=256, dx=1.0 / 64.0, xmax=4.0)
    golden = KXGrid.build(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=16.0)
    wide = KXGrid.build(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0)
    return {
        "golden": (request.getfixturevalue("golden_potential"), golden.k, golden.x[:129]),
        "matrix2x2": (request.getfixturevalue("matrix_potential"), wide.k, wide.x[:129]),
        "three_cells": (_three_cells(), grid.k, grid.x[:148]),
        "zero": (zero_potential(2), grid.k, grid.x[:1]),
        "unsorted": (
            request.getfixturevalue("matrix_potential"),
            np.array(UNSORTED_K),
            np.linspace(0.0, 2.0, 129),
        ),
    }


@pytest.mark.parametrize("case", ["golden", "matrix2x2", "three_cells", "zero", "unsorted"])
def test_factored_near_field_matches_the_reference_table(case, request):
    """The factored analysis and synthesis equal the products with the
    reference propagation's whole ``[k, b, a, x]`` table, to 1e-13; ``m``
    formed from the factors equals the reference's to 1e-14, and so do the
    wall values of ``f`` and ``m'``."""
    v, k, x = _reference_cases(request)[case]
    n = v.n
    near, mprime = faddeev_solve(v, k, x)
    scattered, ref_mprime = oracles.reference_near_field(v, k, x)
    free = np.exp(1j * np.outer(k, x))[..., None, None] * np.eye(n)
    f_ref = scattered.transpose(0, 3, 2, 1) + free  # [k, x, a, b]
    rng = np.random.default_rng(4)
    Yc = rng.normal(size=(x.size, n)) + 1j * rng.normal(size=(x.size, n))
    reference = np.einsum("kxab,xa->kb", f_ref, Yc)
    assert np.abs(near.sums(Yc) - reference).max() <= 1e-13 * np.abs(reference).max()
    V = rng.normal(size=(3, k.size, n)) + 1j * rng.normal(size=(3, k.size, n))
    # the coefficients of each momentum, folded onto its distinct |k|
    E = np.zeros((3,) + near.coeffs.shape[:3] + (near.waves.shape[1],), dtype=complex)
    np.add.at(E.transpose(4, 0, 1, 2, 3), near.pair, np.einsum("clsbq,rqb->qrcls", near.coeffs, V))
    reference = np.einsum("kxab,rkb->rxa", f_ref, V)
    assert np.abs(near.spread(E, x.size) - reference).max() <= 1e-13 * np.abs(reference).max()
    m_ref = np.exp(-1j * np.outer(k, x))[..., None, None] * f_ref
    m = np.exp(-1j * np.outer(k, x))[..., None, None] * near.f()
    np.testing.assert_allclose(m, m_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(near.wall, f_ref[:, 0], rtol=0, atol=1e-14 * np.abs(f_ref[:, 0]).max())
    np.testing.assert_allclose(mprime, ref_mprime, rtol=0, atol=1e-14 * max(1.0, np.abs(ref_mprime).max()))


def test_m_is_formed_from_the_cell_factors(golden_table, matrix_potential):
    """``JostTable`` stores the cell factors alone; ``m`` is formed on read
    and matches the reference propagation's ``[k, b, a, x]`` table, turned
    into ``m``, to 1e-14."""
    grid = KXGrid.build(kmax=20.0, nk=256, dx=1.0 / 64.0, xmax=4.0)
    tables = (golden_table, solve_faddeev(matrix_potential, grid), solve_faddeev(zero_potential(2), grid))
    for jt in tables:
        assert "m" not in {f.name for f in dataclasses.fields(jt)}
        scattered = oracles.reference_near_field(jt.potential, jt.k, jt.xv)[0]
        reference = np.exp(-1j * np.outer(jt.k, jt.xv))[..., None, None] * scattered.transpose(0, 3, 2, 1)
        reference += np.eye(jt.n)
        assert jt.m.shape == (jt.k.size, jt.xv.size, jt.n, jt.n)
        np.testing.assert_allclose(jt.m, reference, rtol=0, atol=1e-14)


#: the grid of the benchmark's ``matrix2x2`` workload
MATRIX2X2_GRID = dict(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0)


def _traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_peaks_below_one_and_a_half_times_its_factors(matrix_potential):
    """On the 2x2 benchmark grid the solve keeps its cell factors, a quarter
    of one ``(nk, n, n, nx)`` table, and its peak stays below 1.5 times
    them: no node-by-node table is formed, and the factors are formed a
    block of ``|k|`` at a time."""
    grid = KXGrid.build(**MATRIX2X2_GRID)
    jt, peak = _traced_peak(lambda: solve_faddeev(matrix_potential, grid))
    stored = jt.near.waves.nbytes + jt.near.coeffs.nbytes
    assert stored < 16 * jt.k.size * jt.xv.size * jt.n**2 / 3
    assert peak < 1.5 * stored


def test_reading_m_peaks_at_one_block_past_its_size(matrix_potential):
    """``JostTable.m`` is formed 64 momenta at a time into its output: on
    the 2x2 benchmark grid reading it peaks at most one such block past its
    own size."""
    jt = solve_faddeev(matrix_potential, KXGrid.build(**MATRIX2X2_GRID))
    m, peak = _traced_peak(lambda: jt.m)
    assert peak <= m.nbytes + m[:64].nbytes


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
    f_edge = golden_table.near.f()[:, -1, 0, 0]
    np.testing.assert_allclose(f_edge, np.exp(1j * golden_table.k), atol=1e-12)
    np.testing.assert_allclose(golden_table.m0[0, 0], COSH1, atol=1e-6)
    np.testing.assert_allclose(golden_table.m0prime[0, 0], -SINH1, atol=1e-6)


def test_kernel_diagonal_matches_half_tail(golden_kernel, matrix_potential):
    # K(x, x+) = (1/2) integral_x^inf V, summed by hand over the cells:
    # (1 - x)/2 for the unit step and, for the 2x2 potential,
    # ((1 - x) V1 + V2)/2 on [0, 1] and (2 - x) V2 / 2 on [1, 2]
    xv = golden_kernel.x
    np.testing.assert_allclose(golden_kernel.diagonal[:, 0, 0], 0.5 * (1.0 - xv), atol=1e-13)
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=8.0)
    kt = marchenko_kernel(solve_faddeev(matrix_potential, grid))
    v1, v2 = matrix_potential.values
    w1 = np.clip(1.0 - kt.x, 0.0, None)[:, None, None]
    w2 = np.clip(2.0 - np.maximum(kt.x, 1.0), 0.0, None)[:, None, None]
    np.testing.assert_allclose(kt.diagonal, 0.5 * (w1 * v1 + w2 * v2), rtol=0, atol=1e-13)
    # the diagonal node holds half the jump (all of it on the wall row, whose
    # trapezoid weight is already half); the recursion's diagonal is exact
    for kt in (golden_kernel, kt):
        i = np.arange(kt.x.size)
        share = np.where(i > 0, 0.5, 1.0)[:, None, None]
        np.testing.assert_allclose(kt.values[i, i], share * kt.diagonal, rtol=0, atol=1e-13)


def test_zero_potential_kernel_is_zero():
    # X_V = 0 leaves one row; the columns keep two nodes, so that the
    # operators can read the column spacing
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=8.0)
    kt = marchenko_kernel(solve_faddeev(zero_potential(2), grid))
    assert kt.y.size >= 2 and kt.tail_fraction == 0.0
    assert not kt.values.any() and not kt.diagonal.any()
    f = FieldRplus(grid.x, np.exp(-((grid.x - 3.0)[:, None] ** 2)) * np.ones(2))
    assert not kernel_apply(kt, f).values.any()


def test_kernel_is_real_and_upper_triangular(golden_kernel, matrix_tables):
    # rows and columns are prefixes of grid.x: y < x is j < i, and the
    # kernel vanishes there exactly
    for kt in (golden_kernel, matrix_tables[1]):
        below = np.arange(kt.y.size)[None, :] < np.arange(kt.x.size)[:, None]
        assert np.array_equal(kt.y[: kt.x.size], kt.x)
        assert not kt.values[below].any() and kt.values[~below].any()
        assert 0.0 < kt.tail_fraction < KERNEL_TOL
    # a real potential has a real kernel
    assert np.abs(golden_kernel.values.imag).max() < 1e-12


def test_kernel_exponential_bound(golden_kernel):
    # |K(x, y)| <= (1/2) e^{sigma1(x)} sigma((x+y)/2) with sigma, sigma1 the
    # closed-form tail moments of the unit step, on every node up to the
    # diagonal and across the crease at x + y = 2 X_V, where the recursion
    # gives exact zeros
    x = golden_kernel.x[:, None]
    y = golden_kernel.y[None, :]
    mid = 0.5 * (x + y)
    sigma = np.clip(1.0 - mid, 0.0, None)
    sigma1 = 0.5 * np.clip(1.0 - x**2, 0.0, None)
    bound = 0.5 * np.exp(sigma1) * sigma
    vals = np.abs(golden_kernel.values[:, :, 0, 0])
    assert np.all(vals <= bound)


def test_jost_representation(golden_table, golden_kernel, matrix_potential):
    report = oracles.jost_representation_check(golden_table, golden_kernel)
    assert report["max_defect"] < 2e-4  # 4.5e-5
    assert report["defects"].size == report["k"].size
    # the 2x2 potential on the matrix2x2 benchmark grid: 2.1e-4
    grid = KXGrid.build(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0)
    jt = solve_faddeev(matrix_potential, grid)
    assert oracles.jost_representation_check(jt, marchenko_kernel(jt))["max_defect"] < 1e-3


GOLDEN_GRID = dict(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=16.0)
MATRIX_GRID = dict(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0)
# the potential (from the 2x2 fixture), the benchmark grid it is solved on,
# and the synthesized kernel's node error there relative to max |K|, a tenth
# of which bounds the recursion's
KERNEL_CASES = {
    "golden step": (lambda fixture: box_potential(1.0, 0.0, 1.0), GOLDEN_GRID, 1.09e-3),
    "2x2 fixture": (lambda fixture: fixture, MATRIX_GRID, 5.26e-3),
    "V = 25": (lambda fixture: box_potential(25.0, 0.0, 1.0), GOLDEN_GRID, 5.23e-3),
    "off-node breaks": (lambda fixture: _three_cells(), MATRIX_GRID, None),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_converges_to_the_fine_recursion(case, matrix_potential):
    """The kernel against the same recursion at ``dx/16``: its node error is
    below the synthesized kernel's on the same grid, and the shipped
    step-doubling estimate is within a factor of 2 of it."""
    make, sizes, synthesized = KERNEL_CASES[case]
    potential = make(matrix_potential)
    grid = KXGrid.build(**sizes)
    kt = marchenko_kernel(solve_faddeev(potential, grid))
    rows = kt.x.size
    fine = oracles.goursat_kernel(potential, grid.dx / 16.0, 16 * (rows - 1) + 1, keep=16)[:, : kt.y.size]
    i = np.arange(1, rows)
    fine[i, i] *= 0.5  # the table's diagonal share
    error = np.abs(kt.values - fine).max() / np.abs(fine).max()
    assert 0.5 * error <= kt.tail_fraction <= 2.0 * error
    if synthesized is not None:
        assert error < synthesized / 10.0


def test_synthesized_kernel_moves_toward_the_recursion(golden_potential, matrix_potential):
    """The Fourier-synthesis oracle, whose error is its ``k_max`` truncation,
    comes closer to the recursion's kernel as ``k_max`` grows 2.5 times on
    the same ``dk`` and ``dx``."""
    for potential, sizes in ((golden_potential, GOLDEN_GRID), (matrix_potential, MATRIX_GRID)):
        gaps = []
        for scale in (1.0, 2.5):
            wide = dict(sizes, kmax=scale * sizes["kmax"], nk=int(scale * sizes["nk"]), xmax=8.0)
            jt = solve_faddeev(potential, KXGrid.build(**wide))
            kt = marchenko_kernel(jt)
            gaps.append(np.abs(oracles.kernel_synthesis(jt) - kt.values).max() / np.abs(kt.values).max())
        assert gaps[1] < 0.5 * gaps[0]


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
    and ``_singular_values`` (closed form at n <= 2) against the SVD on
    random, zero, rank-one and equal-singular-value stacks: the largest
    value to rtol 1e-14, the smallest to 1e-14 of the largest."""
    rng = np.random.default_rng(3)
    shape = (40, 7, n, n)
    random = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u, v = (rng.normal(size=(40, 7, n, 1)) + 1j * rng.normal(size=(40, 7, n, 1)) for _ in range(2))
    rank_one = u @ v.conj().swapaxes(-1, -2)
    unitary = np.linalg.qr(random)[0] * rng.uniform(0.1, 10.0, size=(40, 7, 1, 1))
    for mats in (random, rank_one, unitary, 1e-150 * random, 1e150 * random):
        expected = np.linalg.svd(mats, compute_uv=False)
        np.testing.assert_allclose(_spectral_norms(mats), expected[..., 0], rtol=1e-14, atol=0)
        sv = _singular_values(mats)
        assert sv.shape == expected.shape
        np.testing.assert_allclose(sv[..., 0], expected[..., 0], rtol=1e-14, atol=0)
        assert (np.abs(sv[..., -1] - expected[..., -1]) <= 1e-14 * expected[..., 0]).all()
    zero = np.zeros(shape, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not _spectral_norms(zero).any()
        assert not _singular_values(zero).any()


def test_born_term_leading_order():
    eps = 1e-3
    v = box_potential(eps, 0.0, 1.0)
    k = np.array([1.1, 0.0])
    x = np.linspace(0.0, 1.0, 129)
    m, _ = oracles.faddeev_m(v, k, x)
    born = oracles.born_term(v, k, x)
    resid = np.abs(m - np.eye(1) - born).max()
    assert resid < 5e-6  # second order in the coupling
    # k = 0 closed form: integral_x^1 (y - x) eps dy = eps (1 - x)^2 / 2
    np.testing.assert_allclose(
        born[1, :, 0, 0], 0.5 * eps * (1.0 - x) ** 2, atol=1e-12
    )


def test_born_term_by_parts_matches_cells_and_mpmath():
    """The by-parts Born term against the per-cell sum it replaced and against
    mpmath quadrature, on uniform nodes from 0, uniform nodes from an offset
    and non-uniform nodes holding the breaks themselves.

    Integrating by parts cancels two ``O(1/k^2)`` terms as ``k -> 0``, which
    leaves an absolute error of about ``eps |V| / (4k^2)``; at large ``k``
    the rounding of the ``O(|V| X / k)`` term itself, with ``X`` the support
    radius, dominates, and ``k = 0`` is a closed form of size ``|V| X^2``.
    Both references carry the same floor, so the bound is 4 times it (the
    measured gaps reach 1.2 times it, at ``k = dk/2``)."""
    v = _three_cells()
    grid = KXGrid.build(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=4.0)
    k = np.array([0.0, grid.dk / 2, -grid.dk / 2, 1.1, grid.k[-1], -grid.k[-1]])
    eps, size, X = np.finfo(float).eps, np.abs(v.values).max(), v.support_radius
    with np.errstate(divide="ignore"):
        floor = eps * size * np.where(k == 0.0, X * X, 1.0 / (4.0 * k * k) + X / np.abs(k))
    tol = 4.0 * floor[:, None, None, None]
    rng = np.random.default_rng(5)
    nodes = (
        grid.x[:160],
        0.3 + grid.x[:140],
        np.sort(np.concatenate([rng.uniform(0.0, 2.6, 60), v.breaks])),
    )
    for x in nodes:
        born = oracles.born_term(v, k, x)
        assert np.all(np.abs(born - oracles.born_term_cells(v, k, x)) <= tol)
        for j in (0, 1, 3, 4):
            for i in (0, x.size // 3, x.size // 2):
                reference = oracles.born_term_mpmath(v, k[j], x[i])
                assert np.all(np.abs(born[j, i] - reference) <= tol[j])
    # past the support the term vanishes, and a zero potential gives exact zeros
    assert not born[:, x > X].any()
    assert not oracles.born_term(zero_potential(2), k, nodes[0]).any()


# --- bound states: the roots of J(i kappa) ------------------------------------


def _in_frame(q, potential, bp):
    """The same operator in the channel frame ``q``: ``V -> q V q^dagger`` and
    ``(A, B) -> (qA, qB)``."""
    cells = [
        (a, b, 0.5 * (q @ v @ q.conj().T + (q @ v @ q.conj().T).conj().T))
        for a, b, v in zip(potential.breaks[:-1], potential.breaks[1:], potential.values)
    ]
    return PotentialSpec.from_cells(potential.n, cells), BoundaryPair.from_matrices(q @ bp.A, q @ bp.B)


@pytest.mark.parametrize("depth, width", [(5.0, 1.0), (50.0, 10.0)])
def test_box_well_bound_states_match_shooting_oracle(depth, width):
    # the wide well binds 23 states, dense in kappa near its bottom
    found = bound_states(box_potential(-depth, 0.0, width), BoundaryPair.neumann())
    exact = oracles.box_well_bound_states(depth=depth, width=width)
    assert found.size == len(exact)
    np.testing.assert_allclose(found, exact, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("theta", [0.05, 0.4, GOLDEN_THETA, 1.4, 1.55])
def test_free_robin_bound_state_is_minus_cot_squared(theta):
    found = bound_states(zero_potential(1), BoundaryPair.robin(theta))
    np.testing.assert_allclose(found, [-1.0 / np.tan(theta) ** 2], rtol=1e-12)


@pytest.mark.parametrize(
    "bp",
    [
        BoundaryPair.robin(np.pi / 2),
        BoundaryPair.robin(2.0),
        BoundaryPair.robin(3.0),
        BoundaryPair.dirichlet(),
        BoundaryPair.robin(np.pi + 1e-12),
    ],
    ids=["neumann", "robin 2", "robin 3", "dirichlet", "dirichlet above pi"],
)
def test_free_pair_without_attraction_binds_nothing(bp):
    # a Dirichlet angle within the snap tolerance above pi has a cot of
    # +1e12, which must count as Dirichlet rather than as an attraction
    assert bound_states(zero_potential(1), bp).size == 0


def test_golden_resonance_is_not_a_bound_state(golden_table, golden_potential, golden_boundary):
    assert golden_table.jmatrix.exceptional
    assert bound_states(golden_potential, golden_boundary).size == 0


@pytest.mark.parametrize("depths", [(5.0, 5.0), (5.0, 8.0)], ids=["double", "distinct"])
def test_two_channel_wells_in_any_channel_frame(depths):
    # equal depths give a double root, where det J touches zero without
    # changing sign; the list must hold it twice in every frame
    v = PotentialSpec.from_cells(2, [(0.0, 1.0, np.diag(-np.asarray(depths)))])
    exact = np.sort(np.concatenate([oracles.box_well_bound_states(d, 1.0) for d in depths]))
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    robin = BoundaryPair.robin(np.array([1.2, 0.7]), n=2)
    mixed = BoundaryPair.robin(np.array([np.pi, 0.7]), n=2)  # Dirichlet and Robin
    reference, mixed_reference = bound_states(v, robin), bound_states(v, mixed)
    # attracting Robin channels lower every energy, a Dirichlet one raises them (min-max)
    assert reference.size >= exact.size and np.all(reference[: exact.size] < exact)
    assert 1 <= mixed_reference.size <= reference.size
    assert np.all(mixed_reference >= reference[: mixed_reference.size])
    for frame in (np.eye(2), q):
        found = bound_states(*_in_frame(frame, v, BoundaryPair.neumann(2)))
        np.testing.assert_allclose(found, exact, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(bound_states(*_in_frame(frame, v, robin)), reference, atol=1e-10)
        np.testing.assert_allclose(bound_states(*_in_frame(frame, v, mixed)), mixed_reference, atol=1e-10)


@pytest.mark.parametrize("shift", [0.0, 6.0])
def test_matrix_fixture_count_matches_finite_differences(matrix_potential, shift):
    cells = zip(matrix_potential.breaks[:-1], matrix_potential.breaks[1:], matrix_potential.values)
    v = PotentialSpec.from_cells(2, [(a, b, m - shift * np.eye(2)) for a, b, m in cells])
    bp = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    found = bound_states(v, bp)
    dh = oracles.discrete_hamiltonian(v, bp, np.arange(0.0, 12.0, 1 / 32))
    fd = np.sort(oracles.discrete_bound_states(dh))
    assert found.size == fd.size
    assert np.abs(found - fd).max(initial=0.0) < 5e-2  # the model's first-order error at the steps
    # each energy makes J(i kappa) singular
    sv = np.linalg.svd(oracles.imaginary_jost_matrix(v, bp, np.sqrt(-found)), compute_uv=False)
    assert np.all(sv[:, -1] < 1e-12 * sv[:, 0])


def test_states_behind_a_barrier():
    # the deep state sits behind a barrier: its wall values turn through
    # 2 pi in a relative width of about 1e-7 in kappa, which a scan of J
    # would step over; the oscillation count does not
    v = PotentialSpec.from_cells(1, [(0.0, 1.5, 20.0), (1.5, 3.0, -8.0)])
    found = bound_states(v, BoundaryPair.neumann())
    dh = oracles.discrete_hamiltonian(v, BoundaryPair.neumann(), np.arange(0.0, 12.0, 1 / 64))
    fd = np.sort(oracles.discrete_bound_states(dh))
    assert found.size == fd.size == 2
    # the shallow state reaches the model's Dirichlet end at x = 12
    assert np.abs(found - fd).max() < 5e-3
    # J = -f'(i kappa, 0) is real here and changes sign at each root
    jost = [oracles.imaginary_jost_matrix(v, BoundaryPair.neumann(), np.sqrt(-found) * t) for t in (1 - 1e-9, 1 + 1e-9)]
    below, above = (j[:, 0, 0].real for j in jost)
    assert np.all(below * above < 0.0)


def test_bound_states_hold_past_the_overflow_of_the_jost_solution():
    # kappa_max x_e = 850 is past log(float64 max), where the Jost solution
    # overflows; the count walks a bounded representation of its plane
    theta = np.arctan(1.0 / 80.0)
    found = bound_states(box_potential(1.0, 9.5, 10.0), BoundaryPair.robin(theta))
    np.testing.assert_allclose(found, [-6400.0], rtol=1e-12)
