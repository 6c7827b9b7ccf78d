import numpy as np
import pytest

import oracles
from scatterkit import grids, waveop
from scatterkit.grids import (
    GridError,
    GridTooCoarse,
    KXGrid,
    UniformSpline,
    cosine_taper,
    fourier_sum,
    next_fast_len,
    simpson_weights,
    spline_adjoint,
    trapezoid_weights,
)
from scatterkit.waveop import FieldR, hilbert


def small_grid():
    return KXGrid.build(kmax=8.0, nk=64, dx=1.0 / 32.0, xmax=4.0)


def test_momentum_grid_symmetric_half_offset():
    g = small_grid()
    assert g.k.size == 64
    np.testing.assert_array_equal(g.k[::-1], -g.k)
    assert not np.any(g.k == 0.0)
    np.testing.assert_allclose(g.dk, 0.25)
    np.testing.assert_allclose(g.kmax, 8.0)
    assert g.npos == 32
    assert np.all(g.kpos > 0)
    # midpoint nodes tile (0, kmax): sum of dk over kpos covers the window
    np.testing.assert_allclose(g.kpos[0], 0.5 * g.dk)
    np.testing.assert_allclose(g.kpos[-1], g.kmax - 0.5 * g.dk)


def test_spatial_grid_weights():
    g = small_grid()
    assert g.x[0] == 0.0
    np.testing.assert_allclose(g.x[-1], 4.0)
    np.testing.assert_allclose(np.diff(g.x), g.dx)
    np.testing.assert_allclose(g.wx.sum(), 4.0)
    np.testing.assert_allclose(g.wx @ g.x, 8.0)  # trapezoid exact on linear


def test_symmetric_spatial_extension():
    g = small_grid()
    assert g.x_sym.size == 2 * g.x.size - 1
    np.testing.assert_allclose(g.x_sym, -g.x_sym[::-1])
    np.testing.assert_array_equal(g.x_sym[g.x.size - 1 :], g.x)


def test_taper_window_shape():
    g = small_grid()
    t = cosine_taper(g.k, g.kmax)
    inner = np.abs(g.k) <= 0.9 * g.kmax
    np.testing.assert_allclose(t[inner], 1.0)
    assert np.all(t[~inner] < 1.0)
    assert np.all(t >= 0.0)
    # raised cosine: exactly 1/2 halfway into the roll-off band
    np.testing.assert_allclose(cosine_taper(np.array([9.5]), 10.0), [0.5], atol=1e-14)
    np.testing.assert_allclose(cosine_taper(np.array([-10.0]), 10.0), [0.0], atol=1e-14)


def test_build_rejects_bad_sizes():
    with pytest.raises(GridError):
        KXGrid.build(nk=63)
    with pytest.raises(GridError):
        KXGrid.build(kmax=-1.0)
    with pytest.raises(GridTooCoarse):
        KXGrid.build(kmax=40.0, nk=64, dx=0.5, xmax=4.0)


def test_trapezoid_weights_nonuniform():
    x = np.array([0.0, 0.5, 2.0, 3.0])
    w = trapezoid_weights(x)
    np.testing.assert_allclose(w.sum(), 3.0)
    np.testing.assert_allclose(w @ x, 4.5)  # exact on linear integrands


def test_simpson_weights_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 9)
    w = simpson_weights(x)
    np.testing.assert_allclose(w @ x**3, 0.25, atol=1e-14)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-14)


def test_simpson_weights_even_count_falls_back():
    x = np.linspace(0.0, 1.0, 8)
    w = simpson_weights(x)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-14)
    np.testing.assert_allclose(w @ x, 0.5, atol=1e-14)


def _smooth_coefficients(grid, *trailing):
    """Tapered random coefficients on the momentum grid, fixed seed."""
    rng = np.random.default_rng(7)
    shape = (grid.k.size,) + trailing
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g * cosine_taper(grid.k, grid.kmax).reshape((-1,) + (1,) * len(trailing))


def _relative_gap(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("nk", [4096, 16384])
def test_fourier_sum_matches_longdouble_direct_sum(nk):
    # the default grid and 4x its momenta; the chirp phases theta j^2 / 2
    # reach 3e4 and 1.2e5 rad, where a float64 chirp misses by ~5e-11
    grid = KXGrid.build(nk=nk)
    g = _smooth_coefficients(grid)
    y = grid.x_sym
    rows = np.arange(0, y.size, 181)
    for sign in (+1, -1):
        got = fourier_sum(g, grid.k[0], grid.dk, y, sign)
        assert got.shape == (y.size,)
        ref = oracles.direct_fourier_sum(g, grid.k[0], grid.dk, y[rows], sign)
        assert _relative_gap(got[rows], ref) < 5e-15


def test_fourier_sum_sign_minus_is_exact_conjugate():
    grid = small_grid()
    g = _smooth_coefficients(grid, 2, 2)
    minus = fourier_sum(g, grid.k[0], grid.dk, grid.x_sym, -1)
    np.testing.assert_array_equal(
        minus, np.conj(fourier_sum(np.conj(g), grid.k[0], grid.dk, grid.x_sym, +1))
    )
    real = g.real
    np.testing.assert_array_equal(
        fourier_sum(real, grid.k[0], grid.dk, grid.x, -1),
        np.conj(fourier_sum(real, grid.k[0], grid.dk, grid.x, +1)),
    )
    with pytest.raises(ValueError):
        fourier_sum(g, grid.k[0], grid.dk, grid.x, 2)


def test_fourier_sum_descending_and_nonuniform_nodes():
    grid = KXGrid.build()
    g = _smooth_coefficients(grid)
    descending = grid.x_sym[::-1]
    rows = np.arange(0, descending.size, 181)
    got = fourier_sum(g, grid.k[0], grid.dk, descending)
    ref = oracles.direct_fourier_sum(g, grid.k[0], grid.dk, descending[rows])
    assert _relative_gap(got[rows], ref) < 5e-15
    scattered = np.array([-3.7, 0.0, 0.5, 1.0, 2.0, 11.25, 39.9])
    got = fourier_sum(g, grid.k[0], grid.dk, scattered, -1)
    ref = oracles.direct_fourier_sum(g, grid.k[0], grid.dk, scattered, -1)
    assert _relative_gap(got, ref) < 5e-15


def test_fourier_sum_keeps_trailing_axes():
    grid = small_grid()
    g = _smooth_coefficients(grid, 3, 2, 2)
    y = grid.x
    got = fourier_sum(g, grid.k[0], grid.dk, y, -1)
    assert got.shape == (y.size, 3, 2, 2)
    ref = oracles.direct_fourier_sum(g, grid.k[0], grid.dk, y, -1)
    assert _relative_gap(got, ref) < 5e-15
    column = fourier_sum(g[:, 1, 0, 1], grid.k[0], grid.dk, y, -1)
    np.testing.assert_allclose(got[:, 1, 0, 1], column, rtol=0, atol=1e-14)
    assert fourier_sum(g, grid.k[0], grid.dk, np.array([]), +1).shape == (0, 3, 2, 2)


def test_fourier_sum_on_non_dyadic_spacing():
    # k[1] - k[0] carries the rounding of two nodes; across 3000 nodes and
    # |y| <= 40 that shifts the sum by ~6e-11, the end-node spacing does not
    grid = KXGrid.build(kmax=37.3, nk=3000, dx=1 / 128, xmax=40.0)
    g = _smooth_coefficients(grid)
    y = grid.x[::8]
    dense = np.exp(1j * np.outer(y, grid.k)) @ g
    assert _relative_gap(fourier_sum(g, grid.k[0], grid.dk, y), dense) < 1e-13


@pytest.mark.parametrize("origin", [0.0, 0.3, 1.0 / 3.0])
def test_phases_match_longdouble_direct_exp(origin):
    """``_phases`` against ``e^{iqx}`` formed in long double on the default
    grid, at ``|q x|`` up to ``2 kmax xmax``, ascending and descending.

    From 0 the dyadic nodes ``j dx`` are rebuilt exactly from the coarse and
    fine factors, so only the exponentials' rounding is left.  From an
    offset, node ``bB + r`` is rebuilt as ``x[bB] + (x[r] - x[0])``, which
    can sit an ulp of ``x`` away from the rounded ``x[bB + r]``: the bound is
    the phase of a node moved by one ulp, the same size as the rounding of
    ``q x`` in a float64 direct exponential.  Non-uniform nodes take that
    direct exponential itself."""
    grid = KXGrid.build()
    q = 2.0 * np.concatenate([grid.k[::97], grid.k[-1:]])
    x = origin + grid.x
    assert np.abs(q).max() * x.max() >= 2.0 * grid.kmax * grid.xmax * (1.0 - 1e-3)
    bound = 4e-15 if origin == 0.0 else np.abs(q).max() * np.spacing(x.max())
    for nodes in (x, x[::-1]):
        reference = grids._cis(np.multiply.outer(q.astype(np.longdouble), nodes.astype(np.longdouble)))
        got = grids._phases(q, nodes)
        assert got.shape == (q.size, x.size)
        assert np.abs(got - reference).max() <= bound
    bent = x[:300] + 1e-6 * np.sin(x[:300])
    np.testing.assert_array_equal(grids._phases(q, bent), np.exp(1j * np.multiply.outer(q, bent)))


def test_uniform_spline_reproduces_cubics():
    grid = small_grid()
    cubic = lambda q: (1.0 - 0.5j) + 2.0 * q - (0.3 + 0.1j) * q**2 + 0.02j * q**3
    coefficients = np.array([1.0, -2.0, 0.5])
    y = cubic(grid.k)[:, None] * coefficients
    q = np.linspace(-1.2, 1.2, 301) * grid.kmax  # reaches past both end knots
    spline = UniformSpline(grid.k, y)
    got = spline(q)
    exact = cubic(q)[:, None] * coefficients
    assert np.abs(got - exact).max() < 1e-13 * np.abs(exact).max()
    assert spline(np.float64(0.3)).shape == (3,)
    with pytest.raises(GridError, match="four knots"):
        UniformSpline(grid.k[:3], y[:3])


@pytest.mark.parametrize("nx", [4, 5, 33, 70])
def test_spline_adjoint_is_the_explicit_transpose(nx):
    """``spline_adjoint`` is the transpose of sampling the spline, built
    column by column as the spline of the identity: at points of both signs,
    on the knots and past both end knots, in any order, with trailing axes
    kept; the sweeps' blocks are crossed from ``nx = 33`` on."""
    rng = np.random.default_rng(nx)
    x = (np.arange(nx) + 0.5 - nx / 2) * 0.25  # half-offset knots, as on the momentum grid
    side = np.linspace(0.0, 1.1 * x[-1], 2 * nx)
    q = rng.permutation(np.concatenate([side, -side, x]))
    assert np.abs(q).max() > x[-1]
    explicit = UniformSpline(x, np.eye(nx))(q)  # (len(q), nx)
    z = rng.standard_normal((q.size, 2, 3)) + 1j * rng.standard_normal((q.size, 2, 3))
    got = spline_adjoint(x, q, z)
    assert got.shape == (nx, 2, 3)
    assert _relative_gap(got, np.einsum("qi,qab->iab", explicit, z)) < 1e-14
    assert np.isrealobj(spline_adjoint(x, q, z.real))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as reference

    assert [n for n in range(1, 100_001) if next_fast_len(n) != reference(n)] == []


@pytest.mark.parametrize("nx", [4, 5, 31, 32, 33, 1024, 4097])
def test_knot_slopes_match_banded_solve(nx):
    # the not-a-knot slope system of the class docstring, solved by LAPACK
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(nx)
    band = np.ones((3, nx))
    band[1, 1:-1] = 4.0
    band[0, 1] = band[2, -2] = 2.0
    for columns in (1, 4, 516):
        for imag in (0.0, 1.0):
            y = rng.standard_normal((nx, columns)) + imag * 1j * rng.standard_normal((nx, columns))
            d = np.diff(y, axis=0)
            rhs = np.concatenate(
                [2.5 * d[:1] + 0.5 * d[1:2], 3.0 * (d[:-1] + d[1:]), 0.5 * d[-2:-1] + 2.5 * d[-1:]]
            )
            got = grids._knot_slopes(d)
            assert got.dtype == y.dtype
            assert _relative_gap(got, solve_banded((1, 1), band, rhs)) < 1e-15


def test_reused_spectra_give_bit_identical_results():
    grid = small_grid()
    g = _smooth_coefficients(grid, 2)
    x = grid.x_sym
    f = FieldR(x, np.exp(-(x**2))[:, None] * np.array([1.0, 0.5j]))

    def run():
        return fourier_sum(g, grid.k[0], grid.dk, x, -1), hilbert(f).values

    caches = (grids._chirp_spectrum, grids._bluestein_phases, waveop._hilbert_spectrum)
    for cache in caches:
        cache.cache_clear()
    first = run()
    again = run()
    assert [cache.cache_info().hits for cache in caches] == [1, 1, 1]
    for cache in caches:
        cache.cache_clear()
    cold = run()
    for a, b, c in zip(first, again, cold):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
