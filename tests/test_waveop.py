"""Wave operators: the field primitives, the three equivalent routes,
adjoints, finite-time limits, and the L^p boundedness probes.

Closed forms used here: the Hilbert transform pair 1/(1+x^2) -> x/(1+x^2);
the free Dirichlet wave operator +-i R H E_even; the free Neumann collapse of
every route to the identity; and the kernel Schur bound integrated in closed
form for the unit step.  All discrete adjoints are exact transposes of the
forward quadratures, so duality tests run at rounding level.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import next_fast_len
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scatterkit import grids, waveop
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.jost import marchenko_kernel, solve_faddeev, jost_matrix
from scatterkit.potentials import box_potential, zero_potential
from scatterkit.scattering import fs_symbol, p_symbols, s_limits, scattering_table, smatrix
from scatterkit.spectral import WindowOverflow, evolve_spectral, f0_transform, physical_solution
from scatterkit.waveop import (
    DomainMismatch,
    DomainReflection,
    FieldR,
    FieldRplus,
    GridMismatch,
    HypothesisViolated,
    SchurUnbounded,
    WindowTooSmall,
    bump_family,
    convolve,
    convolve_adjoint,
    extend_even,
    extend_even_adjoint,
    hilbert,
    kernel_apply,
    kernel_apply_adjoint,
    lp_probe,
    restrict,
    restrict_adjoint,
    wave_op_adjoint,
    wave_op_decomposed,
    wave_op_l1_form,
    wave_op_stationary,
    wave_op_time_limit,
)


@pytest.fixture(scope="module")
def golden_wave(golden_scatter):
    """Physical-solution, scattering, and kernel tables for the unit step."""
    jt, table = golden_scatter
    return physical_solution(jt, table), table, marchenko_kernel(jt)


@pytest.fixture(scope="module")
def dirichlet_fine():
    """Free Dirichlet tables on a fine momentum grid (the stationary route's
    midpoint momentum sum carries an O(dk^2 x) boundary term, so closed-form
    comparisons want small dk)."""
    grid = KXGrid.build(kmax=20.0, nk=4096, dx=1 / 128, xmax=16.0)
    jt = jost_matrix(solve_faddeev(zero_potential(1), grid), BoundaryPair.dirichlet(1))
    return jt, smatrix(jt)


@pytest.fixture(scope="module")
def matrix_wave(matrix_potential):
    """Scattering and kernel tables for the 2x2 potential under the Robin
    pair (pi, 0.9), where S_inf != I and F_s != 0, on a small grid."""
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=12.0)
    bc = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    jt = jost_matrix(solve_faddeev(matrix_potential, grid), bc)
    return scattering_table(jt), marchenko_kernel(jt)


@pytest.fixture(scope="module")
def neumann_free():
    grid = KXGrid.build(kmax=40.0, nk=2048, dx=1 / 128, xmax=16.0)
    jt = jost_matrix(solve_faddeev(zero_potential(1), grid), BoundaryPair.neumann(1))
    table = scattering_table(jt)
    return physical_solution(jt, table), table, marchenko_kernel(jt)


def _inner_plus(f: FieldRplus, g: FieldRplus) -> complex:
    return complex(np.sum(f.weights[:, None] * f.values.conj() * g.values))


def _inner_line(f: FieldR, g: FieldR) -> complex:
    return complex(np.sum(f.weights[:, None] * f.values.conj() * g.values))


# -- fields ---------------------------------------------------------------------


def test_field_contracts():
    x = np.arange(0.0, 4.0, 0.25)
    f = FieldRplus(x, np.ones(x.size))
    assert f.n == 1 and f.dx == 0.25
    assert f.norm(1) == pytest.approx(np.trapezoid(np.ones(x.size), x))
    assert f.norm(np.inf) == pytest.approx(1.0)
    with pytest.raises(GridMismatch, match="start at 0"):
        FieldRplus(x + 1.0, np.ones(x.size))
    xs = np.arange(-3.0, 3.0 + 1e-12, 0.25)
    FieldR(xs, np.ones(xs.size))
    with pytest.raises(GridMismatch, match="symmetric about 0"):
        FieldR(xs[:-1], np.ones(xs.size - 1))
    bent = np.concatenate([x[:8], x[8:] * 1.01])
    with pytest.raises(GridMismatch, match="half-line grid must be uniform"):
        FieldRplus(bent, np.ones(x.size))
    with pytest.raises(GridMismatch, match="symmetric grid must be uniform"):
        FieldR(np.concatenate([-bent[:0:-1], bent]), np.ones(2 * x.size - 1))
    for cls, grid in ((FieldRplus, x), (FieldR, xs)):
        with pytest.raises(GridMismatch, match="do not match the grid length"):
            cls(grid, np.ones(grid.size + 1))
        field = cls(grid, np.ones((grid.size, 2)))
        replaced = field.replace_values(2.0 * field.values)
        assert type(replaced) is cls and replaced.n == 2
        assert np.array_equal(replaced.x, grid) and np.all(replaced.values == 2.0)
        with pytest.raises(GridMismatch, match="do not match the grid length"):
            field.replace_values(np.ones(grid.size - 1))
    # a caller's full-line grid is checked for a centre node at 0 as the
    # half-line grid is for its start, so its right half is a half-line grid
    with pytest.raises(GridMismatch, match="centre node at 0"):
        FieldR(xs + 1e-10, np.ones(xs.size))
    # derived fields keep the grids they come from, bit for bit
    grid = KXGrid.build(kmax=10.0, nk=64, dx=1 / 16, xmax=3.0)
    f = FieldRplus(grid.x, np.exp(-grid.x))
    g = extend_even(f)
    np.testing.assert_array_equal(g.x, grid.x_sym)
    np.testing.assert_array_equal(restrict_adjoint(f).x, grid.x_sym)
    for half in (restrict(g), extend_even_adjoint(g)):
        np.testing.assert_array_equal(half.x, f.x)
    for field in (f, g):
        assert field.replace_values(2.0 * field.values).x is field.x
    # only the length is checked on a derived field
    with pytest.raises(GridMismatch, match="do not match the grid length"):
        FieldR._derived(grid.x_sym, np.ones(grid.x.size))


def test_extension_restriction_algebra():
    x = np.arange(0.0, 5.0, 0.125)
    vals = np.exp(-((x - 2.0) ** 2)) * (1.0 + 0.3j)
    f = FieldRplus(x, vals)
    ev = extend_even(f)
    assert np.array_equal(restrict(ev).values, f.values)
    assert np.abs(ev.values - ev.values[::-1]).max() == 0.0


def test_extension_adjoints_are_exact():
    rng = np.random.default_rng(11)
    x = np.arange(0.0, 6.0, 0.25)
    xs = np.concatenate([-x[:0:-1], x])
    f = FieldRplus(x, rng.normal(size=(x.size, 2)) + 1j * rng.normal(size=(x.size, 2)))
    g = FieldR(xs, rng.normal(size=(xs.size, 2)) + 1j * rng.normal(size=(xs.size, 2)))
    lhs = _inner_line(extend_even(f), g)
    rhs = _inner_plus(f, extend_even_adjoint(g))
    assert abs(lhs - rhs) < 1e-12
    lhs = _inner_plus(restrict(g), f)
    rhs = _inner_line(g, restrict_adjoint(f))
    assert abs(lhs - rhs) < 1e-12


# -- Hilbert transform ----------------------------------------------------------


def test_hilbert_matches_lorentzian_pair():
    # (1/pi) PV int (1/(1+y^2)) / (x-y) dy = x/(1+x^2)
    x = np.arange(-100.0, 100.0 + 1e-9, 1 / 8)
    f = FieldR(x, 1.0 / (1.0 + x**2))
    h = hilbert(f).values[:, 0]
    target = x / (1.0 + x**2)
    assert np.abs(h - target).max() < 5e-4
    inner = np.abs(x) < 50.0
    assert np.abs(h - target)[inner].max() < 1e-4


def test_hilbert_involution_on_gaussian():
    x = np.arange(-1600.0, 1600.0 + 1e-9, 0.25)
    g = FieldR(x, np.exp(-(x**2) / 2.0))
    twice = hilbert(hilbert(g))
    assert np.abs(twice.values + g.values).max() < 2e-3


def test_hilbert_parity_and_window_gate():
    x = np.arange(-40.0, 40.0 + 1e-9, 1 / 8)
    even = FieldR(x, np.exp(-(x**2) / 4.0))
    h = hilbert(even).values
    assert np.abs(h + h[::-1]).max() < 1e-12  # image of even is odd
    edge = FieldR(x, np.exp(-((x - 38.0) ** 2)))
    with pytest.raises(WindowTooSmall, match="outer tenth"):
        hilbert(edge)
    tiny = FieldR(x, 1e-14 * np.exp(-((x - 38.0) ** 2)))
    hilbert(tiny)  # numerically-zero mass: the precondition is moot


@pytest.mark.parametrize(
    "xmax, dx, width, n",
    [(40.0, 1 / 8, 2.0, 1), (20.0, 1 / 32, 0.75, 2), (160.0, 1 / 2, 6.0, 1)],
)
def test_hilbert_matches_dawson_closed_form(xmax, dx, width, n):
    # H e^{-(x/s)^2} = (2/sqrt(pi)) dawsn(x/s); the lattice kernel is exact
    # for band-limited samples, and the window holds the packet to rounding
    from scipy.special import dawsn

    x = np.arange(-xmax, xmax + 1e-9, dx)
    mix = np.array([1.0, 0.5 - 2.0j])[:n]
    f = FieldR(x, np.exp(-((x / width) ** 2))[:, None] * mix)
    target = (2.0 / np.sqrt(np.pi)) * dawsn(x / width)[:, None] * mix
    h = hilbert(f).values
    assert np.abs(h - target).max() < 1e-13 * np.abs(target).max()


def _record_fft_lengths(monkeypatch) -> list:
    """The lengths of the FFTs that ``grids`` takes from now on."""
    lengths = []
    for name in ("fft", "ifft"):
        def recorded(a, *args, _op=getattr(grids, name), **kwargs):
            out = _op(a, *args, **kwargs)
            lengths.append(out.shape[kwargs.get("axis", -1)])
            return out
        monkeypatch.setattr(grids, name, recorded)
    return lengths


def test_hilbert_fft_length(monkeypatch):
    # the lattice kernel's lags |m| < N on a circle of 2N - 1 points: no
    # transform longer than that, the spectrum's own included
    waveop._hilbert_spectrum.cache_clear()
    lengths = _record_fft_lengths(monkeypatch)
    x = np.arange(-30.0, 30.0 + 1e-9, 1 / 8)
    hilbert(FieldR(x, np.exp(-(x**2))))
    assert lengths and max(lengths) <= next_fast_len(2 * x.size - 1)


#: the benchmark's step_golden and matrix2x2 grids, and their channel counts
HALF_LINE_GRIDS = {
    "golden": (dict(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=16.0), 1),
    "matrix2x2": (dict(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0), 2),
}


@pytest.mark.parametrize("grid", list(HALF_LINE_GRIDS))
def test_half_line_hilbert_matches_the_restricted_transform(grid, monkeypatch):
    # the nodes from the centre c of N = 2c + 1 read the lags -c .. 2c, so
    # a circle of N + c points is exact
    sizes, n = HALF_LINE_GRIDS[grid]
    x = KXGrid.build(**sizes).x_sym
    rng = np.random.default_rng(2)
    values = (rng.normal(size=(x.size, n)) + 1j * rng.normal(size=(x.size, n))) * np.exp(
        -((x[:, None] - 2.0) ** 2) / 8.0
    )
    f = FieldR(x, values)
    reference = restrict(hilbert(f)).values
    waveop._hilbert_spectrum.cache_clear()
    lengths = _record_fft_lengths(monkeypatch)
    got = waveop._hilbert_from(f, f.center)
    assert lengths and max(lengths) <= next_fast_len(x.size + f.center)
    assert np.abs(got - reference).max() <= 1e-15 * np.abs(reference).max()


@pytest.mark.parametrize("nodes", [5, 33, 65])
def test_hilbert_from_any_node_matches_direct_lattice_sum(nodes):
    # tapered, so that the window check passes
    rng = np.random.default_rng(nodes)
    x = np.arange(nodes) - (nodes - 1) / 2.0
    taper = np.exp(-8.0 * (2.0 * x / nodes) ** 2)[:, None]
    values = (rng.normal(size=(nodes, 2)) + 1j * rng.normal(size=(nodes, 2))) * taper
    lag = np.subtract.outer(np.arange(nodes), np.arange(nodes))
    h = np.where(lag % 2 == 1, 2.0 / (np.pi * np.where(lag == 0, 1, lag)), 0.0)
    direct = h @ values
    for first in (1, nodes // 2, nodes - 1):
        got = waveop._hilbert_from(FieldR(x, values), first)
        assert np.abs(got - direct[first:]).max() < 1e-14 * np.abs(direct).max()


def test_convolve_fft_length(monkeypatch):
    # a kernel on the field's own symmetric grid reaches lags |m| <= (N - 1)/2
    # in the output, so a circle of N + (N - 1)/2 points is exact
    lengths = _record_fft_lengths(monkeypatch)
    x = np.arange(-30.0, 30.0 + 1e-9, 1 / 8)
    G = FieldR(x, np.exp(-np.abs(x))[:, None, None] * np.ones((1, 2, 2)))
    f = FieldR(x, np.exp(-(x**2))[:, None] * np.array([1.0, 0.5j]))
    convolve(G, f)
    convolve_adjoint(G, f)
    assert lengths and max(lengths) <= next_fast_len(x.size + (x.size - 1) // 2)


@pytest.mark.parametrize("nodes", [2, 3, 64, 65])
def test_hilbert_kernel_matches_direct_lattice_sum(nodes):
    # (H Y)_j = sum_l h[j - l] Y_l with h[m] = 2/(pi m) for odd m, summed
    # directly; two nodes reach only the lags -1, 0 and 1
    rng = np.random.default_rng(nodes)
    values = rng.normal(size=(nodes, 2)) + 1j * rng.normal(size=(nodes, 2))
    lag = np.subtract.outer(np.arange(nodes), np.arange(nodes))
    h = np.where(lag % 2 == 1, 2.0 / (np.pi * np.where(lag == 0, 1, lag)), 0.0)
    direct = h @ values
    got = grids.circular_convolve(waveop._hilbert_spectrum(nodes, 0), values)
    assert np.abs(got - direct).max() < 1e-14 * np.abs(direct).max()


def test_hilbert_of_real_field_is_real():
    # the lattice kernel is real, so a real field with energy up to the
    # Nyquist frequency of the grid maps to a real one
    rng = np.random.default_rng(5)
    x = np.arange(-30.0, 30.0 + 1e-9, 1 / 8)
    f = FieldR(x, rng.normal(size=(x.size, 1)) * np.exp(-(x[:, None] ** 2) / 40.0))
    assert np.abs(hilbert(f).values.imag).max() < 1e-12


# -- convolution and kernel application ---------------------------------------


def _delta_kernel(xs: np.ndarray, shift_nodes: int, dx: float) -> FieldR:
    g = np.zeros((xs.size, 1, 1))
    g[xs.size // 2 + shift_nodes, 0, 0] = 1.0 / dx
    return FieldR(xs, g)


def test_convolve_shift_and_young():
    x = np.arange(0.0, 8.0, 1 / 16)
    xs = np.concatenate([-x[:0:-1], x])
    f = extend_even(FieldRplus(x, np.exp(-((x - 3.0) ** 2))))
    shifted = convolve(_delta_kernel(xs, 8, f.dx), f)
    assert np.abs(shifted.values[8:, 0] - f.values[:-8, 0]).max() < 1e-12
    rng = np.random.default_rng(2)
    g = FieldR(xs, np.exp(-np.abs(xs[:, None, None])) * rng.normal(size=(xs.size, 1, 1)))
    young = np.sum(np.abs(g.values[:, 0, 0])) * f.dx * f.norm(1)
    assert convolve(g, f).norm(1) <= young * (1.0 + 1e-12)


def test_convolve_adjoint_duality():
    rng = np.random.default_rng(7)
    x = np.arange(0.0, 6.0, 1 / 8)
    xs = np.concatenate([-x[:0:-1], x])
    g = FieldR(xs, (rng.normal(size=(xs.size, 2, 2)) + 1j * rng.normal(size=(xs.size, 2, 2)))
               * np.exp(-np.abs(xs))[:, None, None])
    f = FieldR(xs, rng.normal(size=(xs.size, 2)) + 1j * rng.normal(size=(xs.size, 2)))
    z = FieldR(xs, rng.normal(size=(xs.size, 2)) + 1j * rng.normal(size=(xs.size, 2)))
    lhs = _inner_line(z, convolve(g, f))
    rhs = _inner_line(convolve_adjoint(g, z), f)
    assert abs(lhs - rhs) < 1e-12
    bad = FieldR(xs, np.zeros((xs.size, 1, 2)))
    with pytest.raises(GridMismatch, match="channel"):
        convolve(bad, f)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nodes", [64, 65])
@pytest.mark.parametrize("dtype", [float, complex])
def test_channel_convolve_matches_fftconvolve_loop(n, nodes, dtype):
    # kernels as long as the field, shorter and longer, of both parities:
    # the circle's length reads both lengths.  Past twice the field's length
    # the kernel's far lags reach no output and are dropped
    rng = np.random.default_rng(nodes + 10 * n)

    def sample(*shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if dtype is complex else out

    values = sample(nodes, n)
    for kernel_nodes in (nodes, 31, 32, 97, 160):
        g = sample(kernel_nodes, n, n)
        reference = oracles.channel_convolve_loop(g, values)
        got = grids.circular_convolve(grids.convolution_spectrum(g, (len(g) - 1) // 2, nodes), values)
        assert got.shape == values.shape
        assert np.abs(got - reference).max() < 1e-14 * np.abs(reference).max()


def test_kernel_apply_matches_row_quadrature(golden_wave):
    _, _, kt = golden_wave
    xg = np.arange(0.0, 16.0, 1 / 128)
    f = FieldRplus(xg, np.exp(-((xg - 2.0) ** 2)) * (1.0 - 0.5j))
    out = kernel_apply(kt, f)
    ny = kt.y.size
    rows = np.array([
        np.trapezoid(kt.values[i, :, 0, 0] * f.values[:ny, 0], kt.y) for i in range(kt.x.size)
    ])
    assert np.abs(out.values[: kt.x.size, 0] - rows).max() < 1e-12
    assert np.abs(out.values[kt.x.size :]).max() == 0.0
    lhs = _inner_plus(f, out)
    rhs = _inner_plus(kernel_apply_adjoint(kt, f), f)
    assert abs(lhs - rhs) < 1e-10
    # the Schur integrals scale with the kernel: scaled to twice the ceiling
    loud = replace(kt, values=(2.0 * waveop.SCHUR_BOUND / max(kt.schur_row, kt.schur_col)) * kt.values)
    assert max(loud.schur_row, loud.schur_col) > waveop.SCHUR_BOUND
    for op in (kernel_apply, kernel_apply_adjoint):
        with pytest.raises(SchurUnbounded):
            op(loud, f)
    coarse = FieldRplus(np.arange(0.0, 16.0, 1 / 64), np.ones(1024))
    with pytest.raises(GridMismatch):
        kernel_apply(kt, coarse)


def test_kernel_schur_below_closed_form_bound(golden_wave):
    # |K(x,y)| <= (1/2) sigma((x+y)/2) e^{sigma_1(x)} integrates in closed
    # form for the unit step: the row integral is at most
    # e^{sigma_1(x)} sigma_1(x) <= e^{1/2} / 2.
    _, _, kt = golden_wave
    assert kt.schur_row <= 0.5 * np.exp(0.5) + 1e-12
    assert kt.schur_col <= 0.5 * np.exp(0.5) + 1e-12


def test_kernel_rejects_full_line_field(golden_wave):
    # an even extension fits the kernel's spacing and length, so only its
    # domain tells it apart: its kernel rows would act on negative-x samples
    _, _, kt = golden_wave
    xg = np.arange(0.0, 16.0, 1 / 128)
    full = extend_even(FieldRplus(xg, np.exp(-((xg - 2.0) ** 2))))
    for op in (kernel_apply, kernel_apply_adjoint):
        with pytest.raises(DomainMismatch, match="half-line"):
            op(kt, full)


# -- the three routes ----------------------------------------------------------


def test_free_neumann_routes_are_identity(neumann_free):
    pt, table, kt = neumann_free
    x = pt.grid.x
    f = FieldRplus(x, np.exp(-(x**2) / 2.0))
    for sign in (+1, -1):
        assert np.abs(wave_op_stationary(pt, f, sign).values - f.values).max() < 1e-8
        assert np.abs(wave_op_decomposed(table, kt, f, sign).values - f.values).max() < 1e-12
        assert np.abs(wave_op_l1_form(table, kt, f, sign).values - f.values).max() < 1e-12


def test_free_dirichlet_stationary_closed_form(dirichlet_fine):
    jt, table = dirichlet_fine
    assert np.abs(table.S + 1.0).max() < 1e-14  # S is exactly -identity
    pt = physical_solution(jt, table)
    x = pt.grid.x
    for x0, sig in ((4.0, 1.0), (6.0, 1.5), (3.0, 0.75)):
        f = FieldRplus(x, np.exp(-((x - x0) ** 2) / (2.0 * sig**2)))
        reference = restrict(hilbert(extend_even(f)))
        for sign in (+1, -1):
            w = wave_op_stationary(pt, f, sign)
            defect = w.replace_values(w.values - sign * 1j * reference.values)
            assert defect.norm(2) / f.norm(2) < 1e-3


def test_l1_form_requires_identity_limits(dirichlet_fine):
    jt, table = dirichlet_fine
    full = p_symbols(fs_symbol(s_limits(table)))
    kt = marchenko_kernel(jt)
    f = FieldRplus(jt.grid.x, np.exp(-((jt.grid.x - 4.0) ** 2)))
    with pytest.raises(HypothesisViolated) as err:
        wave_op_l1_form(full, kt, f, +1)
    assert err.value.s0_defect > 1.5
    assert err.value.sinf_defect > 1.5


def test_identity_gate_reads_exact_limits():
    # the unit step under Neumann is generic (J(0) = -f'(0, 0) = sinh 1):
    # S(0) = -I and S_inf = I exactly, so the S(0) defect is |-I - I| = 2
    grid = KXGrid.build(kmax=20.0, nk=512, dx=1 / 64, xmax=4.0)
    jt = jost_matrix(solve_faddeev(box_potential(1.0, 0.0, 1.0), grid), BoundaryPair.neumann(1))
    with pytest.raises(HypothesisViolated) as err:
        waveop._identity_gate(smatrix(jt))
    assert abs(err.value.s0_defect - 2.0) < 1e-12
    assert err.value.sinf_defect < 1e-12


def test_routes_agree_pairwise(golden_wave):
    pt, table, kt = golden_wave
    x = pt.grid.x
    fields = [
        np.exp(-((x - 6.0) ** 2) / 2.0),
        np.exp(2j * x) * np.exp(-((x - 8.0) ** 2) / 4.0),
        (x / 6.0) * np.exp(-((x - 5.0) ** 2) / 3.0),
    ]
    for vals in fields:
        f = FieldRplus(x, vals)
        scale = f.norm(2)
        for sign in (+1, -1):
            a = wave_op_stationary(pt, f, sign).values
            b = wave_op_decomposed(table, kt, f, sign).values
            c = wave_op_l1_form(table, kt, f, sign).values
            for u, v in ((a, b), (a, c), (b, c)):
                assert FieldRplus(x, u - v).norm(2) / scale < 2e-3


def test_routes_agree_with_nonidentity_limits(matrix_tables):
    """Stationary against decomposed route on the 2x2 potential, where
    S(0) = -I and S_inf = diag(-1, 1): the case in which the stationary
    route's k = 0 midpoint term and the decomposed route's window show."""
    table, kt, pt = matrix_tables
    eye = np.eye(2)
    assert abs(np.linalg.norm(table.S0 - eye, 2) - 2.0) < 1e-12
    assert abs(np.linalg.norm(table.S_infinity - eye, 2) - 2.0) < 1e-12
    x = pt.grid.x
    direction = np.array([1.0, 0.5j]) / np.sqrt(1.25)
    f = FieldRplus(x, np.exp(-((x - 0.4 * x[-1]) ** 2) / (2.0 * 0.55**2))[:, None] * direction)
    for sign in (+1, -1):
        a = wave_op_stationary(pt, f, sign).values
        b = wave_op_decomposed(table, kt, f, sign).values
        assert FieldRplus(x, a - b).norm(2) / f.norm(2) < 3e-3


def test_routes_are_linear(golden_wave):
    pt, table, kt = golden_wave
    x = pt.grid.x
    fa = FieldRplus(x, np.exp(2j * x) * np.exp(-((x - 9.0) ** 2) / 6.0))
    fb = FieldRplus(x, (x / 6.0) * np.exp(-((x - 6.0) ** 2) / 3.0))
    a, b = 0.7 - 0.4j, -1.1 + 0.2j
    comb = FieldRplus(x, a * fa.values + b * fb.values)
    for op in (
        lambda f: wave_op_stationary(pt, f, +1),
        lambda f: wave_op_decomposed(table, kt, f, +1),
        lambda f: wave_op_l1_form(table, kt, f, +1),
    ):
        defect = op(comb).values - a * op(fa).values - b * op(fb).values
        assert np.abs(defect).max() < 1e-10


def test_decomposed_matches_three_term_oracle(golden_wave, matrix_wave):
    _, golden, golden_kt = golden_wave
    matrix, matrix_kt = matrix_wave
    assert np.abs(matrix.S_infinity - np.eye(2)).max() > 0.5
    assert np.abs(matrix.Fs).max() > 1e-3
    for table, kt in ((golden, golden_kt), (matrix, matrix_kt)):
        x = table.grid.x
        f = FieldRplus(x, np.stack([
            np.exp(-((x - 2.0) ** 2)),
            np.exp(1.5j * x) * np.exp(-((x - 2.5) ** 2)),
        ], axis=1)[:, : table.n])
        for sign in (+1, -1):
            fused = wave_op_decomposed(table, kt, f, sign)
            reference = oracles.decomposed_three_terms(table, kt, f, sign)
            gap = fused.replace_values(fused.values - reference.values).norm(2)
            assert gap / reference.norm(2) < 1e-12


@pytest.mark.parametrize(
    "route, passes",
    [
        (wave_op_decomposed, {"_hilbert_from": 1, "_symbol_convolve": 1, "kernel_apply": 1}),
        (wave_op_l1_form, {"_hilbert_from": 0, "_symbol_convolve": 1, "kernel_apply": 1}),
        (wave_op_adjoint, {"convolve_adjoint": 0, "_symbol_convolve": 1, "kernel_apply_adjoint": 1}),
    ],
    ids=["decomposed", "l1_form", "adjoint"],
)
def test_route_makes_one_pass_of_each_primitive(golden_wave, monkeypatch, route, passes):
    _, table, kt = golden_wave
    calls = _count_calls(monkeypatch, waveop, passes)
    x = table.grid.x
    route(table, kt, FieldRplus(x, np.exp(-((x - 6.0) ** 2))), +1)
    assert calls == passes


def _count_calls(monkeypatch, module, names) -> dict:
    """How often each of the module's functions ``names`` is called from now on."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _op=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_both_signs_share_the_sign_free_passes(golden_wave, monkeypatch):
    # W_+ and W_- of one field: one Hilbert transform and one F_s product
    # for the decomposed route, one forward FFT of E f for it and the
    # four-term route together, and one cosine transform for the stationary
    # route; the data-independent spectra are built by a first field
    pt, table, kt = golden_wave
    x = table.grid.x
    first = FieldRplus(x, np.exp(-((x - 5.0) ** 2)))
    for sign in (+1, -1):
        wave_op_decomposed(table, kt, first, sign)
        wave_op_l1_form(table, kt, first, sign)
    calls = _count_calls(
        monkeypatch, waveop, ["_hilbert_from", "_symbol_convolve", "kernel_apply", "f0_transform", "fft"]
    )
    ffts = _count_calls(monkeypatch, grids, ["fft", "ifft"])
    f = FieldRplus(x, np.exp(-((x - 6.0) ** 2)))
    for sign in (+1, -1):
        wave_op_decomposed(table, kt, f, sign)
    assert calls == {"_hilbert_from": 1, "_symbol_convolve": 1, "kernel_apply": 2, "f0_transform": 0, "fft": 1}
    for sign in (+1, -1):
        wave_op_l1_form(table, kt, f, sign)
    assert calls["fft"] == 1 and calls["_symbol_convolve"] == 3
    # the rest: the Hilbert transform's two FFTs and one inverse FFT per product
    assert ffts == {"fft": 1, "ifft": 4}
    for sign in (+1, -1):
        wave_op_stationary(pt, f, sign)
    assert calls["f0_transform"] == 1


def _packet(x: np.ndarray, n: int) -> np.ndarray:
    """A benchmark-like probe packet on the half-line grid ``x``, along a
    fixed unit vector of C^n."""
    packet = np.exp(1.5j * x - (x - 0.4 * x[-1]) ** 2 / (2.0 * 0.55**2))
    return packet[:, None] * (np.ones(1) if n == 1 else np.array([0.6, 0.8j]))


def _route_values(pt, table, kt, f, sign, route):
    """One route's values on ``f``; None when the four-term route refuses."""
    try:
        if route == "stationary":
            return wave_op_stationary(pt, f, sign).values
        op = wave_op_decomposed if route == "decomposed" else wave_op_l1_form
        return op(table, kt, f, sign).values
    except HypothesisViolated:
        return None


def _apply_pass(pt, table, kt, f) -> dict:
    """Every route at both signs on one field, in the order of the
    benchmark's apply pass."""
    routes = ("stationary", "decomposed", "l1_form")
    return {(sign, r): _route_values(pt, table, kt, f, sign, r) for sign in (+1, -1) for r in routes}


def _assert_fresh(pt, table, kt, values, shared):
    for (sign, route), got in shared.items():
        fresh = _route_values(pt, table, kt, FieldRplus(pt.grid.x, values), sign, route)
        assert (got is None) == (fresh is None)
        assert got is None or np.array_equal(got, fresh), (sign, route)


#: the fixture of each table set and the order of (pt, table, kt) in it
TABLE_SETS = {"golden_wave": (0, 1, 2), "matrix_tables": (2, 0, 1), "neumann_free": (0, 1, 2)}


@pytest.mark.parametrize("tables", list(TABLE_SETS))
def test_kept_field_data_give_the_fresh_field_outputs(tables, request):
    # one field through every route at both signs returns, bit for bit,
    # what each call returns on a field of its own
    fixture = request.getfixturevalue(tables)
    pt, table, kt = (fixture[i] for i in TABLE_SETS[tables])
    values = _packet(pt.grid.x, table.n)
    _assert_fresh(pt, table, kt, values, _apply_pass(pt, table, kt, FieldRplus(pt.grid.x, values)))


def test_kept_field_data_follow_the_table(golden_wave):
    # one field alternating between the golden Robin tables, free Neumann
    # tables on the same grid, and free Neumann tables on the same nodes x
    # with other momenta matches a fresh field at every call
    golden = golden_wave
    neumann = []
    for grid in (golden[0].grid, KXGrid.build(kmax=40.0, nk=1024, dx=1 / 128, xmax=16.0)):
        jt = jost_matrix(solve_faddeev(zero_potential(1), grid), BoundaryPair.neumann(1))
        table = scattering_table(jt)
        neumann.append((physical_solution(jt, table), table, marchenko_kernel(jt)))
    assert np.array_equal(neumann[1][0].grid.x, golden[0].grid.x)
    values = _packet(golden[0].grid.x, 1)
    f = FieldRplus(golden[0].grid.x, values)
    for tables in (golden, neumann[0], golden, neumann[1], neumann[0], golden):
        _assert_fresh(*tables, values, _apply_pass(*tables, f))


def test_fields_are_immutable(golden_wave):
    # the constructor keeps its own copy, every field's values are read-only,
    # and a caller writing to its array afterwards changes no result
    pt, table, kt = golden_wave
    x = pt.grid.x
    samples, grid_x = _packet(x, 1), x.copy()
    original = samples.copy()
    f = FieldRplus(grid_x, samples)
    before = wave_op_stationary(pt, f, +1).values
    samples[:] = 0.0
    grid_x *= 2.0
    assert np.array_equal(f.values, original) and np.array_equal(f.x, x)
    assert np.array_equal(f.weights, grids.trapezoid_weights(x)) and extend_even(f).x[-1] == x[-1]
    assert np.array_equal(before, wave_op_stationary(pt, f, +1).values)
    _assert_fresh(pt, table, kt, original, _apply_pass(pt, table, kt, f))
    g = extend_even(f)
    for field in (f, g, restrict(g), f.replace_values(2.0 * original), wave_op_decomposed(table, kt, f, +1)):
        with pytest.raises(ValueError, match="read-only"):
            field.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        f.x[0] = 1.0


def test_symbol_spectra_are_built_once_per_table(golden_wave, monkeypatch):
    # a fresh table builds each symbol's spectrum at its first use in a
    # route and keeps it; fs_symbol builds none, and a table made by
    # replace builds its own
    from scatterkit import scattering

    _, table, kt = golden_wave
    built = []

    def counted(kernel, *args):
        built.append(kernel)
        return grids.convolution_spectrum(kernel, *args)

    monkeypatch.setattr(scattering, "convolution_spectrum", counted)
    assert fs_symbol(replace(table, Fs=None)).Fs is not None
    assert built == []
    fresh = replace(table)
    x = table.grid.x
    for centre in (5.0, 6.0, 7.0):
        f = FieldRplus(x, np.exp(-((x - centre) ** 2)))
        for sign in (+1, -1):
            wave_op_decomposed(fresh, kt, f, sign)
            wave_op_l1_form(fresh, kt, f, sign)
            wave_op_adjoint(fresh, kt, f, sign)
    assert len(built) == 3
    for symbol in (fresh.Fs, fresh.Pplus, fresh.Pminus):
        assert sum(kernel is symbol for kernel in built) == 1
    # the adjoint route reads the forward spectrum, conjugate-transposed on
    # each call: the table keeps one read-only spectrum per symbol and none
    # for the adjoint
    assert set(fresh._symbol_spectra) == {"Fs", "Pplus", "Pminus"}
    assert not any(spectrum.flags.writeable for spectrum in fresh._symbol_spectra.values())
    alone = replace(table)
    for sign in (+1, +1, -1, -1):
        wave_op_adjoint(alone, kt, f, sign)
    assert len(built) == 5 and built[-2] is alone.Pplus and built[-1] is alone.Pminus
    assert set(alone._symbol_spectra) == {"Pplus", "Pminus"}
    built.clear()
    doubled = replace(fresh, Fs=2.0 * fresh.Fs)
    spectrum = doubled.symbol_spectrum("Fs")
    assert len(built) == 1 and built[-1] is doubled.Fs
    old = fresh.symbol_spectrum("Fs")
    assert np.abs(spectrum - 2.0 * old).max() < 1e-14 * np.abs(old).max()


def test_adjoint_symbol_spectrum_is_the_flipped_kernels(golden_wave, matrix_tables):
    """The flipped symbol ``g(-l)^dagger`` keeps its lags on the circle of
    ``g``, so its spectrum is ``g``'s conjugate-transposed at each frequency:
    the table's forward spectrum, conjugate-transposed as the adjoint route
    reads it, matches the spectrum of the flipped samples to 1e-15, for
    every symbol of a scalar and of a 2x2 table."""
    for table in (replace(golden_wave[1]), replace(matrix_tables[0])):
        for name in ("Fs", "Pplus", "Pminus"):
            g = getattr(table, name)
            flipped = g[::-1].conj().swapaxes(-1, -2)
            reference = grids.convolution_spectrum(flipped, (g.shape[0] - 1) // 2, g.shape[0])
            got = table.symbol_spectrum(name).conj().swapaxes(-1, -2)
            assert got.shape == reference.shape
            assert np.abs(got - reference).max() <= 1e-15 * np.abs(reference).max()


def test_kernel_operators_read_the_table_in_place(matrix_tables):
    """Both kernel operators are one matrix-vector product on the array the
    Goursat recursion wrote: ``kt.matrix`` is a view of it, and a call
    allocates under a quarter of the table (``np.tensordot`` copied it)."""
    _, kt, pt = matrix_tables
    assert np.shares_memory(kt.matrix, kt.values)
    x = pt.grid.x
    f = FieldRplus(x, np.exp(-((x - 1.0) ** 2))[:, None] * np.array([1.0, 0.5j]))
    for op in (kernel_apply, kernel_apply_adjoint):
        op(kt, f)  # the Schur gate and the weights are kept on the table
        tracemalloc.start()
        try:
            op(kt, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kt.values.nbytes / 4


def test_decomposed_window_gate(dirichlet_fine, neumann_free):
    # the gate watches E f - S_inf E f - F_s * E f, the one field that is
    # Hilbert transformed: 2 E f under free Dirichlet, 0 under free Neumann
    jt, _ = dirichlet_fine
    x = jt.grid.x
    edge = FieldRplus(x, np.exp(-((x - 15.5) ** 2)))
    with pytest.raises(WindowTooSmall, match="outer tenth"):
        wave_op_decomposed(scattering_table(jt), marchenko_kernel(jt), edge, +1)
    _, table, kt = neumann_free
    edge = FieldRplus(table.grid.x, np.exp(-((table.grid.x - 15.5) ** 2)))
    for sign in (+1, -1):
        assert np.abs(wave_op_decomposed(table, kt, edge, sign).values - edge.values).max() < 1e-15


# -- adjoint, projector, intertwining ------------------------------------------


def test_adjoint_duality_and_projector(golden_wave):
    pt, table, kt = golden_wave
    x = pt.grid.x
    rng = np.random.default_rng(17)
    env = np.exp(-((x - 7.0) ** 2) / 8.0)
    f = FieldRplus(x, env * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size)))
    z = FieldRplus(x, np.exp(1.5j * x) * np.exp(-((x - 5.0) ** 2) / 4.0))
    for sign in (+1, -1):
        lhs = _inner_plus(z, wave_op_l1_form(table, kt, f, sign))
        rhs = _inner_plus(wave_op_adjoint(table, kt, z, sign), f)
        assert abs(lhs - rhs) < 1e-8
    # no bound states for the touchstone data: W^dagger W = identity on L^2
    y = FieldRplus(x, np.exp(-((x - 6.0) ** 2) / 2.0))
    wy = wave_op_l1_form(table, kt, y, +1)
    back = wave_op_adjoint(table, kt, wy, +1)
    assert FieldRplus(x, back.values - y.values).norm(2) / y.norm(2) < 2e-3


def test_intertwining_with_free_evolution(golden_wave):
    # f(H) P_ac = W f(H_0) W^dagger for f = exp(-i lambda), evaluated at t = 1
    pt, table, kt = golden_wave
    x = pt.grid.x
    y = FieldRplus(x, np.exp(-((x - 6.0) ** 2) / 2.0))
    lhs = evolve_spectral(pt, y.values, 1.0)
    wd = wave_op_adjoint(table, kt, y, +1)
    phi = f0_transform(pt.grid, wd.values) * np.exp(-1j * pt.grid.kpos**2)[:, None]
    rhs = wave_op_l1_form(table, kt, y.replace_values(oracles.f0_synthesis(pt.grid, phi)), +1)
    assert FieldRplus(x, lhs - rhs.values).norm(2) / y.norm(2) < 5e-3


# -- finite-time limits ---------------------------------------------------------


def test_time_limit_free_neumann_is_flat(neumann_free):
    pt, _, _ = neumann_free
    x = pt.grid.x
    f = FieldRplus(x, np.exp(-((x - 5.0) ** 2) / 4.0))
    report = wave_op_time_limit(pt, f, +1, tschedule=(5.0, 15.0))
    assert report["nonincreasing"]
    assert report["relative"].max() < 1e-4
    assert report["t"][0] == 5.0


def test_time_limit_approaches_the_stationary_route(golden_wave):
    """The time-dependent definition ``W_+- = s-lim e^{itH} e^{-itH_0}`` on
    the golden step: the finite-time products approach the stationary route
    as ``t`` runs to ``+-infinity`` (relative gaps 6.1e-2, 2.2e-2 and 6.2e-3
    at ``|t|`` = 10, 20 and 40)."""
    pt, _, _ = golden_wave
    x = pt.grid.x
    f = FieldRplus(x, np.exp(-((x - 6.0) ** 2) / 2.0))
    for sign in (+1, -1):
        report = wave_op_time_limit(pt, f, sign, tschedule=(10.0, 20.0, 40.0))
        np.testing.assert_array_equal(report["t"], [10.0 * sign, 20.0 * sign, 40.0 * sign])
        gaps = report["relative"]
        assert np.all(np.diff(gaps) < 0) and gaps[-1] < 1e-2


def test_time_limit_converts_window_overflow(golden_wave, monkeypatch):
    pt, _, _ = golden_wave
    x = pt.grid.x
    f = FieldRplus(x, np.exp(-((x - 5.0) ** 2) / 4.0))

    def blow_up(*args, **kwargs):
        raise WindowOverflow("field mass reached the outer tenth of the window")

    monkeypatch.setattr("scatterkit.waveop.interacting_after_free", blow_up)
    with pytest.raises(DomainReflection, match="outer tenth"):
        wave_op_time_limit(pt, f, +1, tschedule=(5.0,))


# -- L^p probes ------------------------------------------------------------------


def test_bump_family_shapes():
    x = np.arange(0.0, 20.0, 1 / 32)
    fam = bump_family(x, scales=5, center=8.0, base_width=2.0, n=2)
    assert len(fam) == 5
    assert all(f.values.shape == (x.size, 2) for f in fam)
    sups = [f.norm(np.inf) for f in fam]
    assert np.allclose(sups, 1.0)
    l1 = np.array([f.norm(1) for f in fam])
    assert np.allclose(l1[:-1] / l1[1:], 2.0, rtol=1e-6)  # widths halve


def test_lp_probe_identity_operator():
    x = np.arange(0.0, 30.0 + 1e-9, 1 / 64)
    report = lp_probe(lambda xg: (lambda f: f), x, 1)
    assert np.abs(report["ratios"] - 1.0).max() < 1e-12
    assert report["classification"] == "bounded"
    assert report["window_sensitivity"] < 1e-12
    assert "evidence" in report and "not a proof" in report["evidence"]


def test_lp_probe_dichotomy(golden_scatter):
    x = np.arange(0.0, 30.0 + 1e-9, 1 / 128)

    def dirichlet_factory(xg):
        g = KXGrid.build(kmax=20.0, nk=1024, dx=float(xg[1] - xg[0]), xmax=float(xg[-1]))
        jt = jost_matrix(solve_faddeev(zero_potential(1), g), BoundaryPair.dirichlet(1))
        table = scattering_table(jt)
        kt = marchenko_kernel(jt)
        return lambda f: wave_op_decomposed(table, kt, f, +1)

    jt0, table0 = golden_scatter

    def golden_factory(xg):
        g = KXGrid.build(kmax=40.0, nk=2048, dx=float(xg[1] - xg[0]), xmax=float(xg[-1]))
        jt = jost_matrix(solve_faddeev(jt0.potential, g), table0.boundary)
        table = scattering_table(jt)
        kt = marchenko_kernel(jt)
        return lambda f: wave_op_decomposed(table, kt, f, +1)

    unbounded = lp_probe(dirichlet_factory, x, 1)
    assert unbounded["classification"] == "growing"
    ratios = unbounded["ratios"]
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] / ratios[0] > 2.0
    assert unbounded["window_sensitivity"] > 0.1  # log growth keeps moving

    bounded = lp_probe(golden_factory, x, 1)
    assert bounded["classification"] == "bounded"
    assert bounded["ratios"].max() / bounded["ratios"].min() < 2.0
    assert bounded["window_sensitivity"] < 0.05


# -- property: the extension adjoints hold for arbitrary data -------------------


@settings(max_examples=15, deadline=None)
@given(nodes=st.integers(min_value=8, max_value=60), seed=st.integers(0, 2**31 - 1))
def test_extension_duality_property(nodes, seed):
    rng = np.random.default_rng(seed)
    x = 0.2 * np.arange(nodes)
    xs = np.concatenate([-x[:0:-1], x])
    f = FieldRplus(x, rng.normal(size=(nodes, 1)) + 1j * rng.normal(size=(nodes, 1)))
    g = FieldR(xs, rng.normal(size=(xs.size, 1)) + 1j * rng.normal(size=(xs.size, 1)))
    assert abs(_inner_line(extend_even(f), g) - _inner_plus(f, extend_even_adjoint(g))) < 1e-10
    assert abs(_inner_plus(restrict(g), f) - _inner_line(g, restrict_adjoint(f))) < 1e-10
