"""Physical solutions, generalized Fourier maps, and time evolution.

Closed forms used here: the free Neumann solution 2 cos(kx) and Dirichlet
solution -2i sin(kx); the cosine transform of e^{-x}; the free Gaussian
propagator by the method of images (oracles.py).  The finite-difference
model in oracles.py is cross-checked against an independently assembled dense
matrix and against the transcendental bound-state oracle for a square well.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import (
    KXGrid,
    UniformSpline,
    _cis,
    fourier_sum,
    simpson_weights,
    trapezoid_weights,
)
from scatterkit.jost import NearField, bound_states, jost_matrix, solve_faddeev
from scatterkit.potentials import box_potential, zero_potential
from scatterkit.scattering import smatrix
from scatterkit import grids, spectral
from scatterkit.spectral import (
    SpectralError,
    WindowOverflow,
    _as_field,
    _build_stage,
    _DenseStage,
    _stage_for,
    _TableStage,
    _wall_weights,
    boundary_residual,
    evolve_spectral,
    f0_transform,
    field_norm,
    fourier_maps,
    fourier_maps_adjoint,
    interacting_after_free,
    physical_solution,
)


def _free_table(bc: BoundaryPair, grid: KXGrid):
    jt = jost_matrix(solve_faddeev(zero_potential(bc.n), grid), bc)
    return physical_solution(jt, smatrix(jt))


def _dense_stage_for(pt, Y, phi, t, xmax_out=0.0):
    """The stage :func:`~scatterkit.spectral._stage_for` builds for a span
    past the table period, whatever the span: the dense stage of the same
    band edge and span, through the module's ``_build_stage``."""
    k_band, reach = spectral._band_and_reach(pt, Y, phi, t)
    return spectral._build_stage(pt, k_band, max(reach, xmax_out))


def _period(pt) -> float:
    """The period ``2 pi / dk`` of the fields the table grid synthesizes."""
    return 2.0 * np.pi / pt.grid.dk


@pytest.fixture(scope="module")
def golden_physical(golden_scatter):
    jt, table = golden_scatter
    return physical_solution(jt, table)


@pytest.fixture(scope="module")
def small_grid():
    return KXGrid.build(kmax=8.0, nk=128, dx=1 / 16, xmax=8.0)


@pytest.fixture(scope="module")
def wide_grid():
    return KXGrid.build(kmax=8.0, nk=256, dx=1 / 16, xmax=100.0)


def test_free_neumann_solution_is_cosine(small_grid):
    pt = _free_table(BoundaryPair.neumann(1), small_grid)
    expected = 2.0 * np.cos(np.outer(pt.k, pt.xv))
    assert np.abs(oracles.near_field_psi(pt)[:, :, 0, 0] - expected).max() < 1e-12
    assert boundary_residual(pt) < 1e-12


def test_free_dirichlet_solution_is_sine(small_grid):
    pt = _free_table(BoundaryPair.dirichlet(1), small_grid)
    expected = -2j * np.sin(np.outer(pt.k, pt.xv))
    assert np.abs(oracles.near_field_psi(pt)[:, :, 0, 0] - expected).max() < 1e-12
    assert boundary_residual(pt) < 1e-12


def test_golden_far_field_and_boundary_residual(golden_physical):
    pt = golden_physical
    # beyond the support the solution is an exact plane-wave combination
    xe = pt.xv[-1]
    far = np.exp(-1j * pt.k * xe)[:, None, None] * np.eye(1) + (
        np.exp(1j * pt.k * xe)[:, None, None] * pt.S
    )
    assert np.abs(oracles.near_field_psi(pt)[:, -1] - far).max() < 1e-8
    assert boundary_residual(pt) < 1e-6


def test_matrix_mixed_boundary_residual(matrix_tables):
    """n = 2 with a Dirichlet and a Robin channel: the wall values
    ``Psi(k, 0)`` and ``Psi'(k, 0)`` meet the boundary condition to
    round-off, and ``Psi(k, 0)`` is the near-field solution's first node."""
    _, _, pt = matrix_tables
    assert boundary_residual(pt) < 1e-12
    psi = oracles.near_field_psi(pt)
    assert np.abs(pt.psi0 - psi[:, 0]).max() <= 1e-14 * np.abs(psi[:, 0]).max()


def test_mismatched_grids_rejected(golden_scatter, small_grid):
    _, table = golden_scatter
    jt_other = solve_faddeev(zero_potential(1), small_grid)
    with pytest.raises(SpectralError, match="momentum grids"):
        physical_solution(jt_other, table)


def test_stationary_equation_residual_scales(golden_potential, golden_boundary):
    """Interior second-difference residual of the solution is O(dx^2); the
    constant is grid-stable (halving dx divides the residual by about 4)."""

    def residual(dx):
        grid = KXGrid.build(kmax=8.0, nk=64, dx=dx, xmax=4.0)
        jt = jost_matrix(solve_faddeev(golden_potential, grid), golden_boundary)
        pt = physical_solution(jt, smatrix(jt))
        psi = oracles.near_field_psi(pt)
        V = golden_potential.value_at(pt.xv)
        second = (psi[:, 2:] - 2 * psi[:, 1:-1] + psi[:, :-2]) / dx**2
        res = (
            -second
            + np.einsum("xij,axjl->axil", V[1:-1], psi[:, 1:-1])
            - (pt.k**2)[:, None, None, None] * psi[:, 1:-1]
        )
        # the step edge carries an O(1) curvature jump; skip nodes next to it
        keep = np.abs(pt.xv[1:-1] - 1.0) > 1.5 * dx
        node = np.argmin(np.abs(pt.k - 3.6))
        return float(np.abs(res[node][keep]).max()), dx

    coarse, dxc = residual(1 / 64)
    fine, dxf = residual(1 / 128)
    assert coarse < 30.0 * dxc**2
    assert fine < 30.0 * dxf**2
    assert 3.2 < coarse / fine < 4.8


def test_f0_closed_form_exponential(golden_scatter):
    jt, _ = golden_scatter
    grid = jt.grid
    phi = f0_transform(grid, np.exp(-grid.x))
    exact = np.sqrt(2.0 / np.pi) / (1.0 + grid.kpos**2)
    assert np.abs(phi[:, 0] - exact).max() < 5e-7


def test_f0_zero_parseval_involution(golden_scatter):
    jt, _ = golden_scatter
    grid = jt.grid
    assert np.abs(f0_transform(grid, np.zeros(grid.x.size))).max() == 0.0
    bump = np.exp(-((grid.x - 4.0) ** 2) / 2.0)
    phi = f0_transform(grid, bump)
    norm_x = np.sqrt(np.sum(simpson_weights(grid.x) * bump**2))
    norm_k = np.sqrt(grid.dk * np.sum(np.abs(phi) ** 2))
    assert abs(norm_x - norm_k) / norm_x < 1e-6
    # self-inverse on data whose even extension is smooth (centered bump)
    even = np.exp(-(grid.x**2) / 2.0)
    back = oracles.f0_synthesis(grid, f0_transform(grid, even))
    assert np.abs(back[:, 0] - even).max() < 1e-6


def test_free_maps_equal_cosine_transform(wide_grid):
    pt = _free_table(BoundaryPair.neumann(1), wide_grid)
    Y = np.exp(-((wide_grid.x - 6.0) ** 2) / 2.0)
    phi0 = f0_transform(wide_grid, Y)
    for sign in (+1, -1):
        assert np.abs(fourier_maps(pt, Y, sign) - phi0).max() < 1e-6
        assert np.abs(fourier_maps(pt, np.zeros_like(Y), sign)).max() == 0.0


def test_golden_isometry_and_projector(golden_physical):
    pt = golden_physical
    grid = pt.grid
    Y = np.exp(-((grid.x - 4.0) ** 2) / 2.0).astype(complex)
    norm_y = field_norm(Y, grid.wx)
    for sign in (+1, -1):
        phi = fourier_maps(pt, Y, sign)
        norm_phi = float(np.sqrt(grid.dk * np.sum(np.abs(phi) ** 2)))
        assert abs(norm_phi - norm_y) / norm_y < 2e-3
        back = fourier_maps_adjoint(pt, phi, sign)
        assert np.abs(back[:, 0] - Y).max() < 2e-3  # no bound states: P_ac = 1


@pytest.mark.parametrize("table", ["golden_physical", "matrix_physical"])
def test_duality_is_exact(table, request):
    """On the table grid, the maps are an exact adjoint pair for a field with
    mass on the near field: <F Y, Z>_dk = <Y, F^dagger Z>_wx."""
    pt = request.getfixturevalue(table)
    grid = pt.grid
    rng = np.random.default_rng(7)
    Y = _packet(grid.x, pt.n) + 0.1 * rng.normal(size=(grid.x.size, pt.n))
    assert np.abs(Y[: pt.xv.size]).max() > 0.1
    Z = rng.normal(size=(grid.npos, pt.n)) + 1j * rng.normal(size=(grid.npos, pt.n))
    Z *= np.exp(-0.02 * grid.kpos[:, None] ** 2)
    for sign in (+1, -1):
        FY = fourier_maps(pt, Y, sign)
        lhs = np.sum(grid.dk * np.conj(FY) * Z)
        rhs = np.sum(grid.wx[:, None] * np.conj(Y) * fourier_maps_adjoint(pt, Z, sign))
        norm_fy = np.sqrt(grid.dk * np.sum(np.abs(FY) ** 2))
        norm_z = np.sqrt(grid.dk * np.sum(np.abs(Z) ** 2))
        assert abs(lhs - rhs) < 1e-12 * norm_fy * norm_z
    assert np.abs(fourier_maps_adjoint(pt, np.zeros_like(Z), +1)).max() == 0.0


def test_table_near_field_matrix_is_built_once(golden_scatter, monkeypatch):
    """The table-grid maps of either sign read the Jost table's own cell
    factors as their near field: no map forms a phase."""
    jt, table = golden_scatter
    pt = physical_solution(jt, table)
    assert pt.near is jt.near
    assert all(spectral._table_kernel(pt, sign).near is jt.near for sign in (+1, -1))
    calls = []
    phases = spectral._phases

    def counted(q, x):
        calls.append(q.shape)
        return phases(q, x)

    monkeypatch.setattr(spectral, "_phases", counted)
    Y = _packet(pt.grid.x, pt.n)
    for sign in (+1, -1):
        fourier_maps_adjoint(pt, fourier_maps(pt, Y, sign), sign)
    assert calls == []


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical"])
def test_near_matrix_matches_the_one_built_from_m(table, request):
    """The table grid's near-field products on the cell factors equal those
    with the matrix built from ``m`` (of the oracle's own conversion) by a
    transposing copy and two phase passes, plus the plane waves that matrix
    leaves out, on the nodes before ``xv[-1]``, to 1e-13."""
    pt = request.getfixturevalue(table)
    potential = request.getfixturevalue(
        "golden_potential" if table.startswith("golden") else "matrix_potential"
    )
    nk, n, npos, nxv = pt.k.size, pt.n, pt.grid.npos, pt.xv.size
    G = oracles.near_matrix_from_m(pt.k, pt.xv, oracles.faddeev_m(potential, pt.k, pt.xv)[0])
    G = G.reshape(nxv, n, nk, n)[:-1]
    for a in range(n):  # f itself: the whole solution before the plane sums start
        G[:, a, :, a] += np.exp(1j * np.outer(pt.xv[:-1], pt.k))
    G = G.reshape((nxv - 1) * n, nk * n)
    near = pt.near
    rng = np.random.default_rng(2)
    Y = rng.normal(size=(nxv, n)) + 1j * rng.normal(size=(nxv, n))
    sums = near.sums(near.weighted(Y))
    reference = (near.weighted(Y).ravel() @ G).reshape(nk, n)
    assert np.abs(sums - reference).max() <= 1e-13 * np.abs(reference).max()
    Z = rng.normal(size=(2, npos, n)) + 1j * rng.normal(size=(2, npos, n))
    Zm = rng.normal(size=(2, npos, n)) + 1j * rng.normal(size=(2, npos, n))
    reference = (G @ np.concatenate([Zm[:, ::-1], Z], axis=1).reshape(2, -1).T).T.reshape(2, nxv - 1, n)
    got = near.synthesis(Z, Zm)
    assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


def test_vanishing_near_field_is_skipped_without_changing_a_bit(small_grid, monkeypatch):
    """For a zero potential ``m = I`` on the near field, so both grids' map
    kernels carry no near field; forcing its sums, all zero, back in must
    leave the maps and the evolutions bitwise unchanged."""
    pt = _free_table(BoundaryPair.robin(0.7), small_grid)
    Y = np.exp(-((small_grid.x - 3.0) ** 2))
    stage = _stage_for(pt, _as_field(Y), fourier_maps(pt, Y), 1.0)
    assert isinstance(stage, _DenseStage)
    assert isinstance(_stage_for(pt, _as_field(Y), fourier_maps(pt, Y), 0.05), _TableStage)
    assert spectral._table_kernel(pt, +1).near is None and stage.kernel(+1).near is None

    def run(pt):
        phi = fourier_maps(pt, Y, -1)
        evolved = [evolve_spectral(pt, Y, times) for times in ([0.5, 1.0], [0.02, 0.05])]
        return [phi, fourier_maps_adjoint(pt, phi, -1), *evolved]

    skipped = run(pt)
    monkeypatch.setattr(NearField, "vanishes", False)
    forced = dataclasses.replace(pt)  # a table with nothing cached
    assert dataclasses.replace(stage, pt=forced).kernel(+1).near is not None
    for a, b in zip(skipped, run(forced)):
        np.testing.assert_array_equal(a, b)


def test_free_evolution_matches_image_propagator(wide_grid):
    pt = _free_table(BoundaryPair.neumann(1), wide_grid)
    x = wide_grid.x
    Y = np.exp(-((x - 6.0) ** 2) / 2.0)
    for t in (0.5, 2.0):
        out = evolve_spectral(pt, Y, t)
        exact = oracles.free_neumann_evolution(x, t, x0=6.0, sigma=1.0)
        assert np.abs(out[:, 0] - exact).max() < 2e-3


def test_evolution_at_zero_time_projects(golden_physical):
    """At ``t = 0`` on the table's window the table grid evolves, and the
    evolution of one time is the projector ``F^dagger F`` bit for bit; the
    rows of several, synthesized as one stack, equal it to roundoff."""
    pt = golden_physical
    Y = np.exp(-((pt.grid.x - 4.0) ** 2) / 2.0).astype(complex)
    assert isinstance(_stage_for(pt, _as_field(Y), fourier_maps(pt, Y), 0.0), _TableStage)
    out = evolve_spectral(pt, Y, 0.0)
    ref = fourier_maps_adjoint(pt, fourier_maps(pt, Y, +1), +1)
    np.testing.assert_array_equal(out, ref)
    rows = evolve_spectral(pt, Y, [0.0, 0.0])
    assert np.abs(rows - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(out[:, 0] - Y).max() < 2e-3


def test_norm_conservation(wide_grid, golden_physical):
    x = wide_grid.x
    pt_free = _free_table(BoundaryPair.neumann(1), wide_grid)
    Y = np.exp(-((x - 6.0) ** 2) / 2.0)
    norms = []
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        out = evolve_spectral(pt_free, Y, t, xmax_out=90.0)
        xo = np.arange(out.shape[0]) * wide_grid.dx
        norms.append(field_norm(out, trapezoid_weights(xo)))
    norms = np.asarray(norms)
    assert (norms.max() - norms.min()) / norms[0] < 1e-6
    # interacting case: the drift is the trapezoid rule's end term at the
    # wall, (dx^2 / 12) (|psi|^2)'(0), in the norm taken here
    pt = golden_physical
    Yg = np.exp(-((pt.grid.x - 4.0) ** 2) / 2.0).astype(complex)
    gn = []
    for t in (0.5, 2.0):
        out = evolve_spectral(pt, Yg, t, xmax_out=80.0)
        xo = np.arange(out.shape[0]) * pt.grid.dx
        gn.append(field_norm(out, trapezoid_weights(xo)))
    base = field_norm(Yg, pt.grid.wx)
    assert np.abs(np.asarray(gn) - base).max() / base < 5e-6


def test_spectral_matches_discrete_exponential(wide_grid):
    pt = _free_table(BoundaryPair.neumann(1), wide_grid)
    dh = oracles.discrete_hamiltonian(zero_potential(1), BoundaryPair.neumann(1), wide_grid.x)
    Y = np.exp(-(wide_grid.x**2) / (2.0 * 6.0**2))
    for t in (10.0, 50.0):
        a = evolve_spectral(pt, Y, t)
        b = oracles.evolve_discrete(dh, Y[:, None], t)
        assert np.abs(a - b).max() < 2e-3


def test_discrete_hamiltonian_hermitian_against_dense(matrix_potential):
    bc = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    xg = np.arange(0.0, 6.0, 1 / 16)
    dh = oracles.discrete_hamiltonian(matrix_potential, bc, xg)
    N = dh.size
    banded = np.zeros((N, N), dtype=complex)
    for u in range(dh.band.shape[0]):
        for i in range(N - u):
            banded[i + u, i] = dh.band[u, i]
            if u:
                banded[i, i + u] = np.conj(dh.band[u, i])
    # rebuild the lopsided ghost-point stencil densely, then symmetrize it
    from scatterkit.boundary import diagonalize_boundary

    form = diagonalize_boundary(bc)
    dx = 1 / 16
    vrot = np.einsum(
        "ij,xjl,lm->xim", form.M.conj().T, matrix_potential.value_at(xg), form.M
    )
    dense = np.zeros((N, N), dtype=complex)
    for j in range(xg.size - 1):
        for c in range(2):
            i = dh.index[j, c]
            if i < 0:
                continue
            robin = 2 / dx**2 * (1 - dx / np.tan(form.thetas[c]))
            dense[i, i] = (robin if j == 0 else 2 / dx**2) + vrot[j, c, c]
            for c2 in range(2):
                if c2 != c and dh.index[j, c2] >= 0:
                    dense[dh.index[j, c2], i] = vrot[j, c2, c]
            for j2 in (j - 1, j + 1):
                if 0 <= j2 < xg.size - 1 and dh.index[j2, c] >= 0:
                    hop = 2.0 if (j == 0 and j2 == 1) else 1.0
                    dense[i, dh.index[j2, c]] += -hop / dx**2
    sym = np.diag(dh.boundary_scale) @ dense @ np.diag(1.0 / dh.boundary_scale)
    assert np.abs(sym - banded).max() < 1e-10
    assert np.abs(sym - sym.conj().T).max() < 1e-10


def test_free_neumann_discrete_spectrum_bounds(wide_grid):
    dh = oracles.discrete_hamiltonian(zero_potential(1), BoundaryPair.neumann(1), wide_grid.x)
    w, _ = dh.eigenpairs
    assert w.min() > 0.0
    assert w.max() < 4.0 / wide_grid.dx**2
    assert oracles.discrete_bound_states(dh).size == 0


def test_free_dirichlet_discrete_no_negatives(small_grid):
    dh = oracles.discrete_hamiltonian(zero_potential(1), BoundaryPair.dirichlet(1), small_grid.x)
    assert oracles.discrete_bound_states(dh).size == 0
    assert dh.index[0, 0] == -1  # boundary node eliminated


def test_well_bound_state_count_matches_oracle():
    xg = np.arange(0.0, 30.0, 1 / 64)
    dh = oracles.discrete_hamiltonian(box_potential(-5.0, 0.0, 1.0), BoundaryPair.neumann(1), xg)
    found = np.sort(oracles.discrete_bound_states(dh))
    exact = np.sort(oracles.box_well_bound_states(depth=5.0, width=1.0))
    assert found.size == exact.size
    assert np.abs(found - exact).max() < 2e-2  # first-order error at the step edge


def test_golden_discrete_spectrum_nonnegative(golden_potential, golden_boundary):
    xg = np.arange(0.0, 30.0, 1 / 64)
    dh = oracles.discrete_hamiltonian(golden_potential, golden_boundary, xg)
    w, _ = dh.eigenpairs
    assert w.min() > -1e-8
    assert oracles.discrete_bound_states(dh).size == 0


def test_bound_state_projection(wide_grid):
    pot = box_potential(-5.0, 0.0, 1.0)
    bc = BoundaryPair.neumann(1)
    jt = jost_matrix(solve_faddeev(pot, wide_grid), bc)
    pt = physical_solution(jt, smatrix(jt))  # plateau not needed here
    dh = oracles.discrete_hamiltonian(pot, bc, wide_grid.x)
    Y = np.exp(-((wide_grid.x - 3.0) ** 2) / 1.5)
    assert bound_states(pot, bc).size == 1
    out = evolve_spectral(pt, Y, 0.0, xmax_out=50.0)
    # the projection strips the bound component: overlap with the
    # finite-difference ground state collapses and some mass is lost
    w, v = dh.eigenpairs
    ground = np.zeros(wide_grid.x.size, dtype=complex)
    mask = dh.index[:, 0] >= 0
    ground[mask] = (v[:, np.argmin(w)] / dh.boundary_scale)[dh.index[mask, 0]]
    ground /= field_norm(ground, wide_grid.wx)
    before = abs(np.sum(wide_grid.wx * np.conj(ground) * Y))
    nout = out.shape[0]
    wxo = trapezoid_weights(np.arange(nout) * wide_grid.dx)
    after = abs(np.sum(wxo * np.conj(ground[:nout]) * out[:, 0]))
    assert after < 0.05 * before
    assert field_norm(out, wxo) < field_norm(Y, wide_grid.wx)


def test_window_overflow_monitor(wide_grid):
    pt = _free_table(BoundaryPair.neumann(1), wide_grid)
    Y = np.exp(-((wide_grid.x - 3.0) ** 2) / 1.5)[:, None]
    stage = _build_stage(pt, 3.0, 12.0)  # far too small for t = 60
    kernel = stage.kernel(+1)
    Ys = Y[:: stage.ratio]
    w = _wall_weights(Ys.shape[0], stage.dxb)
    phi = kernel.analysis(Ys, 0.0, stage.dxb, w, Y[: pt.xv.size])
    shifted = (np.exp(-1j * 60.0 * stage.kq**2) * stage.wk)[:, None] * phi
    with pytest.raises(WindowOverflow, match="outer tenth"):
        stage.check_overflow(kernel, shifted)


def test_evolution_output_window_may_end_inside_the_near_field(golden_physical):
    """``xmax_out`` below the near field's end gives the first nodes of the
    full output (to the rounding of plane-wave sums of another length); a
    negative one is refused by name."""
    pt = golden_physical
    Y = _packet(pt.grid.x, pt.n)
    assert 0.5 < pt.xv[-1]
    nx_out = int(np.ceil(0.5 / pt.grid.dx)) + 1
    full = evolve_spectral(pt, Y, [0.5, 1.0])
    short = evolve_spectral(pt, Y, [0.5, 1.0], xmax_out=0.5)
    assert short.shape == (2, nx_out, pt.n)
    scale = np.abs(full).max()
    assert np.abs(short - full[:, :nx_out]).max() <= 1e-13 * scale
    single = evolve_spectral(pt, Y, 1.0, xmax_out=0.5)
    assert np.abs(single - full[1, :nx_out]).max() <= 1e-13 * scale
    with pytest.raises(SpectralError, match="xmax_out"):
        evolve_spectral(pt, Y, 1.0, xmax_out=-1.0)


def test_evolve_spectral_checks_every_time_for_overflow(wide_grid, monkeypatch):
    """The monitor runs inside ``evolve_spectral`` on every time before any
    output: t = 1 fits the stage, t = 60 does not."""
    pt = _free_table(BoundaryPair.neumann(1), wide_grid)
    Y = np.exp(-((wide_grid.x - 3.0) ** 2) / 1.5)
    stage = _build_stage(pt, 3.0, 12.0)  # far too small for t = 60
    monkeypatch.setattr(spectral, "_stage_for", lambda *args: stage)
    evolve_spectral(pt, Y, 1.0)
    with pytest.raises(WindowOverflow, match="outer tenth"):
        evolve_spectral(pt, Y, [1.0, 60.0])


def test_table_path_needs_the_period_to_hold_every_window(golden_physical, wide_grid, monkeypatch):
    """The table grid evolves only when its period holds the wrap bound of
    the field's reach, of the output window and of the table's window.  A
    field whose reach fits is sent to the dense stage by an output window
    past ``period / 2.2`` on the golden table, and by the table's own
    window on ``wide_grid`` (window 100, period 100.5), where synthesis on
    the table grid would park the mirror copy inside the window."""
    built = []
    build = spectral._build_stage

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(spectral, "_build_stage", counted)
    golden, free = golden_physical, _free_table(BoundaryPair.neumann(1), wide_grid)
    Yg = _packet(golden.grid.x, golden.n)
    Yf = np.exp(-((wide_grid.x - 6.0) ** 2) / 2.0)[:, None]
    bound = _period(golden) / 2.2
    assert golden.grid.xmax < bound and wide_grid.xmax > _period(free) / 2.2
    for pt, Y, t, xmax_out, dense in (
        (golden, Yg, 0.1, None, False),
        (golden, Yg, 0.1, 0.999 * bound, False),
        (golden, Yg, 0.1, 1.001 * bound, True),
        (free, Yf, 0.5, None, True),
        (free, Yf, 0.0, None, True),
    ):
        phi = fourier_maps(pt, Y)
        stage = _stage_for(pt, Y, phi, t, xmax_out or 0.0)
        assert isinstance(stage, _DenseStage if dense else _TableStage)
        assert spectral._band_and_reach(pt, Y, phi, t)[1] < 0.4 * _period(pt)  # the reach alone fits
        built.clear()
        evolve_spectral(pt, Y, t, xmax_out=xmax_out)
        assert len(built) == (1 if dense else 0)
    # the mirror copy stays out of the window: the closed form holds on all of it
    out = evolve_spectral(free, Yf, 0.5)
    exact = oracles.free_neumann_evolution(wide_grid.x, 0.5, x0=6.0, sigma=1.0)
    assert np.abs(out[:, 0] - exact).max() < 2e-3


def test_table_circle_overflow_monitor(golden_physical, monkeypatch):
    """The table grid's circle, one period of its fields, trips the same
    outer-tenth monitor: a packet evolved to ``t = 60`` wraps round it, one
    at ``t = 1`` does not; inside ``evolve_spectral`` it checks every time
    before any output."""
    pt = golden_physical
    Y = _packet(pt.grid.x, pt.n)
    phi = fourier_maps(pt, Y)
    stage = _TableStage(pt, phi)
    kernel = stage.kernel(+1)
    for t, wraps in ((1.0, False), (60.0, True)):
        Zw = (np.exp(-1j * t * stage.kq**2) * stage.wk)[:, None] * phi
        if wraps:
            with pytest.raises(WindowOverflow, match="outer tenth of the 80-wide"):
                stage.check_overflow(kernel, Zw)
        else:
            stage.check_overflow(kernel, Zw)
    monkeypatch.setattr(spectral, "_stage_for", lambda *args: stage)
    evolve_spectral(pt, Y, 1.0)
    with pytest.raises(WindowOverflow, match="outer tenth"):
        evolve_spectral(pt, Y, [1.0, 60.0])


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical"])
def test_table_circle_field_is_the_plane_wave_sum(table, request):
    """The table circle's field, one FFT of ``2 npos`` points, is the plane
    part of the table grid's synthesis at the nodes ``l pi / kmax`` of one
    period, times the unimodular ``e^{i pi l / M}``, for one field and a
    stack, both signs."""
    pt = request.getfixturevalue(table)
    stage, M = _TableStage(pt, fourier_maps(pt, _packet(pt.grid.x, pt.n))), 2 * pt.grid.npos
    x = np.arange(M) * (_period(pt) / M)
    phase = np.exp(-1j * np.pi * np.arange(M) / M)[:, None]
    rng = np.random.default_rng(12)
    for shape in ((pt.grid.npos, pt.n), (3, pt.grid.npos, pt.n)):
        Zw = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(-0.01 * stage.kq**2)[:, None]
        for sign in (+1, -1):
            kernel = stage.kernel(sign)
            reference = dataclasses.replace(kernel, near=None).synthesis(Zw, x) * np.sqrt(2.0 * np.pi)
            got = phase * stage._circle_field(kernel, Zw)
            assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


#: largest gap between the table grid's evolution and the dense stage's, of
#: the peak, over t = 0.5, 1, 2 and both signs: 1.6e-7 (golden) and 1.0e-5
#: (the 2x2 benchmark grid, sign -1; 2.8e-7 at sign +1), the dense stage's
#: reading of S and the near sums between the table's nodes
CROSS_PATH_TOL = {"golden_physical": 2.5e-7, "matrix2x2_physical": 1.5e-5}


@pytest.mark.parametrize("table", list(CROSS_PATH_TOL))
def test_table_and_dense_evolutions_agree(table, request, monkeypatch):
    """Where the table period holds the span, the table grid's evolution
    and the dense stage's agree to ``CROSS_PATH_TOL`` of the peak at the
    same time, and an evolution to ``t (1 + 1e-3)`` misses by at least ten
    times that."""
    pt = request.getfixturevalue(table)
    Y = _packet(pt.grid.x, pt.n)
    tol = CROSS_PATH_TOL[table]
    for t in (0.5, 1.0, 2.0):
        for sign in (+1, -1):
            assert isinstance(_stage_for(pt, Y, fourier_maps(pt, Y, sign), t, 32.0), _TableStage)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_stage_for", _dense_stage_for)
                dense = evolve_spectral(pt, Y, t, sign, xmax_out=32.0)
            out, later = evolve_spectral(pt, Y, [t, t * (1 + 1e-3)], sign, xmax_out=32.0)
            peak = np.abs(dense).max()
            assert np.abs(out - dense).max() <= tol * peak
            assert np.abs(later - dense).max() >= 10 * tol * peak


@pytest.fixture(scope="module")
def free_wide_physical():
    """The physical-solution table of the benchmark's ``free_neumann_wide``
    workload: the zero potential under Neumann on the default grid."""
    return _free_table(BoundaryPair.neumann(1), KXGrid.build())


def test_free_wide_evolution_matches_closed_form(free_wide_physical):
    """The benchmark's ``free_neumann_wide`` evolution, a real packet at
    ``t = 1`` out to twice the window, takes the table grid and meets the
    image propagator to 1e-12 (about 4e-16 is read)."""
    pt = free_wide_physical
    x = pt.grid.x
    Y = np.exp(-((x - 16.0) ** 2) / (2.0 * 0.55**2))
    xmax_out = 2.0 * pt.grid.xmax
    assert isinstance(_stage_for(pt, _as_field(Y), fourier_maps(pt, Y), 1.0, xmax_out), _TableStage)
    out = evolve_spectral(pt, Y, 1.0, xmax_out=xmax_out)
    xo = np.arange(out.shape[0]) * pt.grid.dx
    assert xo[-1] >= xmax_out
    exact = oracles.free_neumann_evolution(xo, 1.0, x0=16.0, sigma=0.55)
    assert np.abs(out[:, 0] - exact).max() <= 1e-12


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical", "free_wide_physical"])
def test_circle_field_is_the_two_transform_field(table, request):
    """The overflow monitor's field on the whole FFT circle, one FFT of the
    ``e^{-ikx}`` coefficients plus the ``e^{ikx}`` ones index-reversed,
    equals the inverse-plus-forward pair of transforms, for one field and a
    stack, on a mid-band stage and on the widest band."""
    pt = request.getfixturevalue(table)
    rng = np.random.default_rng(3)
    for k_band in (6.0, pt.grid.kmax):
        stage = _build_stage(pt, k_band, 30.0)
        L = stage.kq.size
        for shape in ((L, pt.n), (3, L, pt.n)):
            Zw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for sign in (+1, -1):
                kernel = stage.kernel(sign)
                SZ = np.einsum("kij,...kj->...ki", kernel.S, Zw)
                plus, minus = (Zw, SZ) if sign == +1 else (SZ, Zw)
                reference = oracles.circle_field_two_transforms(stage.nfft, plus, minus)
                got = stage._circle_field(kernel, Zw)
                assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()


def test_circle_field_at_the_coarsest_grid():
    """At ``dx = pi / (4 kmax)`` the widest band still leaves the reversed
    coefficients clear of the others, ``2L - 1 <= nfft``."""
    grid = KXGrid.build(kmax=10.0, nk=64, dx=np.pi / 40.0, xmax=8.0)
    pt = _free_table(BoundaryPair.robin(0.3), grid)
    rng = np.random.default_rng(4)
    for span in (1.0, 30.0):
        stage = _build_stage(pt, grid.kmax, span)
        L = stage.kq.size
        assert stage.ratio == 1 and 2 * L - 1 <= stage.nfft and L <= stage.nfft / 8 + 2
        Zw = rng.normal(size=(L, 1)) + 1j * rng.normal(size=(L, 1))
        kernel = stage.kernel(+1)
        SZ = np.einsum("kij,kj->ki", kernel.S, Zw)
        reference = oracles.circle_field_two_transforms(stage.nfft, Zw, SZ)
        got = stage._circle_field(kernel, Zw)
        assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()


def _two_sum_analysis(kernel, Y, x0, dx, w):
    """The plane part of a map kernel's analysis as two signed sums."""
    Yw = Y * w[:, None]
    k, s = kernel.k, kernel.sign
    out = fourier_sum(Yw, x0, dx, k, -s)
    out += np.einsum("kji,kj->ki", kernel.S.conj(), fourier_sum(Yw, x0, dx, k, s))
    return out / np.sqrt(2.0 * np.pi)


def _two_sum_synthesis(kernel, Zw, x):
    """The plane part of a map kernel's synthesis as two signed sums."""
    SZ = np.einsum("kij,kj->ki", kernel.S, Zw)
    k, dk, s = kernel.k, kernel.dk, kernel.sign
    out = fourier_sum(Zw, k[0], dk, x, s) + fourier_sum(SZ, k[0], dk, x, -s)
    return out / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical"])
def test_one_mirrored_sum_is_the_two_signed_sums(table, request):
    """Each plane-wave pair, one :func:`fourier_sum` over the mirrored
    momenta, equals the sums at ``+k`` and ``-k`` to 1e-14: on the
    half-offset table grid and on a dense grid through ``k = 0`` (``n = 2``
    on the 2x2 table)."""
    pt = request.getfixturevalue(table)
    grid = pt.grid
    rng = np.random.default_rng(8)
    Y = _packet(grid.x, pt.n) + 0.1 * rng.normal(size=(grid.x.size, pt.n))
    stage = _build_stage(pt, 6.0, 30.0)
    assert stage.kq[0] == 0.0
    Ys = Y[:: stage.ratio]
    for sign in (+1, -1):
        for kernel, dx, Yk, w in (
            (spectral._table_kernel(pt, sign), grid.dx, Y, grid.wx),
            (stage.kernel(sign), stage.dxb, Ys, _wall_weights(Ys.shape[0], stage.dxb)),
        ):
            plane = dataclasses.replace(kernel, near=None)
            reference = _two_sum_analysis(plane, Yk, 0.0, dx, w)
            got = plane.analysis(Yk, 0.0, dx, w, Y[: pt.xv.size])
            assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()
            Zw = reference * np.exp(-0.02 * plane.k**2)[:, None]
            reference = _two_sum_synthesis(plane, Zw, grid.x)
            got = plane.synthesis(Zw, grid.x)
            assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()


def test_cosine_transform_at_unsorted_momenta(golden_physical):
    """``f0_transform`` at a caller's unsorted, non-uniform momenta, with
    and without a first node at ``k = 0``, is the cosine sum taken term by
    term."""
    grid = golden_physical.grid
    rng = np.random.default_rng(9)
    Y = _packet(grid.x, 1)
    Yw = Y * simpson_weights(grid.x)[:, None]
    for k in (rng.uniform(0.0, 30.0, 40), np.concatenate([[0.0], rng.uniform(0.0, 30.0, 40)])):
        cosine = 0.5 * sum(oracles.direct_fourier_sum(Yw, 0.0, grid.dx, k, s) for s in (+1, -1))
        reference = np.sqrt(2.0 / np.pi) * cosine
        got = f0_transform(grid, Y, k)
        assert np.abs(got - reference).max() <= 1e-14 * np.abs(reference).max()


def test_each_plane_wave_pair_is_one_fourier_sum(golden_physical, small_grid, monkeypatch):
    """The maps and the cosine transform make one plane sum per ``+-k``
    pair.  So does the evolution on the table grid, which synthesizes from
    its own analysis: two in all.  Past the table period it makes one per
    pair on each grid (the table grid's analysis, the dense grid's analysis
    and synthesis), plus off the table grid the near-field sums with their
    plane part taken out, one each way."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fourier_sum(*args, **kwargs)

    monkeypatch.setattr(spectral, "fourier_sum", counted)
    free = _free_table(BoundaryPair.neumann(1), small_grid)
    for pt, dense in ((golden_physical, 5), (free, 3)):
        Y = _packet(pt.grid.x, pt.n)
        phi = fourier_maps(pt, Y)
        wide = 0.5 * _period(pt)  # past the table period's wrap bound
        assert isinstance(_stage_for(pt, Y, phi, 0.1), _TableStage)
        assert isinstance(_stage_for(pt, Y, phi, 1.0, wide), _DenseStage)
        for count, run in (
            (1, lambda: fourier_maps(pt, Y, -1)),
            (1, lambda: fourier_maps_adjoint(pt, phi, +1)),
            (1, lambda: f0_transform(pt.grid, Y)),
            (2, lambda: evolve_spectral(pt, Y, 0.1, -1)),
            (dense, lambda: evolve_spectral(pt, Y, 1.0, -1, xmax_out=wide)),
        ):
            calls.clear()
            run()
            assert len(calls) == count


@pytest.fixture(scope="module")
def matrix_physical(matrix_potential):
    grid = KXGrid.build(kmax=8.0, nk=128, dx=1 / 16, xmax=16.0)
    bc = BoundaryPair.robin(np.array([np.pi, 0.9]), n=2)
    jt = jost_matrix(solve_faddeev(matrix_potential, grid), bc)
    return physical_solution(jt, smatrix(jt))


@pytest.fixture(scope="module")
def matrix2x2_physical(matrix_tables):
    """The physical-solution table on the benchmark's ``matrix2x2`` grid."""
    return matrix_tables[2]


def _packet(x: np.ndarray, n: int) -> np.ndarray:
    """A Gaussian packet zero at the wall to roundoff, spread over ``n`` channels."""
    mix = np.array([1.0, 0.5j, -0.3])[:n]
    return np.exp(-((x - 6.0) ** 2) / 2.0 + 1.5j * x)[:, None] * mix


def test_long_output_window_holds_no_copies_of_the_field(golden_physical):
    """The dense circle holds the output window, not only the field: at
    ``t = 1`` the packet stays within 60 of the wall, so the rest of a
    1875-long output window, longer than a circle sized from the field
    alone, shows neither its mirror copy nor its next period; the dense
    stage of a 75-long window, past the table period's wrap bound, agrees
    on it.  So does the table grid on the longest window its period holds:
    nothing past 60."""
    pt = golden_physical
    Y = _packet(pt.grid.x, pt.n)
    phi = fourier_maps(pt, Y)
    out = evolve_spectral(pt, Y, 1.0, xmax_out=1875.0)
    xo = np.arange(out.shape[0]) * pt.grid.dx
    assert xo[-1] >= 1875.0
    mass = np.sum(np.abs(out) ** 2, axis=1)
    assert mass[xo > 60.0].sum() <= 1e-12 * mass.sum()
    assert isinstance(_stage_for(pt, Y, phi, 1.0, 75.0), _DenseStage)
    near = evolve_spectral(pt, Y, 1.0, xmax_out=75.0)
    assert np.abs(out[: near.shape[0]] - near).max() <= 1e-7 * np.abs(near).max()
    longest = _period(pt) / 2.2
    assert isinstance(_stage_for(pt, Y, phi, 1.0, longest), _TableStage)
    table = evolve_spectral(pt, Y, 1.0, xmax_out=longest)
    mass = np.sum(np.abs(table) ** 2, axis=1)
    assert mass[xo[: mass.size] > 60.0].sum() <= 1e-12 * mass.sum()


def _window(t: float) -> float:
    """Output window of the convergence checks: it holds the packet at ``t``."""
    return 16.0 + 20.0 * t


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical"])
def test_evolution_converges_in_the_dense_momentum_step(table, request, monkeypatch):
    """The dense step is ``DENSE_PER_TABLE_STEP`` to a table step until the
    wrap bound binds (the same at ``t = 1`` and ``t = 4``, finer at ``t =
    20``), and four times the dense momenta, per table step and over the
    span, move the evolution by under 1e-7 of its peak at each time."""
    pt = request.getfixturevalue(table)
    Y = _packet(pt.grid.x, pt.n)
    phi = fourier_maps(pt, Y, +1)
    times = (1.0, 4.0, 20.0)
    steps = [_dense_stage_for(pt, Y, phi, t, _window(t)).dkq for t in times]
    assert steps[0] == steps[1] <= pt.grid.dk / spectral.DENSE_PER_TABLE_STEP
    assert steps[2] < steps[1]
    # the dense stage at every time, as past the table period
    monkeypatch.setattr(spectral, "_stage_for", _dense_stage_for)
    coarse = [evolve_spectral(pt, Y, t, xmax_out=_window(t)) for t in times]
    build = spectral._build_stage
    monkeypatch.setattr(spectral, "DENSE_PER_TABLE_STEP", 4 * spectral.DENSE_PER_TABLE_STEP)
    monkeypatch.setattr(spectral, "_build_stage", lambda pt, k_band, span: build(pt, k_band, 4.0 * span))
    for t, out in zip(times, coarse):
        fine = evolve_spectral(pt, Y, t, xmax_out=_window(t))
        assert np.abs(out - fine).max() <= 1e-7 * np.abs(fine).max()


def test_kernel_blocks_do_not_change_results(matrix2x2_physical, monkeypatch):
    """The dense stage splines the near-field sums on the table knots within
    ``SWEEP_BLOCK`` pieces of its momenta; a spline on every knot of the
    table grid must give the same sums, to roundoff, and evolutions."""
    pt = matrix2x2_physical
    Y = _packet(pt.grid.x, pt.n)
    stage = _dense_stage_for(pt, Y, fourier_maps(pt, Y, +1), 1.0)
    assert stage.kq[-1] + (grids.SWEEP_BLOCK + 1) * pt.grid.dk < pt.grid.kmax / 2
    monkeypatch.setattr(spectral, "_stage_for", _dense_stage_for)
    rng = np.random.default_rng(3)
    Zw = rng.normal(size=(2, stage.kq.size, pt.n)) + 1j * rng.normal(size=(2, stage.kq.size, pt.n))

    def run():
        out = []
        for sign in (+1, -1):
            kernel = dataclasses.replace(stage).kernel(sign)  # a stage with no spline kept
            SZ = np.einsum("kij,tkj->tki", kernel.S, Zw)
            out += [np.concatenate(kernel.near.analysis(Y[: pt.xv.size])), kernel.near.synthesis(Zw, SZ)]
            out.append(evolve_spectral(pt, Y, 1.0, sign))
            out.append(interacting_after_free(pt, Y, 2.0 * sign, sign))
        return out

    window = run()
    monkeypatch.setattr(spectral, "SWEEP_BLOCK", 1 << 40)
    for i, (a, b) in enumerate(zip(window, run())):
        assert np.abs(a - b).max() <= (1e-14 if i % 4 < 2 else 1e-13) * np.abs(a).max()


def test_evolution_passes_over_the_pieces_once(matrix_physical, monkeypatch):
    """One ``evolve_spectral`` call builds its dense stage and the stage's
    near-field spline once, then analyses the field once and synthesises
    all the times once, as the rows of one stack."""
    pt = matrix_physical
    Y = _packet(pt.grid.x, pt.n)
    times = [0.5, -1.0, 2.0]
    stages, splines, calls = [], [], []

    def stage_for(*args):
        stages.append(_dense_stage_for(*args))
        return stages[-1]

    monkeypatch.setattr(spectral, "_stage_for", stage_for)
    on = spectral._NearSpline.on

    def counted(near, grid, kq):
        splines.append(kq)
        return on(near, grid, kq)

    monkeypatch.setattr(spectral._NearSpline, "on", counted)
    for name in ("analysis", "synthesis"):

        def logged(near, *args, run=getattr(spectral._NearSpline, name), name=name):
            calls.append((name, args[0].shape))
            return run(near, *args)

        monkeypatch.setattr(spectral._NearSpline, name, logged)
    evolve_spectral(pt, Y, times)
    assert len(stages) == 1 and len(splines) == 1 and splines[0] is stages[0].kq
    kq = stages[0].kq
    assert calls == [("analysis", (pt.xv.size, pt.n)), ("synthesis", (len(times), kq.size, pt.n))]


def test_table_evolution_analyses_once_and_synthesizes_all_times_once(matrix_physical, monkeypatch):
    """Where the table period holds the span, one ``evolve_spectral`` call
    builds no dense stage and no spline: the table grid's one analysis, the
    one that chose the stage, is the spectrum, and one synthesis takes all
    the times as the rows of one stack."""
    pt = matrix_physical
    Y = _packet(pt.grid.x, pt.n)
    times = [0.05, -0.1, 0.02]
    assert isinstance(_stage_for(pt, Y, fourier_maps(pt, Y), 0.1), _TableStage)
    calls = []
    for name in ("analysis", "synthesis"):

        def logged(kernel, *args, run=getattr(spectral._MapKernel, name), name=name, **kwargs):
            calls.append((name, args[0].shape, kernel.k is pt.grid.kpos))
            return run(kernel, *args, **kwargs)

        monkeypatch.setattr(spectral._MapKernel, name, logged)

    def refused(*args):
        raise AssertionError("a dense stage or spline was built")

    monkeypatch.setattr(spectral, "_build_stage", refused)
    monkeypatch.setattr(spectral._NearSpline, "on", refused)
    out = evolve_spectral(pt, Y, times)
    assert out.shape == (len(times), pt.grid.x.size, pt.n)
    assert calls == [("analysis", Y.shape, True), ("synthesis", (len(times), pt.grid.npos, pt.n), True)]


def test_evolution_forms_the_near_sums_once(matrix_physical, monkeypatch):
    """The table-grid map that sizes the stage and the stage's spline read
    one contraction of the field with the cell factors, and the synthesis
    of all the times one spread: one near-field product each way per call.
    The dense analysis that reads the shared sums equals one that forms its
    own."""
    pt = matrix_physical
    Y = _packet(pt.grid.x, pt.n)
    stage = _dense_stage_for(pt, Y, fourier_maps(pt, Y), 2.0)
    Ynear, Ys = Y[: pt.xv.size], Y[:: stage.ratio]
    kernel, w = stage.kernel(+1), _wall_weights(Ys.shape[0], stage.dxb)
    alone = kernel.analysis(Ys, 0.0, stage.dxb, w, Ynear)
    shared = kernel.analysis(Ys, 0.0, stage.dxb, w, Ynear, pt.near.sums(pt.near.weighted(Ynear)))
    np.testing.assert_array_equal(shared, alone)
    assert isinstance(_stage_for(pt, Y, fourier_maps(pt, Y), 0.1), _TableStage)
    products = []
    for name in ("sums", "spread"):

        def logged(field, *args, run=getattr(NearField, name), name=name):
            products.append(name)
            return run(field, *args)

        monkeypatch.setattr(NearField, name, logged)
    # on the table grid (short times) and past its period (the dense stage)
    evolve_spectral(pt, Y, [0.05, 0.1])
    assert products == ["sums", "spread"]
    products.clear()
    monkeypatch.setattr(spectral, "_stage_for", _dense_stage_for)
    evolve_spectral(pt, Y, [0.5, 2.0])
    assert products == ["sums", "spread"]


def _count_slope_solves(monkeypatch) -> list[int]:
    """Record the column count of every not-a-knot slope solve, forward
    or transposed."""
    solved = []
    solve = grids._slope_solve

    def counted(rhs):
        solved.append(rhs.shape[1])
        return solve(rhs)

    monkeypatch.setattr(grids, "_slope_solve", counted)
    return solved


def test_spline_slopes_are_solved_once_per_table(matrix_physical, monkeypatch):
    """The first evolution on a table solves the knot slopes of ``S`` once
    and keeps them; the near field takes one solve of its contracted sums
    each way, ``n`` columns per field, and never one of ``m``."""
    pt = dataclasses.replace(matrix_physical)  # a table with nothing cached
    solved = _count_slope_solves(monkeypatch)
    monkeypatch.setattr(spectral, "_stage_for", _dense_stage_for)
    evolve_spectral(pt, _packet(pt.grid.x, pt.n), 1.0)
    assert sorted(solved) == sorted([pt.n, pt.n, pt.S[0].size])
    solved.clear()
    for shift in (-1.0, 1.0, 2.0):
        evolve_spectral(pt, _packet(pt.grid.x - shift, pt.n), 1.0)
    assert solved == [pt.n, pt.n] * 3


@pytest.mark.parametrize("table", ["golden_physical", "matrix2x2_physical"])
def test_first_evolution_peak_stays_below_the_near_table(table, request, monkeypatch):
    """The first evolution on a table allocates less at its peak than one
    ``(nk, n, n, nx)`` table of ``f`` or ``m``, which no layer keeps, on
    either stage.  The dense stage solves no slopes of ``m``: it
    interpolates the contracted sums.  The table grid solves none at all."""
    per_momentum = request.getfixturevalue(table).xv.size * request.getfixturevalue(table).n ** 2
    solved = _count_slope_solves(monkeypatch)
    for stage_for in (_stage_for, _dense_stage_for):
        pt = dataclasses.replace(request.getfixturevalue(table))  # nothing cached
        Y = _packet(pt.grid.x, pt.n)
        monkeypatch.setattr(spectral, "_stage_for", stage_for)
        solved.clear()
        tracemalloc.start()
        try:
            evolve_spectral(pt, Y, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * pt.k.size * per_momentum
        if stage_for is _stage_for:
            assert isinstance(_stage_for(pt, Y, fourier_maps(pt, Y), 1.0), _TableStage)
            assert solved == []
        else:
            assert per_momentum not in solved and max(solved) == pt.S[0].size


def test_multi_time_evolution_matches_scalar_calls(matrix_physical, monkeypatch):
    """All times of one call share one pass; on a common stage each equals
    its own scalar-time call."""
    pt = matrix_physical
    Y = _packet(pt.grid.x, pt.n)
    times = (0.5, -1.0, 2.0)
    stage = _stage_for(pt, Y, fourier_maps(pt, Y, +1), max(map(abs, times)))
    monkeypatch.setattr(spectral, "_stage_for", lambda *args: stage)
    for sign in (+1, -1):
        together = evolve_spectral(pt, Y, times, sign)
        for t, out in zip(times, together):
            alone = evolve_spectral(pt, Y, t, sign)
            assert np.abs(out - alone).max() <= 1e-15 * np.abs(alone).max()


@pytest.mark.parametrize("table", ["golden_physical", "matrix_physical"])
def test_tables_spline_matches_scipy_cubic_spline(table, request):
    """``f - e^{ikx} I`` on the near field and ``S`` off the grid: the dense
    stage's momenta, both signs, and points past the end knots, against
    ``scipy``'s not-a-knot spline."""
    from scipy.interpolate import CubicSpline

    pt = request.getfixturevalue(table)
    potential = request.getfixturevalue(
        "golden_potential" if table.startswith("golden") else "matrix_potential"
    )
    kq = _build_stage(pt, 6.0, 30.0).kq
    past = pt.grid.kmax * np.linspace(0.97, 1.05, 9)
    q = np.concatenate([kq, -kq, past, -past])
    assert np.abs(q).max() > pt.k[-1]
    for samples in (oracles.reference_near_field(potential, pt.k, pt.xv)[0], pt.S):
        reference = CubicSpline(pt.k, samples, axis=0)(q)
        got = UniformSpline(pt.k, samples)(q)
        assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("table", ["golden_physical", "matrix_physical"])
def test_dense_kernel_duality(table, request):
    """On the dense momentum grid, analysis and synthesis are an exact
    adjoint pair: <A Y, Z>_wk = <Y, B (wk Z)>_wx."""
    pt = request.getfixturevalue(table)
    grid = pt.grid
    stage = _build_stage(pt, 6.0, 30.0)
    rng = np.random.default_rng(11)
    Y = _packet(grid.x, pt.n) + 0.1 * rng.normal(size=(grid.x.size, pt.n))
    Z = rng.normal(size=(stage.kq.size, pt.n)) + 1j * rng.normal(size=(stage.kq.size, pt.n))
    for sign in (+1, -1):
        kernel = stage.kernel(sign)
        AY = kernel.analysis(Y, 0.0, grid.dx, grid.wx, Y[: pt.xv.size])
        lhs = np.sum(stage.wk[:, None] * np.conj(AY) * Z)
        BZ = kernel.synthesis(stage.wk[:, None] * Z, grid.x)
        rhs = np.sum(grid.wx[:, None] * np.conj(Y) * BZ)
        norm_ay = np.sqrt(np.sum(stage.wk[:, None] * np.abs(AY) ** 2))
        norm_z = np.sqrt(np.sum(stage.wk[:, None] * np.abs(Z) ** 2))
        assert abs(lhs - rhs) < 1e-12 * norm_ay * norm_z


#: largest relative error of the dense stage's near-field sums (analysis,
#: synthesis) against those of the exact ``m``, each under 1.5 times that of
#: splining ``m`` itself: 2.6e-9 and 1.3e-8 (golden), 4.6e-8 and 9.0e-8 (the
#: 2x2 benchmark grid), 4.1e-6 and 1.5e-5 (nk = 128)
DENSE_NEAR_TOL = {
    "golden_physical": (1e-9, 1e-8),
    "matrix2x2_physical": (3e-8, 1e-7),
    "matrix_physical": (2.5e-6, 1.5e-5),
}


@pytest.mark.parametrize("rows", ["one", "many"])
@pytest.mark.parametrize("table", list(DENSE_NEAR_TOL))
def test_near_field_sums_match_whole_table_reference(table, rows, request):
    """The near-field sums equal those of whole ``m(+-k, xv)`` tables of the
    reference propagation, for both signs and one time or the times of one
    evolution as rows: on the table grid, of ``f`` itself, to roundoff; on
    the dense grid, of ``f - e^{ikx} I``, to the spline's error."""
    pt = request.getfixturevalue(table)
    potential = request.getfixturevalue(
        "golden_potential" if table.startswith("golden") else "matrix_potential"
    )
    grid = pt.grid
    rng = np.random.default_rng(5)
    Y = _packet(grid.x, pt.n) + 0.1 * rng.normal(size=(grid.x.size, pt.n))
    Yc = np.conj(Y[: pt.xv.size] * trapezoid_weights(pt.xv)[:, None])[:-1]
    times = np.array([0.5, -1.0, 2.0])[: 1 if rows == "one" else None]
    stage = _build_stage(pt, 6.0, 30.0)
    for sign in (+1, -1):
        for kernel, tol in (
            (spectral._table_kernel(pt, sign), (1e-13, 1e-13)),
            (stage.kernel(sign), DENSE_NEAR_TOL[table]),
        ):
            k = kernel.k
            noise = rng.normal(size=(k.size, pt.n)) + 1j * rng.normal(size=(k.size, pt.n))
            Zw = np.exp(-(1j * times[:, None] + 0.02) * k**2)[..., None] * noise
            analysis, synthesis = oracles.map_kernel_near_sums(
                pt, k, sign, kernel.S, Yc, Zw, potential
            )
            # the near-field parts: the analysis of a field that vanishes
            # beyond the near field's values, and the synthesis on the near
            # field less the plane sums, which cover it on the dense grid
            zero, w = np.zeros((pt.xv.size, pt.n)), grid.wx[: pt.xv.size]
            got = kernel.analysis(zero, 0.0, grid.dx, w, Y[: pt.xv.size]) * np.sqrt(2.0 * np.pi)
            assert np.abs(got - analysis).max() <= tol[0] * np.abs(analysis).max()
            got = kernel.synthesis(Zw, pt.xv)[:, :-1]
            if kernel.start == 0:
                got = got - dataclasses.replace(kernel, near=None).synthesis(Zw, pt.xv)[:, :-1]
            got *= np.sqrt(2.0 * np.pi)
            assert len(got) == len(synthesis) == times.size
            for g, ref in zip(got, synthesis):
                assert np.abs(g - ref).max() <= tol[1] * np.abs(ref).max()


@pytest.mark.parametrize("table", ["golden_physical", "matrix_physical"])
def test_near_field_phases_match_longdouble_reference(table, request):
    """The near-field phases from two short exponential tables match
    ``e^{iqx}`` formed in long double, on the dense grid up to the band cap
    and on the half-offset table grid, for both signs."""
    pt = request.getfixturevalue(table)
    kq = _build_stage(pt, pt.grid.kmax, 30.0).kq
    xv = pt.xv.astype(np.longdouble)
    for q in (kq, -kq, pt.grid.kpos, -pt.grid.kpos):
        reference = _cis(np.multiply.outer(q.astype(np.longdouble), xv))
        assert np.abs(spectral._phases(q, pt.xv) - reference).max() <= 4e-15


def test_wave_limit_identity_for_free_neumann():
    grid = KXGrid.build(kmax=12.0, nk=768, dx=1 / 32, xmax=16.0)
    pt = _free_table(BoundaryPair.neumann(1), grid)
    Y = np.exp(-((grid.x - 4.0) ** 2) / 2.0).astype(complex)
    for t in (0.0, 50.0):
        theta = interacting_after_free(pt, Y, t)
        assert np.abs(theta[:, 0] - Y).max() < 5e-4


@settings(max_examples=10, deadline=None)
@given(
    x0=st.floats(min_value=2.0, max_value=6.0),
    sigma=st.floats(min_value=0.5, max_value=1.5),
)
def test_duality_property_free(x0, sigma):
    grid = KXGrid.build(kmax=8.0, nk=128, dx=1 / 16, xmax=16.0)
    pt = _free_table(BoundaryPair.neumann(1), grid)
    Y = np.exp(-((grid.x - x0) ** 2) / (2 * sigma**2)).astype(complex)
    Z = np.exp(-((grid.kpos - 2.0) ** 2))[:, None].astype(complex)
    lhs = np.sum(grid.dk * np.conj(fourier_maps(pt, Y, +1)) * Z)
    rhs = np.sum(
        grid.wx[:, None] * np.conj(Y[:, None]) * fourier_maps_adjoint(pt, Z, +1)
    )
    assert abs(lhs - rhs) < 1e-10
    phi = fourier_maps(pt, Y, +1)
    norm_phi = float(np.sqrt(grid.dk * np.sum(np.abs(phi) ** 2)))
    assert abs(norm_phi - field_norm(Y, grid.wx)) < 5e-5
