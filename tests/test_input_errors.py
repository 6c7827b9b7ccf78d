"""Non-finite or degenerate inputs raise the package's typed errors, naming
the input, instead of numpy's errors or silently wrong numbers."""

from dataclasses import replace

import numpy as np
import pytest

from scatterkit.boundary import BoundaryError, BoundaryPair, diagonalize_boundary, validate_boundary
from scatterkit.grids import GridError, KXGrid
from scatterkit.jost import (
    JostError,
    KernelTooCoarse,
    bound_states,
    jost_matrix,
    marchenko_kernel,
    solve_faddeev,
)
from scatterkit.potentials import PotentialError, PotentialSpec, validate_potential
from scatterkit.scattering import ScatteringError, scattering_table, smatrix
from scatterkit.spectral import (
    SpectralError,
    evolve_spectral,
    f0_transform,
    fourier_maps,
    fourier_maps_adjoint,
    interacting_after_free,
    physical_solution,
)
from scatterkit.waveop import (
    FieldR,
    FieldRplus,
    WaveOpError,
    wave_op_adjoint,
    wave_op_decomposed,
    wave_op_l1_form,
    wave_op_time_limit,
)

NAN, INF = float("nan"), float("inf")


def _free_jost():
    grid = KXGrid.build(kmax=10.0, nk=64, dx=1 / 16, xmax=4.0)
    return solve_faddeev(PotentialSpec.from_cells(1, [(0.0, 1.0, 0.0)]), grid)


def _free_table():
    jt = jost_matrix(_free_jost(), BoundaryPair.neumann(1))
    return physical_solution(jt, smatrix(jt))


def _grid(**sizes):
    return lambda: KXGrid.build(**{**dict(kmax=10.0, nk=64, dx=1 / 16, xmax=4.0), **sizes})


def _potential(value):
    return PotentialSpec.from_cells(1, [(0.0, 1.0, value)])


def _pair(a):
    return BoundaryPair.from_matrices([[a]], [[1.0]])


def _evolve_nan():
    pt = _free_table()
    evolve_spectral(pt, np.exp(-((pt.grid.x - 2.0) ** 2)), NAN)


def _after_free(t):
    def call():
        pt = _free_table()
        interacting_after_free(pt, np.exp(-((pt.grid.x - 2.0) ** 2)), t)

    return call


def _time_limit(t):
    def call():
        pt = _free_table()
        f = FieldRplus(pt.grid.x, np.exp(-((pt.grid.x - 2.0) ** 2)))
        wave_op_time_limit(pt, f, +1, tschedule=(1.0, t))

    return call


def _map(field, sign=+1):
    def call():
        pt = _free_table()
        fourier_maps(pt, field(pt), sign)

    return call


def _one_sample_f0():
    f0_transform(_grid()(), [1.0])


def _short_spectrum():
    pt = _free_table()
    fourier_maps_adjoint(pt, np.ones(pt.grid.npos - 1))


def _coarse_kernel():
    # V = 25 at dx = 1/16: the step-doubling estimate reads about 1e-2
    marchenko_kernel(solve_faddeev(_potential(25.0), _grid()()))


def _route(route, sign):
    def call():
        jt = jost_matrix(_free_jost(), BoundaryPair.neumann(1))
        f = FieldRplus(jt.grid.x, np.exp(-((jt.grid.x - 2.0) ** 2)))
        route(scattering_table(jt), marchenko_kernel(jt), f, sign)

    return call


def _nan_jost_node(n):
    # one NaN node in the J(k) stack: a typed refusal, not LinAlgError or a NaN S
    def call():
        potential = PotentialSpec.from_cells(n, [(0.0, 1.0, np.eye(n))])
        jt = jost_matrix(solve_faddeev(potential, _grid()()), BoundaryPair.neumann(n))
        J = jt.jmatrix.J.copy()
        J[7, 0, -1] = NAN
        smatrix(replace(jt, jmatrix=replace(jt.jmatrix, J=J)))

    return call


def _with_nan(values: np.ndarray, node: int = 5) -> np.ndarray:
    values = np.array(values, dtype=complex)
    values[node] = NAN
    return values


def _nan_field(call):
    # one NaN sample in an otherwise admissible packet
    def run():
        pt = _free_table()
        call(pt, _with_nan(np.exp(-((pt.grid.x - 2.0) ** 2))))

    return run


def _empty_schedule():
    pt = _free_table()
    f = FieldRplus(pt.grid.x, np.exp(-((pt.grid.x - 2.0) ** 2)))
    wave_op_time_limit(pt, f, +1, tschedule=())


CASES = {
    "kmax nan": (_grid(kmax=NAN), GridError, "kmax"),
    "dx nan": (_grid(dx=NAN), GridError, "dx"),
    "xmax nan": (_grid(xmax=NAN), GridError, "xmax"),
    "xmax inf": (_grid(xmax=INF), GridError, "xmax"),
    "one-node window": (_grid(xmax=0.02), GridError, "xmax"),
    "nk two": (_grid(nk=2), GridError, "nk"),
    "potential nan": (lambda: validate_potential(_potential(NAN)), PotentialError, "finite"),
    "potential inf": (lambda: validate_potential(_potential(INF)), PotentialError, "finite"),
    "faddeev nan": (lambda: solve_faddeev(_potential(NAN), _grid()()), PotentialError, "finite"),
    "boundary nan": (lambda: validate_boundary(_pair(NAN)), BoundaryError, "matrix A"),
    "boundary inf": (lambda: validate_boundary(_pair(INF)), BoundaryError, "matrix A"),
    "diagonalize nan": (lambda: diagonalize_boundary(_pair(NAN)), BoundaryError, "matrix A"),
    "jost matrix nan": (lambda: jost_matrix(_free_jost(), _pair(NAN)), BoundaryError, "matrix A"),
    "bound states nan": (lambda: bound_states(_potential(NAN), _pair(0.0)), PotentialError, "finite"),
    "bound states dimension": (lambda: bound_states(_potential(1.0), BoundaryPair.neumann(2)), JostError, "dimension"),
    "kernel coarse grid": (_coarse_kernel, KernelTooCoarse, "dx"),
    "jost stack nan n=1": (_nan_jost_node(1), ScatteringError, "not finite at k="),
    "jost stack nan n=2": (_nan_jost_node(2), ScatteringError, "not finite at k="),
    "evolve nan": (_evolve_nan, SpectralError, "times t"),
    "after free nan": (_after_free(NAN), SpectralError, "time t"),
    "after free inf": (_after_free(INF), SpectralError, "time t"),
    "time limit nan": (_time_limit(NAN), SpectralError, "time t"),
    "time limit inf": (_time_limit(INF), SpectralError, "time t"),
    "map one sample": (_map(lambda pt: np.array([1.0])), SpectralError, "shape"),
    "evolve one sample": (lambda: evolve_spectral(_free_table(), [1.0], 1.0), SpectralError, "shape"),
    "f0 one sample": (_one_sample_f0, SpectralError, "shape"),
    "map channels": (_map(lambda pt: np.ones((pt.grid.x.size, 2))), SpectralError, "shape"),
    "adjoint spectrum length": (_short_spectrum, SpectralError, "shape"),
    "map sign": (_map(lambda pt: np.ones(pt.grid.x.size), sign=2), SpectralError, "sign"),
    "empty schedule": (_empty_schedule, WaveOpError, "tschedule"),
    "decomposed sign": (_route(wave_op_decomposed, 0), SpectralError, "sign"),
    "l1 form sign": (_route(wave_op_l1_form, 2), SpectralError, "sign"),
    "adjoint sign": (_route(wave_op_adjoint, 2), SpectralError, "sign"),
    "field nan": (_nan_field(lambda pt, y: FieldRplus(pt.grid.x, y)), SpectralError, "field values"),
    "full-line field inf": (
        lambda: FieldR(np.arange(-4.0, 4.5, 0.5), np.where(np.arange(17) == 8, INF, 1.0)),
        SpectralError,
        "field values",
    ),
    "evolve field nan": (_nan_field(lambda pt, y: evolve_spectral(pt, y, 1.0)), SpectralError, "samples Y"),
    "after free field nan": (_nan_field(lambda pt, y: interacting_after_free(pt, y, 1.0)), SpectralError, "samples Y"),
    "map field nan": (_nan_field(fourier_maps), SpectralError, "samples Y"),
    "adjoint map nan": (
        lambda: fourier_maps_adjoint(_free_table(), _with_nan(np.ones(_free_table().grid.npos))),
        SpectralError,
        "samples Z",
    ),
    "f0 field nan": (_nan_field(lambda pt, y: f0_transform(pt.grid, y)), SpectralError, "samples Y"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_typed_error(case):
    call, error, name = CASES[case]
    with pytest.raises(error, match=name):
        call()
