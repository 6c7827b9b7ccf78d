import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit.potentials import (
    EmptySupport,
    NonHermitian,
    PotentialError,
    PotentialSpec,
    box_potential,
    fold_line_potential,
    l1gamma_norm,
    moments,
    reflect_potential,
    restrict_positive,
    validate_potential,
    zero_potential,
)

# --- frozen values for V = 1 on (0, 1) -------------------------------------
# integral (1+x)|V| dx = 3/2; integral (1+x)^3 |V| dx = 15/4
# sigma(0) = 1, sigma(1/2) = 1/2, sigma1(0) = 1/2


def test_unit_step_moments_closed_form():
    v = box_potential(1.0, 0.0, 1.0)
    mom = moments(v, np.array([0.0, 0.5, 1.0, 2.0]))
    np.testing.assert_allclose(mom.sigma, [1.0, 0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(mom.sigma1, [0.5, 0.375, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(l1gamma_norm(v, 1.0), 1.5, atol=1e-15)
    np.testing.assert_allclose(l1gamma_norm(v, 3.0), 3.75, atol=1e-15)
    np.testing.assert_allclose(l1gamma_norm(v, 0.0), 1.0, atol=1e-15)
    assert v.support_radius == 1.0


def test_value_at_half_open_cells():
    v = box_potential(1.0, 0.0, 1.0)
    vals = v.value_at(np.array([-0.5, 0.0, 0.999, 1.0, 2.0]))
    np.testing.assert_allclose(vals[:, 0, 0], [0.0, 1.0, 1.0, 0.0, 0.0])


def test_matrix_norm_uses_spectral_norm():
    v = box_potential(np.array([[0.0, 2.0], [2.0, 0.0]]), 0.0, 1.0)
    mom = moments(v, np.array([0.0]))
    np.testing.assert_allclose(mom.sigma, [2.0])


def test_validate_rejects_non_hermitian_cell():
    v = box_potential(np.array([[0.0, 1j], [1j, 0.0]]), 0.0, 1.0)
    with pytest.raises(NonHermitian) as err:
        validate_potential(v)
    assert err.value.x == 0.0
    np.testing.assert_allclose(err.value.defect, 2.0)


def test_validate_accepts_complex_hermitian():
    v = box_potential(np.array([[1.0, 0.5j], [-0.5j, 2.0]]), 0.0, 1.0)
    report = validate_potential(v)
    assert report["n"] == 2
    assert report["max_hermiticity_defect"] <= 1e-14


def test_empty_and_zero_potentials():
    with pytest.raises(EmptySupport):
        validate_potential(PotentialSpec.from_cells(1, []))
    z = zero_potential(2)
    report = validate_potential(z)  # explicit zero cells are legal
    assert report["cells"] == 1
    assert z.support_radius == 0.0
    np.testing.assert_allclose(moments(z, np.array([0.0])).sigma, [0.0])


def test_from_cells_fills_gaps_and_rejects_overlap():
    v = PotentialSpec.from_cells(1, [(0.0, 1.0, 1.0), (2.0, 3.0, 5.0)])
    np.testing.assert_allclose(v.value_at(np.array([1.5]))[0, 0, 0], 0.0)
    np.testing.assert_allclose(v.value_at(np.array([2.5]))[0, 0, 0], 5.0)
    assert 2.0 in v.breaks
    with pytest.raises(ValueError):
        PotentialSpec.from_cells(1, [(0.0, 1.0, 1.0), (0.5, 2.0, 1.0)])


def test_from_samples_midpoint_cells():
    x = np.array([0.25, 0.75])
    vals = np.array([[[2.0]], [[4.0]]])
    v = PotentialSpec.from_samples(x, vals)
    np.testing.assert_allclose(v.value_at(np.array([0.1]))[0, 0, 0], 2.0)
    np.testing.assert_allclose(v.value_at(np.array([0.9]))[0, 0, 0], 4.0)
    np.testing.assert_allclose(moments(v, np.array([0.0])).sigma, [3.0])


def test_from_samples_rejects_count_mismatch():
    # zip would silently keep the shorter of the two: a 2-cell potential of
    # support 0.75 for five positions, and two dropped samples for two
    with pytest.raises(PotentialError, match="2 samples for 5 positions"):
        PotentialSpec.from_samples(np.linspace(0.0, 2.0, 5), [2.0, 4.0])
    with pytest.raises(PotentialError, match="4 samples for 2 positions"):
        PotentialSpec.from_samples(np.array([0.25, 0.75]), [1.0, 2.0, 3.0, 4.0])


def test_reflect_and_restrict():
    cells = [(-2.0, -1.0, 3.0), (0.5, 1.0, 7.0)]
    v = PotentialSpec.from_cells(1, cells, domain="line")
    assert v.support_radius == 2.0
    r = reflect_potential(v)
    np.testing.assert_allclose(r.value_at(np.array([1.5]))[0, 0, 0], 3.0)
    np.testing.assert_allclose(r.value_at(np.array([0.7]))[0, 0, 0], 0.0)
    p = restrict_positive(v)
    np.testing.assert_allclose(p.value_at(np.array([0.7]))[0, 0, 0], 7.0)
    np.testing.assert_allclose(p.value_at(np.array([1.5]))[0, 0, 0], 0.0)


def test_fold_line_potential_blocks():
    cells = [(-2.0, -1.0, 3.0), (0.5, 1.0, 7.0)]
    v = PotentialSpec.from_cells(1, cells, domain="line")
    vplus, vminus, vfolded = fold_line_potential(v)
    assert vfolded.n == 2
    at = vfolded.value_at(np.array([0.75, 1.5]))
    np.testing.assert_allclose(at[0], [[7.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(at[1], [[0.0, 0.0], [0.0, 3.0]])
    # folded blocks agree with the two half-line restrictions everywhere
    xs = np.linspace(0.0, 3.0, 61)
    np.testing.assert_allclose(vfolded.value_at(xs)[:, 0, 0], vplus.value_at(xs)[:, 0, 0])
    np.testing.assert_allclose(vfolded.value_at(xs)[:, 1, 1], vminus.value_at(xs)[:, 0, 0])


def test_fold_requires_line_domain():
    v = box_potential(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fold_line_potential(v)


# --- property tests ---------------------------------------------------------

cell_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def step_potentials(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                min_size=m + 1,
                max_size=m + 1,
                unique_by=lambda t: round(t, 3),
            )
        )
    )
    vals = [draw(cell_values) for _ in range(m)]
    cells = [(edges[i], edges[i + 1], vals[i]) for i in range(m)]
    return PotentialSpec.from_cells(1, cells)


@given(step_potentials())
@settings(max_examples=25, deadline=None)
def test_sigma_antitone_and_consistent(v):
    xs = np.linspace(0.0, 4.0, 41)
    mom = moments(v, xs)
    assert np.all(np.diff(mom.sigma) <= 1e-12)
    assert np.all(np.diff(mom.sigma1) <= 1e-12)
    # cells at or below the support-detection cutoff are not counted in the
    # radius but still integrate; bound the residue by cutoff * total width
    residue_cap = 1e-10 * (v.breaks[-1] - v.breaks[0]) + 1e-12
    assert np.all(mom.sigma[xs >= v.support_radius] <= residue_cap)
    np.testing.assert_allclose(l1gamma_norm(v, 0.0), mom.sigma[0], atol=1e-12)


@given(step_potentials())
@settings(max_examples=25, deadline=None)
def test_sigma_integrates_to_first_moment(v):
    # sigma is piecewise linear with knees at the cell edges, so the
    # trapezoid rule on the refined edge grid integrates it exactly;
    # Fubini gives integral_0^inf sigma = sigma1(0).
    edges = np.unique(np.concatenate([v.breaks, [0.0, v.breaks[-1] + 1.0]]))
    edges = edges[edges >= 0.0]
    grid = np.unique(np.concatenate([edges, np.linspace(0.0, edges[-1], 5)]))
    mom = moments(v, grid)
    np.testing.assert_allclose(
        np.trapezoid(mom.sigma, grid), moments(v, np.array([0.0])).sigma1[0], atol=1e-10
    )
