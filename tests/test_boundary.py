import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit.boundary import (
    BoundaryPair,
    DegeneratePair,
    NonHermitianCoupling,
    NotSelfAdjointPair,
    boundary_unitary,
    diagonalize_boundary,
    line_interaction_matrices,
    predicted_s_infinity,
    predicted_s_infinity_identity,
    transmission_boundary,
    validate_boundary,
)
from conftest import GOLDEN_THETA


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_named_conditions_validate():
    for bp in (
        BoundaryPair.robin(GOLDEN_THETA),
        BoundaryPair.dirichlet(2),
        BoundaryPair.neumann(3),
    ):
        report = validate_boundary(bp)
        assert report["min_eigenvalue"] > 0


def test_robin_channel_angles_roundtrip():
    bp = BoundaryPair.robin(GOLDEN_THETA)
    form = diagonalize_boundary(bp)
    np.testing.assert_allclose(form.thetas, [GOLDEN_THETA], atol=1e-12)
    assert (form.n_dirichlet, form.n_neumann, form.n_mixed) == (0, 0, 1)
    assert predicted_s_infinity_identity(form)


def test_dirichlet_angle_is_pi_not_zero():
    form = diagonalize_boundary(BoundaryPair.dirichlet(2))
    np.testing.assert_allclose(form.thetas, [np.pi, np.pi], atol=1e-12)
    assert form.n_dirichlet == 2
    np.testing.assert_allclose(predicted_s_infinity(form), -np.eye(2), atol=1e-12)
    assert not predicted_s_infinity_identity(form)


def test_neumann_angle():
    form = diagonalize_boundary(BoundaryPair.neumann(2))
    np.testing.assert_allclose(form.thetas, [np.pi / 2, np.pi / 2], atol=1e-12)
    assert form.n_neumann == 2
    np.testing.assert_allclose(predicted_s_infinity(form), np.eye(2), atol=1e-12)


def test_mixed_diagonal_channels_sorted():
    # one Dirichlet, one Neumann, one intermediate channel
    A = np.diag([0.0, 1.0, -np.sin(GOLDEN_THETA)]).astype(complex)
    B = np.diag([-1.0, 0.0, np.cos(GOLDEN_THETA)]).astype(complex)
    form = diagonalize_boundary(BoundaryPair.from_matrices(A, B))
    np.testing.assert_allclose(form.thetas, [np.pi, np.pi / 2, GOLDEN_THETA], atol=1e-10)
    assert (form.n_dirichlet, form.n_neumann, form.n_mixed) == (1, 1, 1)
    np.testing.assert_allclose(predicted_s_infinity(form), np.diag([-1.0, 1.0, 1.0]), atol=1e-10)


def test_validation_failures():
    with pytest.raises(NotSelfAdjointPair):
        validate_boundary(BoundaryPair.from_matrices(np.eye(2), [[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DegeneratePair):
        validate_boundary(BoundaryPair.from_matrices(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))


def test_condition_invariant_under_right_factor():
    rng = np.random.default_rng(7)
    bp = BoundaryPair.robin(np.array([0.3, 1.1, np.pi]), n=3)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(np.linalg.det(T)) > 1e-3
    bpt = bp.transformed(T)
    validate_boundary(bpt)
    np.testing.assert_allclose(boundary_unitary(bpt), boundary_unitary(bp), atol=1e-10)
    f0, f1 = diagonalize_boundary(bp), diagonalize_boundary(bpt)
    np.testing.assert_allclose(f0.thetas, f1.thetas, atol=1e-8)
    np.testing.assert_allclose(predicted_s_infinity(f0), predicted_s_infinity(f1), atol=1e-8)


def test_delta_interaction_pair():
    bp = line_interaction_matrices([[2.0]])
    validate_boundary(bp)
    np.testing.assert_allclose(bp.A, [[0.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(bp.B, [[-1.0, 2.0], [1.0, 0.0]])
    # coupling zero: the boundary unitary is the off-diagonal sign swap
    free = line_interaction_matrices(0.0)
    np.testing.assert_allclose(boundary_unitary(free), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)
    # ... whose high-energy limit is the channel swap (no Dirichlet part)
    form = diagonalize_boundary(free)
    np.testing.assert_allclose(predicted_s_infinity(form), [[0.0, 1.0], [1.0, 0.0]], atol=1e-10)
    with pytest.raises(NonHermitianCoupling):
        line_interaction_matrices([[1j]])


def test_transmission_blocks_stack():
    lam = np.array([[2.0]])
    eye = np.eye(1)
    zero = np.zeros((1, 1))
    bp = transmission_boundary(
        A1=np.hstack([zero, eye]),
        A2=np.hstack([zero, -eye]),
        B1=np.hstack([-eye, lam]),
        B2=np.hstack([-eye, zero]),
    )
    assert bp.n == 2
    validate_boundary(bp)


def test_unitary_parameterization_roundtrip():
    # (A, B) = ((i/2)(I - W), (I + W)/2) is self-adjoint with Gram = I
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        W = haar_unitary(n, rng)
        bp = BoundaryPair.from_matrices(0.5j * (np.eye(n) - W), 0.5 * (np.eye(n) + W))
        report = validate_boundary(bp)
        np.testing.assert_allclose(report["min_eigenvalue"], 1.0, atol=1e-12)
        np.testing.assert_allclose(boundary_unitary(bp), W.conj().T, atol=1e-12)
        form = diagonalize_boundary(bp)
        s_inf = predicted_s_infinity(form)
        np.testing.assert_allclose(s_inf, s_inf.conj().T, atol=1e-12)
        np.testing.assert_allclose(s_inf @ s_inf, np.eye(n), atol=1e-12)


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=np.pi - 0.1, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_angles_recovered_from_conjugated_diagonal(thetas, seed):
    thetas = np.array(thetas)
    n = thetas.size
    M = haar_unitary(n, np.random.default_rng(seed))
    A = -M @ np.diag(np.sin(thetas)).astype(complex) @ M.conj().T
    B = M @ np.diag(np.cos(thetas)).astype(complex) @ M.conj().T
    form = diagonalize_boundary(BoundaryPair.from_matrices(A, B))
    np.testing.assert_allclose(form.thetas, np.sort(thetas)[::-1], atol=1e-8)


def _mixed_pair():
    # one Dirichlet, one Neumann and one intermediate channel
    A = np.diag([0.0, 1.0, -np.sin(GOLDEN_THETA)]).astype(complex)
    B = np.diag([-1.0, 0.0, np.cos(GOLDEN_THETA)]).astype(complex)
    return BoundaryPair.from_matrices(A, B)


def _random_pairs():
    rng = np.random.default_rng(23)
    pairs = []
    for n in (1, 2, 3, 4):
        for _ in range(3):
            A = haar_unitary(n, rng)
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pairs.append(BoundaryPair.from_matrices(A, A @ (H + H.conj().T)))
    return pairs


def _schur_thetas(bp):
    """Channel angles from the complex Schur form of the boundary unitary."""
    import scipy.linalg

    T, _ = scipy.linalg.schur(boundary_unitary(bp), output="complex")
    ang = np.angle(np.diag(T))
    ang = np.where(ang <= 1e-9, ang + 2.0 * np.pi, ang)
    return np.sort(0.5 * ang)[::-1]


@pytest.mark.parametrize(
    "bp",
    [
        BoundaryPair.dirichlet(2),
        BoundaryPair.neumann(2),
        _mixed_pair(),
        _mixed_pair().transformed(haar_unitary(3, np.random.default_rng(3))),
        transmission_boundary(
            A1=[[0.0, 1.0]], A2=[[0.0, -1.0]], B1=[[-1.0, 2.0]], B2=[[-1.0, 0.0]]
        ),
        line_interaction_matrices(0.0),
        *_random_pairs(),
    ],
)
def test_diagonalization_matches_schur_reference(bp):
    form = diagonalize_boundary(bp)
    np.testing.assert_allclose(form.thetas, _schur_thetas(bp), rtol=0, atol=1e-14)
    np.testing.assert_allclose(form.M.conj().T @ form.M, np.eye(bp.n), rtol=0, atol=1e-14)
    A_rec, B_rec = form.reconstruct()
    scale = max(1.0, np.linalg.norm(bp.A, 2), np.linalg.norm(bp.B, 2))
    assert max(np.linalg.norm(A_rec - bp.A, 2), np.linalg.norm(B_rec - bp.B, 2)) <= 1e-9 * scale
