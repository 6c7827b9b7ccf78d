"""Self-adjoint boundary conditions at the origin and their normal form.

A boundary pair ``(A, B)`` of ``n x n`` matrices imposes

    -B^dagger Y(0) + A^dagger Y'(0) = 0.

Self-adjointness of the resulting operator requires ``B^dagger A`` Hermitian
and ``A^dagger A + B^dagger B`` strictly positive.  Every such pair is
unitarily equivalent to decoupled scalar conditions

    cos(theta_j) y_j(0) + sin(theta_j) y_j'(0) = 0,     theta_j in (0, pi],

with ``theta = pi`` the Dirichlet channel and ``theta = pi/2`` the Neumann
channel.  :func:`diagonalize_boundary` computes the angles, the unitary
channel-mixing matrix ``M`` and the factors ``T1``, ``T2`` that reconstruct
the original pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SELF_ADJOINT_TOL = 1e-10
MIN_RANK_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
ANGLE_SNAP_TOL = 1e-9


class BoundaryError(ValueError):
    """Base class for boundary-condition failures."""


class NotSelfAdjointPair(BoundaryError):
    """``B^dagger A`` is not Hermitian within tolerance."""


class DegeneratePair(BoundaryError):
    """``A^dagger A + B^dagger B`` is (numerically) singular."""


class NonHermitianCoupling(BoundaryError):
    """A point-interaction coupling matrix is not Hermitian."""


@dataclass(frozen=True)
class BoundaryPair:
    """Boundary matrices ``(A, B)`` for the condition at the origin."""

    n: int
    A: np.ndarray
    B: np.ndarray

    @classmethod
    def from_matrices(cls, A, B) -> "BoundaryPair":
        A = np.atleast_2d(np.asarray(A, dtype=complex))
        B = np.atleast_2d(np.asarray(B, dtype=complex))
        if A.shape != B.shape or A.shape[0] != A.shape[1]:
            raise BoundaryError(f"boundary matrices must be square and matched, got {A.shape} and {B.shape}")
        return cls(n=A.shape[0], A=A, B=B)

    @classmethod
    def robin(cls, theta: float | np.ndarray, n: int = 1) -> "BoundaryPair":
        """Decoupled channels ``cos(theta_j) y_j(0) + sin(theta_j) y_j'(0) = 0``."""
        th = np.broadcast_to(np.asarray(theta, dtype=float), (n,))
        return cls(n=n, A=np.diag(-np.sin(th)).astype(complex), B=np.diag(np.cos(th)).astype(complex))

    @classmethod
    def dirichlet(cls, n: int = 1) -> "BoundaryPair":
        """``Y(0) = 0``: the pair ``(A, B) = (0, -I)``."""
        return cls(n=n, A=np.zeros((n, n), dtype=complex), B=-np.eye(n, dtype=complex))

    @classmethod
    def neumann(cls, n: int = 1) -> "BoundaryPair":
        """``Y'(0) = 0``: the pair ``(A, B) = (I, 0)``."""
        return cls(n=n, A=np.eye(n, dtype=complex), B=np.zeros((n, n), dtype=complex))

    def transformed(self, T: np.ndarray) -> "BoundaryPair":
        """Right-multiply both matrices by an invertible ``T`` (same condition)."""
        return BoundaryPair(self.n, self.A @ T, self.B @ T)


@dataclass(frozen=True)
class DiagonalForm:
    """Normal form of a self-adjoint boundary pair.

    ``A = M @ diag(-sin theta) @ T1 @ M^dagger @ T2`` and
    ``B = M @ diag(cos theta) @ T1 @ M^dagger @ T2`` with ``M`` unitary,
    ``T1 = diag(e^{i theta})`` and ``T2 = B + iA``.  ``dirichlet`` marks the
    channels with ``theta = pi`` (within ``ANGLE_SNAP_TOL``).
    """

    thetas: np.ndarray
    M: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    dirichlet: np.ndarray
    n_neumann: int
    n_mixed: int

    @property
    def n_dirichlet(self) -> int:
        return int(self.dirichlet.sum())

    @cached_property
    def A_tilde(self) -> np.ndarray:
        return np.diag(-np.sin(self.thetas)).astype(complex)

    @cached_property
    def B_tilde(self) -> np.ndarray:
        return np.diag(np.cos(self.thetas)).astype(complex)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """The boundary pair rebuilt from the normal form."""
        core = self.T1 @ self.M.conj().T @ self.T2
        return self.M @ self.A_tilde @ core, self.M @ self.B_tilde @ core


def validate_boundary(bp: BoundaryPair) -> dict:
    """Check the self-adjointness conditions.

    Returns
    -------
    dict
        ``{"n", "hermiticity_defect", "min_eigenvalue"}`` where the defect is
        ``|B^dagger A - A^dagger B|`` and the eigenvalue is the smallest one of
        ``A^dagger A + B^dagger B``.

    Raises
    ------
    NotSelfAdjointPair
        If the defect exceeds tolerance (relative to the pair's scale).
    DegeneratePair
        If the rank condition fails.
    BoundaryError
        If an entry of ``A`` or ``B`` is not finite.
    """
    A, B = bp.A, bp.B
    for name, m in (("A", A), ("B", B)):
        if not np.isfinite(m).all():
            raise BoundaryError(f"boundary matrix {name} has a non-finite entry")
    herm = B.conj().T @ A
    defect = float(np.linalg.norm(herm - herm.conj().T, 2))
    scale = max(1.0, float(np.linalg.norm(A, 2) ** 2 + np.linalg.norm(B, 2) ** 2))
    if defect > SELF_ADJOINT_TOL * scale:
        raise NotSelfAdjointPair(f"B^dagger A is not Hermitian: defect {defect:.3e}")
    gram = A.conj().T @ A + B.conj().T @ B
    mineig = float(np.linalg.eigvalsh(gram).min())
    if mineig <= MIN_RANK_TOL * scale:
        raise DegeneratePair(f"A^dagger A + B^dagger B has minimal eigenvalue {mineig:.3e}")
    return {"n": bp.n, "hermiticity_defect": defect, "min_eigenvalue": mineig}


def boundary_unitary(bp: BoundaryPair) -> np.ndarray:
    """The unitary ``U = (B - iA)(A^dagger A + B^dagger B)^{-1}(B^dagger - iA^dagger)``
    whose eigenvalues ``e^{2 i theta_j}`` carry the channel angles."""
    A, B = bp.A, bp.B
    gram = A.conj().T @ A + B.conj().T @ B
    return (B - 1j * A) @ np.linalg.solve(gram, B.conj().T - 1j * A.conj().T)


def diagonalize_boundary(bp: BoundaryPair) -> DiagonalForm:
    """Compute the channel angles and mixing unitary of a validated pair.

    The unitary ``U`` is normal, so its eigenvectors are those of the
    Hermitian Cayley transform ``H = i (I - V)^{-1} (I + V)`` of ``V =
    e^{-i alpha} U``, with ``alpha`` the middle of the widest gap between
    the eigenvalue arguments of ``U`` (at least ``2 pi / n`` wide, so ``I -
    V`` stays well conditioned); ``numpy.linalg.eigh`` of ``H`` gives them
    as the unitary ``M``.  ``M^dagger U M`` is then diagonal, and the angles
    are read off its diagonal as half the arguments taken in ``(0, 2 pi]``
    (so ``theta in (0, pi]`` with Dirichlet mapped to ``pi``).  Channels are
    ordered by descending angle: Dirichlet first, then mixed, then Neumann,
    then small-angle mixed.

    Raises
    ------
    BoundaryError
        If ``M^dagger U M`` is not numerically diagonal (``U`` not normal) or
        the reconstruction defect exceeds 1e-9.
    """
    validate_boundary(bp)
    U = boundary_unitary(bp)
    eye = np.eye(bp.n)
    phases = np.sort(np.angle(np.linalg.eigvals(U)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    V = np.exp(-1j * (phases[widest] + 0.5 * gaps[widest])) * U
    H = 1j * np.linalg.solve(eye - V, eye + V)
    _, Z = np.linalg.eigh(0.5 * (H + H.conj().T))
    T = Z.conj().T @ U @ Z
    off = T - np.diag(np.diag(T))
    if np.linalg.norm(off, 2) > 1e-8:
        raise BoundaryError("boundary unitary failed to diagonalize (not normal?)")
    lam = np.diag(T)
    ang = np.angle(lam)
    ang = np.where(ang <= ANGLE_SNAP_TOL, ang + 2.0 * np.pi, ang)
    thetas = 0.5 * ang
    order = np.argsort(-thetas, kind="stable")
    thetas = thetas[order]
    M = Z[:, order]
    T1 = np.diag(np.exp(1j * thetas))
    T2 = bp.B + 1j * bp.A
    dirichlet = np.abs(thetas - np.pi) <= ANGLE_SNAP_TOL
    n_neu = int(np.sum(np.abs(thetas - np.pi / 2) <= ANGLE_SNAP_TOL))
    form = DiagonalForm(
        thetas=thetas,
        M=M,
        T1=T1,
        T2=T2,
        dirichlet=dirichlet,
        n_neumann=n_neu,
        n_mixed=bp.n - int(dirichlet.sum()) - n_neu,
    )
    A_rec, B_rec = form.reconstruct()
    scale = max(1.0, float(np.linalg.norm(bp.A, 2)), float(np.linalg.norm(bp.B, 2)))
    defect = max(
        float(np.linalg.norm(A_rec - bp.A, 2)),
        float(np.linalg.norm(B_rec - bp.B, 2)),
    )
    if defect > RECONSTRUCTION_TOL * scale:
        raise BoundaryError(f"normal-form reconstruction defect {defect:.3e} exceeds tolerance")
    return form


def predicted_s_infinity(form: DiagonalForm) -> np.ndarray:
    """High-energy scattering-matrix limit determined by the boundary
    condition alone: ``M diag(d) M^dagger`` with ``d_j = -1`` on Dirichlet
    channels and ``+1`` otherwise."""
    d = np.where(form.dirichlet, -1.0, 1.0)
    return form.M @ np.diag(d).astype(complex) @ form.M.conj().T


def predicted_s_infinity_identity(form: DiagonalForm) -> bool:
    """True when the high-energy limit is the identity (no Dirichlet channel)."""
    return form.n_dirichlet == 0


def line_interaction_matrices(Lambda) -> BoundaryPair:
    """Boundary pair of the folded half-line system for a point interaction
    with coupling ``Lambda`` (continuity at the origin plus a derivative jump
    ``Y'(0+) - Y'(0-) = Lambda Y(0)``).

    Raises
    ------
    NonHermitianCoupling
        If ``Lambda`` is not Hermitian.
    """
    L = np.atleast_2d(np.asarray(Lambda, dtype=complex))
    n = L.shape[0]
    if L.shape != (n, n):
        raise NonHermitianCoupling(f"coupling must be square, got {L.shape}")
    if np.linalg.norm(L - L.conj().T, 2) > SELF_ADJOINT_TOL * max(1.0, np.linalg.norm(L, 2)):
        raise NonHermitianCoupling("coupling matrix is not Hermitian")
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    A = np.block([[zero, eye], [zero, eye]])
    B = np.block([[-eye, L], [eye, zero]])
    return BoundaryPair(n=2 * n, A=A, B=B)


def transmission_boundary(A1, A2, B1, B2) -> BoundaryPair:
    """General point-interaction pair from ``n x 2n`` blocks: the condition
    ``-B1^dagger Y(0+) - B2^dagger Y(0-) + A1^dagger Y'(0+) - A2^dagger Y'(0-) = 0``
    folded to the half line."""
    A1, A2, B1, B2 = (np.atleast_2d(np.asarray(m, dtype=complex)) for m in (A1, A2, B1, B2))
    n = A1.shape[0]
    for m in (A1, A2, B1, B2):
        if m.shape != (n, 2 * n):
            raise BoundaryError(f"transmission blocks must be n x 2n, got {m.shape}")
    A = np.vstack([A1, A2])
    B = np.vstack([B1, B2])
    return BoundaryPair(n=2 * n, A=A, B=B)
