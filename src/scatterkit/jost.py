"""Jost (Faddeev) solutions, the Jost matrix and the Marchenko kernel.

The Jost solution ``f(k, x)`` solves ``-f'' + V f = k^2 f`` with
``f(k, x) = e^{ikx} I`` beyond the support of ``V``; the Faddeev function is
``m(k, x) = e^{-ikx} f(k, x)``.  Every potential is a step function, so on
each cell ``f`` has a closed form: in the eigenbasis of the cell matrix each
channel is a combination of ``cos(qs)`` and ``sin(qs)/q`` with
``q = sqrt(k^2 - lambda)``.  The solver starts at the support edge and
propagates ``(f, f')`` exactly from cell edge to cell edge, right to left,
vectorized over the whole momentum grid; there is no iteration and no
spatial refinement, and ``k = 0`` is the same formula.

Derived objects:

* the Jost matrix ``J(k) = f(-k, 0)^dagger B - f'(-k, 0)^dagger A``;
* the bound states, the energies ``-kappa^2`` where ``J(i kappa)`` is
  singular, from an exact count of the states below each energy;
* the Marchenko kernel ``K(x, y)`` of ``f(k, x) = e^{ikx} I + integral_x^inf
  K(x, y) e^{iky} dy``, from its Goursat problem ``K_xx - K_yy = V(x) K`` on
  ``y > x`` with ``K(x, x+) = (1/2) integral_x^inf V``: a diamond recursion
  on the table's ``x`` nodes with exact cell integrals of ``V``, second order
  in ``dx``, whose step-doubling estimate is checked against ``KERNEL_TOL``.
  It reads no momentum.

The table keeps ``f(k, x) - e^{ikx} I``, the left side of the Marchenko
representation, on the near field in the layout the Fourier maps contract
over, and ``m'`` at the wall only; the kernel keeps its recursion's layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .boundary import ANGLE_SNAP_TOL, BoundaryPair, diagonalize_boundary, validate_boundary
from .grids import KXGrid, _phases, trapezoid_weights
from .potentials import PotentialSpec, _spectral_norms, _tail_cells, tail_integral, validate_potential

EXCEPTIONAL_TOL = 1e-6
#: largest step-doubling estimate of the kernel's node error, relative to
#: its largest entry
KERNEL_TOL = 1e-3


class JostError(RuntimeError):
    """Base class for solver failures."""


class JostOverflow(JostError):
    """The Jost solution outgrows float64 inside an opaque barrier.

    Crossing a cell where ``lambda > k^2`` multiplies the solution by up to
    ``e^{width sqrt(lambda - k^2)}``; past ``log(float64 max)`` the tables
    would be non-finite.
    """

    def __init__(self, cell: tuple[float, float], k: float, growth: float):
        self.cell = (float(cell[0]), float(cell[1]))
        self.k = float(k)
        self.growth = float(growth)
        super().__init__(
            f"Jost solution overflows float64 in the cell [{self.cell[0]:g}, {self.cell[1]:g}] "
            f"at k={self.k:g}: its growth exponent integral sqrt(max(lambda - k^2, 0)) "
            f"reaches {self.growth:.4g}, past log(float64 max) = {np.log(np.finfo(float).max):.1f}"
        )

    @classmethod
    def at(cls, edges: np.ndarray, cells: np.ndarray, c: int, k: float) -> "JostOverflow":
        """The error for cell ``c``, with the exponent summed from the right edge."""
        lam = np.linalg.eigvalsh(cells[c:])[:, -1]
        growth = float(np.diff(edges[c:]) @ np.sqrt(np.clip(lam - k * k, 0.0, None)))
        return cls((edges[c], edges[c + 1]), k, growth)


class KernelTooCoarse(JostError):
    """The spatial step is too coarse for the kernel's Goursat recursion."""

    def __init__(self, dx: float, estimate: float):
        self.dx = float(dx)
        self.estimate = float(estimate)
        super().__init__(
            f"kernel error estimate {self.estimate:.2e} exceeds {KERNEL_TOL:.1e} at dx={self.dx:g}; "
            "decrease dx (the error falls as dx^2)"
        )


@dataclass(frozen=True)
class JostMatrix:
    """Jost matrix samples and their zero-energy limit.

    Attributes
    ----------
    k : ndarray
        Momentum nodes.
    J : ndarray
        ``J(k)`` samples, shape ``(len(k), n, n)``.
    J0 : ndarray
        ``J(0)`` from the zero-energy Faddeev table.
    min_sv0 : float
        Smallest singular value of ``J(0)``.
    exceptional : bool
        True when ``J(0)`` is numerically singular (relative 1e-6).
    zero_modes : ndarray
        Orthonormal basis of ``Ker J(0)^dagger``, shape ``(n, d)``: the left
        singular vectors of ``J(0)`` below the same relative 1e-6.
    """

    k: np.ndarray
    J: np.ndarray
    J0: np.ndarray
    min_sv0: float
    exceptional: bool
    zero_modes: np.ndarray
    boundary: BoundaryPair

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of each ``J(k)``, shape ``(len(k), n)``: the one SVD
        of the stack, read by ``smatrix`` and ``min_sv``."""
        return np.linalg.svd(self.J, compute_uv=False)

    @property
    def min_sv(self) -> float:
        """Smallest singular value of ``J`` over the grid."""
        return float(self.sv.min())


@dataclass(frozen=True)
class JostTable:
    """Faddeev table on the momentum grid and near field, with the wall
    values of its derivative.

    Attributes
    ----------
    k : ndarray
        Momentum nodes (symmetric, never containing 0).
    xv : ndarray
        Near-field spatial nodes covering the potential support, from the
        wall ``xv[0] = 0``.
    scattered : ndarray
        ``f(k, x) - e^{ikx} I = e^{ikx} (m(k, x) - I)`` with entry ``[a, b]``
        at ``[k, b, a, x]``, shape ``(len(k), n, n, len(xv))``: the Fourier
        maps read it as one matrix over rows ``(k, b)``, without a copy.
    mprime : ndarray
        ``m'(k, 0)``, shape ``(len(k), n, n)``.
    m0, m0prime : ndarray
        ``m(0, 0)`` and ``m'(0, 0)``, each of shape ``(n, n)``.
    """

    potential: PotentialSpec
    k: np.ndarray
    xv: np.ndarray
    scattered: np.ndarray
    mprime: np.ndarray
    m0: np.ndarray
    m0prime: np.ndarray
    grid: KXGrid
    jmatrix: JostMatrix | None = None

    @property
    def n(self) -> int:
        return self.potential.n

    @property
    def m(self) -> np.ndarray:
        """``m(k, x)``, shape ``(len(k), len(xv), n, n)``, formed on each read, 64 momenta at a time."""
        m = self.scattered.transpose(0, 3, 2, 1).copy()
        for lo in range(0, self.k.size, 64):
            m[lo : lo + 64] *= _phases(-self.k[lo : lo + 64], self.xv)[:, :, None, None]
        m[..., range(self.n), range(self.n)] += 1.0
        return m

    @property
    def wall(self) -> tuple[np.ndarray, np.ndarray]:
        """``f(k, 0) = m(k, 0)`` and ``f'(k, 0) = ik m(k, 0) + m'(k, 0)``, each
        of shape ``(len(k), n, n)``; ``k[::-1] == -k``, so reversed rows give
        ``f(-k, 0)`` and ``f'(-k, 0)``."""
        f = self.scattered[..., 0].swapaxes(1, 2) + np.eye(self.n)
        return f, 1j * self.k[:, None, None] * f + self.mprime


def _cell_factors(q2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos(qs)`` and ``sin(qs)/q`` for real ``q^2`` of shape ``(nk, n)`` at
    offsets ``s >= 0``, each of shape ``(nk, n, len(s))``.

    Both are even in ``q``: for ``q^2 < 0`` they are ``cosh(|q|s)`` and
    ``sinh(|q|s)/|q|``, and at ``q = 0`` they are ``1`` and ``s``.  The
    oscillating channels read the real and imaginary parts of ``e^{iqs}``
    from :func:`~.grids._phases`, so uniform offsets take its factored
    table; with the offsets in ascending order every factor's phase is
    non-negative, so ``sin(qs)`` keeps its relative accuracy as ``q -> 0``.
    They may overflow to ``inf`` in an opaque barrier.
    """
    q = np.sqrt(np.abs(q2))
    wave = _phases(q, s)
    cos, sinc = wave.real, wave.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc /= q[..., None]  # the q = 0 rows are set below
    evanescent = q2 < 0
    if evanescent.any():
        qe = q[evanescent][:, None]
        with np.errstate(over="ignore"):
            cos[evanescent] = np.cosh(qe * s)
            sinc[evanescent] = np.sinh(qe * s) / qe
    sinc[q == 0] = s
    return cos, sinc


def faddeev_solve(
    potential: PotentialSpec,
    k: np.ndarray,
    x_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the Jost solution across the cells and return its scattered
    part ``f(k, x) - e^{ikx} I`` on the output nodes and ``m'`` at the first
    of them.

    Starting from ``f = e^{ikx} I``, ``f' = ik f`` at ``x_out[-1]``, each
    cell ``[a, b]`` (walked right to left) is crossed in the eigenbasis
    ``V = U diag(lambda) U^dagger`` of its matrix, where ``q^2 = k^2 - lambda``
    and, with ``s = b - x``,

        f(x)  = U [cos(qs) U^dagger f(b) - (sin(qs)/q) U^dagger f'(b)],
        f'(x) = U [q sin(qs) U^dagger f(b) + cos(qs) U^dagger f'(b)].

    These factors are even in ``q`` and finite at ``q = 0``, so ``k = 0``
    and ``k^2 = lambda`` take the same formula; they are evaluated once per
    distinct ``|k|``.  On a cell's nodes ``f`` is one product of the cell's
    basis with ``[cos; -sinc]``, written into the output's layout.  Every
    output node is evaluated from its own cell's right edge, so round-off
    does not accumulate node by node.  ``e^{ikx}`` (taken off the diagonal
    at the end) and, in the oscillating channels, ``cos(qs)`` and
    ``sin(qs)`` come from :func:`~.grids._phases`: two short exponential
    tables per momentum on uniform nodes.  The evanescent channels and the
    cell's left edge take ``cosh``, ``sinh`` and the exponentials directly.

    Parameters
    ----------
    k : ndarray
        Momentum values (``k = 0`` allowed, in any order).
    x_out : ndarray
        Ascending output nodes; the last node must sit at or beyond the
        potential support.

    Returns
    -------
    (scattered, mprime)
        ``f(k, x) - e^{ikx} I`` on ``x_out``, laid out as
        :attr:`JostTable.scattered`, and ``m' = e^{-ikx} f' - ik m`` at
        ``x_out[0]``, shape ``(len(k), n, n)``, from the propagation's
        final state.

    Raises
    ------
    NonHermitian
        If a cell matrix is not Hermitian (``eigh`` would read one triangle).
    JostOverflow
        If the solution outgrows float64 inside an opaque barrier; no table
        with non-finite entries is returned.
    """
    validate_potential(potential)
    k = np.asarray(k, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    n = potential.n
    nk, nx = k.size, x_out.size

    if potential.support_radius > x_out[-1] + 1e-12:
        raise JostError(
            f"output window ends at {x_out[-1]} but the potential reaches "
            f"{potential.support_radius}; the tail integral would be truncated"
        )

    if nx == 1 or potential.support_radius <= x_out[0]:
        # no potential to the right of the output window: f == e^{ikx} I
        return np.zeros((nk, n, n, nx), dtype=complex), np.zeros((nk, n, n), dtype=complex)

    xe = x_out[-1]
    inner = potential.breaks[(potential.breaks > x_out[0]) & (potential.breaks < xe)]
    edges = np.concatenate([[x_out[0]], inner, [xe]])
    cells = potential.segment_values(edges)
    owner = np.clip(np.searchsorted(edges, x_out, side="right") - 1, 0, cells.shape[0] - 1)
    absk, pair = np.unique(np.abs(k), return_inverse=True)

    f = np.exp(1j * k * xe)[:, None, None] * np.eye(n)  # state at the current right edge
    fp = 1j * k[:, None, None] * f
    out = np.empty((nk, n * n, nx), dtype=complex)  # rows (b, a)
    for c in range(cells.shape[0] - 1, -1, -1):
        a, b = edges[c], edges[c + 1]
        lam, u = np.linalg.eigh(cells[c])
        lo, hi = np.searchsorted(owner, (c, c + 1))
        q2 = (absk * absk)[:, None] - lam  # (len(absk), n)
        cos, sinc = _cell_factors(q2, b - x_out[lo:hi][::-1])
        nodes = np.concatenate([cos, -sinc], axis=1, dtype=complex)[..., ::-1]
        cos, sinc = (v[..., 0] for v in _cell_factors(q2, np.array([b - a])))
        edge = np.stack([np.concatenate([cos, -sinc], 1), np.concatenate([q2 * sinc, cos], 1)], axis=2)
        # f(x)[a, b] = sum_l u[a, l] (cos_l C[l, b] - sinc_l D[l, b]), f'(x)[a, b] the same with
        # q2_l sinc_l and cos_l, C = u^dagger f(b), D = u^dagger f'(b): basis[k, (b, a), (s, l)]
        cd = (u.conj().T @ np.stack([f, fp], axis=1)).transpose(0, 3, 1, 2)  # [k, b, s, l]
        basis = (u[:, None, :] * cd[:, :, None]).reshape(nk, n * n, 2 * n)
        with np.errstate(invalid="ignore"):
            np.matmul(basis, nodes[pair], out=out[..., lo:hi])
            state = (basis @ edge[pair]).reshape(nk, n, n, 2)
        f, fp = state[..., 0].swapaxes(1, 2), state[..., 1].swapaxes(1, 2)
        finite = np.isfinite(out[..., lo:hi]).all(axis=(1, 2)) & np.isfinite(state).all(axis=(1, 2, 3))
        if not finite.all():
            raise JostOverflow.at(edges, cells, c, k[np.argmin(finite)])
    wave = _phases(k, x_out)
    for i in range(n):
        out[:, i * (n + 1)] -= wave
    mprime = np.exp(-1j * k * x_out[0])[:, None, None] * (fp - 1j * k[:, None, None] * f)
    return out.reshape(nk, n, n, nx), mprime


def solve_faddeev(potential: PotentialSpec, grid: KXGrid) -> JostTable:
    """Build the Faddeev table on a standard grid pair.

    The near field ``xv`` consists of the grid nodes covering the potential
    support (plus the endpoint node), on which ``m`` differs from the
    identity; beyond it ``f(k, x) = e^{ikx} I`` exactly.  The zero-energy
    wall values come from the same propagation, with ``k = 0`` appended.
    """
    xs = potential.support_radius
    if xs > grid.xmax + 1e-12:
        raise JostError(f"potential support {xs} exceeds the spatial window {grid.xmax}")
    last = min(grid.x.size - 1, int(np.ceil(xs / grid.dx - 1e-9)))
    xv = grid.x[: last + 1]
    scattered, mprime = faddeev_solve(potential, np.append(grid.k, 0.0), xv)
    return JostTable(
        potential=potential,
        k=grid.k.copy(),
        xv=xv,
        scattered=scattered[:-1],
        mprime=mprime[:-1],
        m0=scattered[-1, ..., 0].T + np.eye(potential.n),
        m0prime=mprime[-1],
        grid=grid,
    )


def jost_matrix(jt: JostTable, bp: BoundaryPair) -> JostTable:
    """Attach the Jost matrix ``J(k) = f(-k,0)^dagger B - f'(-k,0)^dagger A``.

    Uses the exact node map ``k -> -k`` of the symmetric grid; no extra
    solves.  Returns a new table with the ``jmatrix`` field filled, after
    :func:`~.boundary.validate_boundary` has checked the pair.
    """
    if bp.n != jt.n:
        raise JostError(f"boundary dimension {bp.n} does not match potential {jt.n}")
    validate_boundary(bp)
    f, fp = jt.wall
    J = f[::-1].conj().swapaxes(-1, -2) @ bp.B - fp[::-1].conj().swapaxes(-1, -2) @ bp.A
    J0 = jt.m0.conj().T @ bp.B - jt.m0prime.conj().T @ bp.A
    u0, sv0, _ = np.linalg.svd(J0)
    zero = sv0 < EXCEPTIONAL_TOL * max(1.0, float(sv0.max()))
    jm = JostMatrix(
        k=jt.k,
        J=J,
        J0=J0,
        min_sv0=float(sv0.min()),
        exceptional=bool(zero.any()),
        zero_modes=u0[:, zero],
        boundary=bp,
    )
    return replace(jt, jmatrix=jm)


def _states_below(
    pot: PotentialSpec, bp: BoundaryPair, kappa: np.ndarray, cot: np.ndarray
) -> np.ndarray:
    """How many bound states lie below ``-kappa^2``, for each ``kappa``.

    The Lagrangian plane of ``(f, f'/sigma)`` is held as the unitary
    ``U = (f + i f'/sigma)(f - i f'/sigma)^{-1}``, which stays bounded where
    ``f`` grows; ``f`` is singular exactly where ``U`` has the eigenvalue -1,
    and there the eigenphases always turn the same way.  Walking the
    decaying solution from ``x_e`` to the wall in steps of
    ``pi / (3 n sigma)``, where ``sigma^2`` bounds ``|kappa^2 + lambda|``
    and each eigenphase turns at most ``2 sigma`` per unit length, the
    unwrapped phase ``Theta`` of ``det U`` counts these points: they are
    the Dirichlet eigenvalues below the energy (oscillation theorem).  The
    wall adds the index of the pair: with ``W = U_b^dagger U`` and ``b_j``
    the eigenphases of ``-U_b^dagger`` (the limit of ``W`` as
    ``kappa -> infinity``), all taken in ``[0, 2 pi)``, the count is
    ``(Theta + n pi + sum b_j - sum phases(W)) / 2 pi``.
    """
    n = pot.n
    edges = np.unique(np.clip(np.append(pot.breaks, 0.0), 0.0, pot.support_radius))
    cells = pot.segment_values(edges)
    k2 = (kappa * kappa)[:, None]
    sig = np.sqrt(np.maximum(k2, np.abs(k2 + np.linalg.eigvalsh(pot.values).ravel())).max(axis=1))[:, None]
    eye = np.eye(n)

    def solve_right(num, den):  # num den^{-1}
        return np.linalg.solve(den.swapaxes(1, 2), num.swapaxes(1, 2)).swapaxes(1, 2)

    u = ((sig - 1j * kappa[:, None]) / (sig + 1j * kappa[:, None]))[..., None] * eye
    phase, det = n * np.angle(u[:, 0, 0]), np.linalg.det(u)
    for c in range(cells.shape[0] - 1, -1, -1):
        lam, w = np.linalg.eigh(cells[c])
        pieces = int(np.ceil(3.0 * n * sig.max() * (edges[c + 1] - edges[c]) / np.pi))
        q2 = -k2 - lam
        cos, sinc = (v[..., 0] for v in _cell_factors(q2, np.array([(edges[c + 1] - edges[c]) / pieces])))
        # in the cell's eigenbasis one piece maps U to (aU + b)(conj(a) - bU)^{-1}
        a = (cos + 0.5j * sinc * (q2 / sig + sig))[..., None]
        b = (0.5j * sinc * (q2 / sig - sig))[..., None]
        beye, aceye = b * eye, a.conj() * eye
        u = w.conj().T @ u @ w
        for _ in range(pieces):
            u = solve_right(a * u + beye, aceye - b * u)
            d = np.linalg.det(u)
            phase, det = phase + np.angle(d / det), d
        u = w @ u @ w.conj().T
    ub = solve_right(bp.A + 1j * bp.B / sig[..., None], bp.A - 1j * bp.B / sig[..., None])
    beta = np.mod(np.angle(np.linalg.eigvals(ub.conj().swapaxes(1, 2) @ u)), 2.0 * np.pi).sum(axis=1)
    # the b_j in closed form, where a Dirichlet channel's 0 cannot round to 2 pi
    limit = (np.pi + 2.0 * np.arctan(cot / sig)).sum(axis=1)
    return np.rint((phase + n * np.pi + limit - beta) / (2.0 * np.pi)).astype(int)


def bound_states(potential: PotentialSpec, bp: BoundaryPair) -> np.ndarray:
    """Bound-state energies ``-kappa^2``, ascending, each repeated
    ``dim Ker J(i kappa)`` times.

    The decaying solutions ``f(i kappa, x) c`` meet the boundary condition
    for some ``c != 0`` exactly where
    ``J(i kappa) = f(i kappa, 0)^dagger B - f'(i kappa, 0)^dagger A`` is
    singular.  The count of bound states below ``-kappa^2`` is exact at any
    ``kappa`` (:func:`_states_below`) and drops by ``dim Ker J(i kappa)`` at
    each root.  Halving ``(0, kappa_max]`` (with a margin) where the count
    drops, down to rounding, finds every root: a double one as one drop of
    two, where ``det J`` touches zero without changing sign, and a state
    behind a barrier, whose wall values turn through ``2 pi`` in a width of
    ``kappa`` that a scan of ``J`` would step over.
    ``kappa_max^2 = max(0, -lambda_min(V)) + max(0, max_j cot theta_j)^2``
    bounds the quadratic form from below.  The zero-energy resonance of the
    exceptional case is not a bound state, nor is a state with ``kappa``
    below ``1e-8 kappa_max``.

    Raises
    ------
    PotentialError
        If the potential is not admissible (:func:`~.potentials.validate_potential`).
    BoundaryError
        If the pair is not admissible (:func:`~.boundary.validate_boundary`).
    JostError
        If the dimensions differ, or the count at ``kappa_max`` is not zero.
    """
    validate_potential(potential)
    if bp.n != potential.n:
        raise JostError(f"boundary dimension {bp.n} does not match potential {potential.n}")
    form = diagonalize_boundary(bp)
    # channels within the snap tolerance of pi/2 and pi are Neumann and
    # Dirichlet, as diagonalize_boundary counts them, rather than a rounded
    # cot of 1e-17 or of +-1e15 (a Dirichlet angle may sit just above pi)
    neumann = np.abs(form.thetas - 0.5 * np.pi) <= ANGLE_SNAP_TOL
    cot = np.where(form.dirichlet, -np.inf, np.where(neumann, 0.0, 1.0 / np.tan(form.thetas)))
    kmax2 = max(0.0, -np.linalg.eigvalsh(potential.values).min()) + max(0.0, cot.max()) ** 2
    if kmax2 == 0.0:
        return np.empty(0)
    top = 1.0625 * np.sqrt(kmax2)  # a root may sit on kappa_max itself
    lo, hi = np.array([1e-8 * top]), np.array([top])
    nlo, nhi = np.split(_states_below(potential, bp, np.append(lo, hi), cot), 2)
    if nhi[0] != 0:
        raise JostError(f"{nhi[0]} bound states counted below the bound -kappa_max^2 = {-kmax2:g}")
    roots = []
    while lo.size:
        mid = 0.5 * (lo + hi)
        # the count falls with kappa: clipped, a rounding flip beside a root cannot split it
        nmid = np.clip(_states_below(potential, bp, mid, cot), nhi, nlo)
        left, right = nmid < nlo, nhi < nmid  # the halves holding a drop
        lo, hi, nlo, nhi = (
            np.concatenate([u[left], v[right]]) for u, v in ((lo, mid), (mid, hi), (nlo, nmid), (nmid, nhi))
        )
        done = hi - lo <= 4.0 * np.spacing(hi)
        roots.append(np.repeat(hi[done], (nlo - nhi)[done]))
        lo, hi, nlo, nhi = (v[~done] for v in (lo, hi, nlo, nhi))
    return np.sort(-np.concatenate(roots) ** 2)


@dataclass(frozen=True)
class KernelTable:
    """Marchenko kernel samples ``K(x, y)`` on the near-field strip.

    Attributes
    ----------
    x : ndarray
        Row nodes (near field, within the potential support), ``grid.x[:len(x)]``.
    y : ndarray
        Column nodes ``grid.x[:len(y)]``, ending at the first node at or past
        twice the support radius (the kernel vanishes for ``x + y > 2 X_V``),
        and at least two of them.
    values : ndarray
        ``K(x, y)``, shape ``(len(x), len(y), n, n)``, exactly 0 for ``y < x``.
        The diagonal node holds half the jump ``K(x, x+)``, so that a
        trapezoid rule over all columns counts only ``y >= x``; the wall row,
        whose column weight is already half, holds all of it.  A view of
        the recursion's ``[x, a, y, b]`` array (``matrix``).
    diagonal : ndarray
        The jump ``K(x, x+) = (1/2) integral_x^inf V``, exact over the cells;
        shape ``(len(x), n, n)``.
    tail_fraction : float
        The relative step-doubling estimate of the node error,
        ``max |K_2h - K_h| / (3 max |K|)`` (the field keeps its old name);
        0 for a zero potential.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    diagonal: np.ndarray
    tail_fraction: float
    n: int

    @cached_property
    def matrix(self) -> np.ndarray:
        """``K`` over the rows ``(x, a)`` and columns ``(y, b)``, a view."""
        return self.values.transpose(0, 2, 1, 3).reshape(self.x.size * self.n, -1)

    @cached_property
    def wy(self) -> np.ndarray:
        return trapezoid_weights(self.y)

    @cached_property
    def wx(self) -> np.ndarray:
        return trapezoid_weights(self.x)

    @cached_property
    def _schur(self) -> tuple[float, float]:
        """Both Schur integrals from one table of spectral norms ``|K(x, y)|``."""
        norms = _spectral_norms(self.values)
        row = (norms * self.wy[None, :]).sum(axis=1).max()
        col = (norms * self.wx[:, None]).sum(axis=0).max()
        return float(row), float(col)

    @property
    def schur_row(self) -> float:
        """sup_x integral |K(x, y)| dy (spectral norms)."""
        return self._schur[0]

    @property
    def schur_col(self) -> float:
        """sup_y integral |K(x, y)| dx (spectral norms)."""
        return self._schur[1]


def _goursat(potential: PotentialSpec, h: float, rows: int, cols: int = 0) -> np.ndarray:
    """The kernel by the diamond recursion on the nodes ``x_i = i h``, laid
    out ``[row, a, col, b]``: shape ``(rows, n, max(cols, 2 rows - 1), n)``,
    holding the whole jump ``K(x, x+)`` on the diagonal and 0 below it.
    ``x_{rows-1}`` must reach the support, so that ``K`` vanishes from ``i +
    j = 2 rows - 2`` on (:func:`marchenko_kernel`)."""
    n = potential.n
    # T and S = integral_s^inf (t - s) V(t) dt, exact at the half nodes s_m = m h/2
    s = 0.5 * h * np.arange(2 * rows + 3)
    T = tail_integral(potential, s)
    a, b = (e - s[:, None] for e in _tail_cells(potential, s))
    S = np.tensordot(0.5 * (b * b - a * a), potential.values, axes=1)
    diamond = S[0:-4:2] - 2.0 * S[2:-2:2] + S[4::2]
    strip = S[0:-4:2] - S[1:-3:2] - S[2:-2:2] + S[3:-1:2]
    # the half strip, its centroid's share of K(i, i+1) taken at a predictor:
    # K(i, i+1) = A_i K(i+1, i+2) + c_i
    half = np.eye(n) + 0.25 * strip
    A = half @ half
    c = half @ (0.5 * (T[1:-3:2] - T[3:-1:2]) + 0.25 * strip @ T[2:-2:2])
    K = np.zeros((rows, n, max(cols, 2 * rows - 1), n), dtype=complex)
    d = np.arange(rows)
    K[d, :, d] = 0.5 * T[0:-3:2]
    for i in range(rows - 2, -1, -1):
        end = 2 * rows - 2 - i
        K[i, :, i + 1] = A[i] @ K[i + 1, :, i + 2] + c[i]
        if end > i + 2:
            out = K[i, :, i + 2 : end]
            np.matmul(diamond[i], K[i + 1, :, i + 2 : end].reshape(n, -1), out=out.reshape(n, -1))
            out += K[i + 1, :, i + 3 : end + 1]
            out += K[i + 1, :, i + 1 : end - 1]
            out -= K[i + 2, :, i + 2 : end]
    return K


def marchenko_kernel(jt: JostTable) -> KernelTable:
    """The Marchenko kernel from its Goursat problem, on the table's nodes.

    ``K`` solves ``K_xx - K_yy = V(x) K`` on ``y > x``, with ``K(x, x+) =
    (1/2) integral_x^inf V`` and ``K = 0`` for ``x + y >= 2 X_V``.  In
    ``u = (x+y)/2``, ``v = (y-x)/2`` that is ``K_uv = -V(u-v) K``, and over
    each diamond of nodes ``(i, j), (i+1, j+-1), (i+2, j)`` on the grid of
    step ``h = dx`` (rows from the support edge down to the wall)

        K(i, j) = K(i+1, j+1) + K(i+1, j-1) - K(i+2, j) + W_{i+1} K(i+1, j),

    with ``W_{i+1}`` the exact integral of ``V`` over the diamond: the
    second difference of ``S(x) = integral_x^inf (t - x) V(t) dt`` about
    ``x_{i+1}``.  The diagonal is exact.  The row ``j = i + 1`` crosses the
    half strip ``0 < v < h/2``: the difference of ``K(x, x+)`` at the half
    nodes, plus the exact integral of ``V`` over the strip times ``K`` at its
    centroid, interpolated from the diagonal, ``K(i+1, i+2)`` and ``K(i,
    i+1)`` itself (taken at a predictor).  Each row is one ``(n x n) @ (n x
    ny n)`` product.  The error is second order in ``dx``, the breaks on or
    off the nodes alike.

    A second pass at ``2 dx`` gives the step-doubling estimate
    ``max |K_2h - K_h| / 3`` on the shared nodes, relative to ``max |K|``;
    it is kept as ``tail_fraction``.  A zero potential returns zeros at once.
    The table keeps the first pass's array as it stands.

    Raises
    ------
    KernelTooCoarse
        If the estimate exceeds ``KERNEL_TOL``: ``dx`` is too coarse.
    """
    grid, nx, n = jt.grid, jt.xv.size, jt.n
    ny = min(grid.x.size, max(2, 2 * nx - 1))
    raw = np.zeros((nx, n, ny, n), dtype=complex)
    estimate = 0.0
    if jt.potential.values.any():
        fine = _goursat(jt.potential, grid.dx, nx, ny)
        coarse = _goursat(jt.potential, 2.0 * grid.dx, nx // 2 + 1)
        shared = fine[::2, :, ::2]
        gap = np.abs(coarse[: shared.shape[0], :, : shared.shape[2]] - shared).max()
        peak = np.abs(fine).max()
        estimate = float(gap / (3.0 * peak)) if peak > 0 else 0.0
        if estimate > KERNEL_TOL:
            raise KernelTooCoarse(grid.dx, estimate)
        raw = np.ascontiguousarray(fine[:, :, :ny])  # a copy only if the window cuts the kernel
    inner = np.arange(nx)
    diagonal = raw[inner, :, inner]
    raw[inner[1:], :, inner[1:]] *= 0.5  # half the jump, off the wall row
    values = raw.transpose(0, 2, 1, 3)
    return KernelTable(x=jt.xv, y=grid.x[:ny], values=values, diagonal=diagonal, tail_fraction=estimate, n=n)
