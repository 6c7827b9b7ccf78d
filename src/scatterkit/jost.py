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

The table keeps the Jost solution on the near field as its cell factors
(:class:`NearField`): per distinct ``|k|``, channel and node the real
``cos(qs)`` and ``-sin(qs)/q``, per momentum and cell the coefficients
``u^dagger f`` and ``u^dagger f'`` at the cell's right edge, and per cell its
basis ``u``; ``m`` is formed only on read.  It keeps ``m'`` at the wall
only; the kernel keeps its recursion's layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .boundary import ANGLE_SNAP_TOL, BoundaryPair, diagonalize_boundary, predicted_s_infinity
from .grids import KXGrid, _phases, trapezoid_weights
from .potentials import (
    PotentialSpec,
    _matmul,
    _singular_values,
    _solve_right,
    _spectral_norms,
    _tail_cells,
    tail_integral,
    validate_potential,
)

EXCEPTIONAL_TOL = 1e-6
#: largest step-doubling estimate of the kernel's node error, relative to
#: its largest entry
KERNEL_TOL = 1e-3
#: complex entries per block of a cell's factors in the Jost solve (rows of
#: distinct ``|k|`` times channels times nodes), which bounds its
#: temporaries to a fraction of the factor table
_FACTOR_BLOCK = 1 << 14


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
    boundary : BoundaryPair
        The pair ``(A, B)``.
    S_infinity : ndarray
        The high-energy limit of ``S``, which depends on the pair alone:
        ``predicted_s_infinity`` of its one diagonalization.
    """

    k: np.ndarray
    J: np.ndarray
    J0: np.ndarray
    min_sv0: float
    exceptional: bool
    zero_modes: np.ndarray
    boundary: BoundaryPair
    S_infinity: np.ndarray

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of each ``J(k)``, descending, shape ``(len(k), n)``,
        read by ``smatrix`` and ``min_sv``: in closed form for ``n <= 2``, one
        SVD of the stack otherwise (see ``potentials._singular_values``)."""
        return _singular_values(self.J)

    @property
    def min_sv(self) -> float:
        """Smallest singular value of ``J`` over the grid."""
        return float(self.sv.min())


@dataclass(frozen=True)
class NearField:
    """The Jost solution on a set of nodes, kept as its cell factors.

    On the nodes ``x[bounds[c] : bounds[c + 1]]`` of cell ``c``, whose
    matrix is ``V = u diag(lambda) u^dagger`` with ``u = basis[c]``, with
    ``q^2 = k^2 - lambda``, ``s = b - x`` and ``b`` the cell's right edge,

        f(k, x) = u [cos(qs) C(k) - (sin(qs)/q) D(k)],
        C = u^dagger f(k, b),  D = u^dagger f'(k, b).

    Attributes
    ----------
    k : ndarray
        Momenta, shape ``(nk,)``.
    x : ndarray
        Ascending nodes, shape ``(nx,)``.
    bounds : ndarray
        The first node of each cell and the node count, shape ``(ncell + 1,)``.
    basis : ndarray
        Each cell's ``u``, shape ``(ncell, n, n)``.
    waves : ndarray
        The real factors ``cos(qs)`` and ``-sin(qs)/q`` of channel ``l`` at
        the ``p``-th distinct ``|k|``, at ``[l, p, 0, j]`` and ``[l, p, 1,
        j]`` for node ``j`` (``s`` and ``lambda`` from the node's cell),
        shape ``(n, len(distinct |k|), 2, nx)``.
    pair : ndarray
        The row ``p`` of ``waves`` read by each momentum, shape ``(nk,)``.
    coeffs : ndarray
        ``C`` and ``D``, entry ``[l, b]`` of cell ``c`` and momentum
        ``k[i]`` at ``[c, l, 0, b, i]`` and ``[c, l, 1, b, i]``, shape
        ``(ncell, n, 2, n, nk)``: the momenta run along the contiguous axis.
    wall : ndarray
        ``f(k, x[0])``, shape ``(nk, n, n)``: the propagation's final state.

    The table-grid maps of :mod:`~.spectral` take the whole of ``f`` on the
    nodes before the last and plane waves from ``x[-1]`` on (:meth:`start`).
    :meth:`analysis` and :meth:`synthesis` split the momenta by sign, so
    they need momenta closed under ``k -> -k``, ``k[::-1] == -k``, as the
    table's are.
    """

    k: np.ndarray
    x: np.ndarray
    bounds: np.ndarray
    basis: np.ndarray
    waves: np.ndarray
    pair: np.ndarray
    coeffs: np.ndarray
    wall: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[-1]

    @property
    def start(self) -> int:
        """The number of nodes before the last, the index of the first node
        of the maps' plane sums."""
        return self.x.size - 1

    @property
    def vanishes(self) -> bool:
        """Whether the nodes are the wall alone (a zero potential), so that
        there is no near-field sum."""
        return self.start == 0

    def weighted(self, Ynear: np.ndarray) -> np.ndarray:
        """The conjugate of the trapezoid-weighted field on the nodes before
        the last, from the field on ``x``: the ``Yc`` of :meth:`sums`."""
        return np.conj(Ynear[: self.start] * trapezoid_weights(self.x)[: self.start, None])

    def cells(self, nodes: int) -> list[tuple[int, int, int]]:
        """``(c, lo, hi)`` for each cell holding some of the first ``nodes``
        nodes, ``x[lo:hi]``."""
        hi = np.minimum(self.bounds[1:], nodes)
        return [(c, lo, h) for c, (lo, h) in enumerate(zip(self.bounds[:-1], hi)) if lo < h]

    def f(self, rows: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """``f(k, x)`` at the momenta ``k[rows]`` on every node, shape
        ``(len(k[rows]), nx, n, n)``, written into ``out`` if given: per
        cell one real product of each momentum's factors, ``(nodes, 2n)``,
        with its coefficients turned out of the cell's basis, ``(2n, n^2)``."""
        p = self.pair[rows]
        n = self.n
        if out is None:
            out = np.empty((p.size, self.x.size, n, n), dtype=complex)
        waves = self.waves.transpose(1, 3, 0, 2)  # [p, x, l, s]
        for c, lo, hi in self.cells(self.x.size):
            w = waves[p, lo:hi].reshape(p.size, hi - lo, 2 * n)
            G = np.einsum("al,lsbp->plsab", self.basis[c], self.coeffs[c][..., rows], order="C")
            G = G.reshape(p.size, 2 * n, -1)
            np.matmul(w, G.view(float), out=out[:, lo:hi].reshape(p.size, hi - lo, -1).view(float))
        return out

    def sums(self, Yc: np.ndarray) -> np.ndarray:
        """``sum_x f(k, x)^T Yc(x)`` over the first ``len(Yc)`` nodes, shape
        ``(nk, n)``.

        Per cell the field is turned into the cell's basis and contracted
        with the factors of every ``|k|``, one real product per channel; the
        coefficients then combine the ``2 n`` results of each cell per
        momentum.
        """
        n, ncell, P = self.n, self.basis.shape[0], self.waves.shape[1]
        waves = self.waves.reshape(n, 2 * P, -1)
        T = np.zeros((ncell, n, 2, P), dtype=complex)
        for c, lo, hi in self.cells(Yc.shape[0]):
            Yr = self.basis[c].T @ Yc[lo:hi].T  # (n, nodes): sum_a u[a, l] Yc[x, a]
            part = np.matmul(waves[..., lo:hi], Yr.view(float).reshape(n, hi - lo, 2))
            T[c] = part.view(complex).reshape(n, P, 2).transpose(0, 2, 1)
        cd = self.coeffs.reshape(ncell * n * 2, n, -1)
        return (np.take(T.reshape(ncell * n * 2, 1, P), self.pair, axis=2) * cd).sum(axis=0).T

    def spread(self, E: np.ndarray, nodes: int) -> np.ndarray:
        """``sum_p`` of the factors of the ``p``-th distinct ``|k|`` times
        ``E[:, c, l, s, p]``, turned back out of each cell's basis, on the
        first ``nodes`` nodes, shape ``(rows, nodes, n)``.

        With ``E[r, c, l, s, p]`` the sum of ``(C, D)[s][l, b] V[r, q, b]``
        over the momenta ``q`` of the ``p``-th ``|k|``, this is ``sum_q f(q,
        x) V[r, q]``; it is the exact transpose of :meth:`sums`.
        """
        rows, n, P = E.shape[0], self.n, E.shape[-1]
        waves = self.waves[:, :P].reshape(n, 2 * P, -1)
        out = np.empty((rows, nodes, n), dtype=complex)
        for c, lo, hi in self.cells(nodes):
            A = np.ascontiguousarray(E[:, c].transpose(1, 3, 2, 0)).view(float).reshape(n, 2 * P, 2 * rows)
            part = np.matmul(waves[..., lo:hi].transpose(0, 2, 1), A).view(complex)  # (n, nodes, rows)
            out[:, lo:hi] = np.einsum("al,lxr->rxa", self.basis[c], part)
        return out

    def analysis(self, Ynear: np.ndarray, sums: np.ndarray | None = None) -> list[np.ndarray]:
        """``sum_x w(x) f(+-k, x)^T conj(Y(x))`` over the nodes before the
        last at the positive momenta ``k``, each ``(nk / 2, n)``: the
        :meth:`sums` of the field on ``x`` (``sums`` if given), split by
        sign (momenta closed under ``k -> -k``)."""
        R = self.sums(self.weighted(Ynear)) if sums is None else sums
        npos = self.k.size // 2
        return [R[npos:], R[npos - 1 :: -1]]

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_k f(k, x) Z(k) + f(-k, x) Zm(k)`` over the first ``J``
        positive momenta ``k`` on the nodes before the last, for each row of
        ``Z`` and ``Zm`` (shape ``(rows, J, n)``), shape ``(rows, nodes,
        n)``: the coefficients of ``+-k`` (momenta closed under ``k -> -k``)
        folded onto ``|k|``, then one :meth:`spread`."""
        rows, J, n = Z.shape
        npos = self.k.size // 2
        cd = self.coeffs.reshape(-1, n, self.k.size)[None]
        pos, neg = cd[..., npos : npos + J], cd[..., npos - J : npos][..., ::-1]
        # E[r, (c, l, s), p]
        E = (pos * Z.transpose(0, 2, 1)[:, None]).sum(axis=2)
        E += (neg * Zm.transpose(0, 2, 1)[:, None]).sum(axis=2)
        return self.spread(E.reshape((rows,) + self.coeffs.shape[:3] + (J,)), self.start)


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
    near : NearField
        ``f(k, x)`` on ``xv`` as its cell factors, whose rows of distinct
        ``|k|`` are the positive momenta ``k[len(k) // 2 :]`` in order:
        ``m`` and the Fourier maps' near-field products read it.
    mprime : ndarray
        ``m'(k, 0)``, shape ``(len(k), n, n)``.
    m0, m0prime : ndarray
        ``m(0, 0)`` and ``m'(0, 0)``, each of shape ``(n, n)``.
    """

    potential: PotentialSpec
    k: np.ndarray
    xv: np.ndarray
    near: NearField
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
        """``m(k, x) = e^{-ikx} f(k, x)``, shape ``(len(k), len(xv), n, n)``,
        formed from the cell factors on each read, 64 momenta at a time."""
        m = np.empty((self.k.size, self.xv.size, self.n, self.n), dtype=complex)
        for lo in range(0, self.k.size, 64):
            block = self.near.f(slice(lo, lo + 64), out=m[lo : lo + 64])
            block *= _phases(-self.k[lo : lo + 64], self.xv)[:, :, None, None]
        return m

    @property
    def wall(self) -> tuple[np.ndarray, np.ndarray]:
        """``f(k, 0) = m(k, 0)`` and ``f'(k, 0) = ik m(k, 0) + m'(k, 0)``, each
        of shape ``(len(k), n, n)``; ``k[::-1] == -k``, so reversed rows give
        ``f(-k, 0)`` and ``f'(-k, 0)``."""
        f = self.near.wall
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
) -> tuple[NearField, np.ndarray]:
    """Propagate the Jost solution across the cells and return it on the
    output nodes as its cell factors, and ``m'`` at the first of them.

    Starting from ``f = e^{ikx} I``, ``f' = ik f`` at ``x_out[-1]``, each
    cell ``[a, b]`` (walked right to left) is crossed in the eigenbasis
    ``V = U diag(lambda) U^dagger`` of its matrix, where ``q^2 = k^2 - lambda``
    and, with ``s = b - x``,

        f(x)  = U [cos(qs) U^dagger f(b) - (sin(qs)/q) U^dagger f'(b)],
        f'(x) = U [q sin(qs) U^dagger f(b) + cos(qs) U^dagger f'(b)].

    These factors are even in ``q`` and finite at ``q = 0``, so ``k = 0``
    and ``k^2 = lambda`` take the same formula; they are evaluated once per
    distinct ``|k|``, and on the cell's nodes they are kept as they are,
    with ``U^dagger f(b)`` and ``U^dagger f'(b)`` (:class:`NearField`): no
    node's ``f`` is formed.  Every output node is read from its own cell's
    right edge, so round-off does not accumulate node by node.  In the
    oscillating channels ``cos(qs)`` and ``sin(qs)`` come from
    :func:`~.grids._phases`, two short exponential tables per ``|k|`` on
    uniform nodes, a block of ``_FACTOR_BLOCK`` entries at a time; the evanescent
    channels and the cell's left edge take ``cosh``, ``sinh`` and the
    exponentials directly.  Without potential right of ``x_out[0]`` the one
    cell, of zero width on one node, carries ``f = e^{ikx} I``.

    Parameters
    ----------
    k : ndarray
        Momentum values (``k = 0`` allowed, in any order).
    x_out : ndarray
        Ascending output nodes; the last node must sit at or beyond the
        potential support.

    Returns
    -------
    (near, mprime)
        ``f`` on ``x_out`` as a :class:`NearField`, with its value at
        ``x_out[0]``, and ``m' = e^{-ikx} f' - ik m`` there, shape
        ``(len(k), n, n)``, both from the propagation's final state.

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

    xe = x_out[-1]
    inner = potential.breaks[(potential.breaks > x_out[0]) & (potential.breaks < xe)]
    edges = np.concatenate([[x_out[0]], inner, [xe]])
    cells = potential.segment_values(edges)
    ncell = cells.shape[0]
    owner = np.clip(np.searchsorted(edges, x_out, side="right") - 1, 0, ncell - 1)
    bounds = np.searchsorted(owner, np.arange(ncell + 1))
    absk, pair = np.unique(np.abs(k), return_inverse=True)

    basis = np.empty((ncell, n, n), dtype=complex)
    waves = np.empty((n, absk.size, 2, nx))
    coeffs = np.empty((ncell, n, 2, n, nk), dtype=complex)
    # the state at the current right edge, f[a, b, k] and f'[a, b, k]
    f = np.exp(1j * k * xe) * np.eye(n)[..., None]
    fp = 1j * k * f
    for c in range(ncell - 1, -1, -1):
        a, b = edges[c], edges[c + 1]
        lam, u = np.linalg.eigh(cells[c])
        lo, hi = bounds[c], bounds[c + 1]
        q2 = (absk * absk)[:, None] - lam  # (len(absk), n)
        step = max(1, _FACTOR_BLOCK // (n * (hi - lo)))
        for r in range(0, absk.size, step):
            p = slice(r, r + step)
            cos, sinc = _cell_factors(q2[p], b - x_out[lo:hi][::-1])
            waves[:, p, 0, lo:hi] = cos[..., ::-1].transpose(1, 0, 2)
            np.negative(sinc[..., ::-1].transpose(1, 0, 2), out=waves[:, p, 1, lo:hi])
            del cos, sinc  # freed before the next block is formed
        basis[c] = u
        C = coeffs[c, :, 0] = (u.conj().T @ f.reshape(n, -1)).reshape(n, n, nk)  # [l, b, k]
        D = coeffs[c, :, 1] = (u.conj().T @ fp.reshape(n, -1)).reshape(n, n, nk)
        cos, sinc = (v[..., 0].T[:, None, pair] for v in _cell_factors(q2, np.array([b - a])))
        with np.errstate(invalid="ignore", over="ignore"):
            f = (u @ (cos * C - sinc * D).reshape(n, -1)).reshape(n, n, nk)
            fp = (u @ (q2.T[:, None, pair] * sinc * C + cos * D).reshape(n, -1)).reshape(n, n, nk)
        finite = np.isfinite(waves[..., lo:hi]).all(axis=(0, 2, 3))[pair]
        finite &= np.isfinite(f).all(axis=(0, 1)) & np.isfinite(fp).all(axis=(0, 1))
        if not finite.all():
            raise JostOverflow.at(edges, cells, c, k[np.argmin(finite)])
    mprime = np.exp(-1j * k * x_out[0]) * (fp - 1j * k * f)
    wall, mprime = (np.ascontiguousarray(v.transpose(2, 0, 1)) for v in (f, mprime))
    return NearField(k, x_out, bounds, basis, waves, pair, coeffs, wall), mprime


def solve_faddeev(potential: PotentialSpec, grid: KXGrid) -> JostTable:
    """Build the Faddeev table on a standard grid pair.

    The near field ``xv`` consists of the grid nodes covering the potential
    support (plus the endpoint node), on which ``m`` differs from the
    identity; beyond it ``f(k, x) = e^{ikx} I`` exactly.  The zero-energy
    wall values come from the same propagation, with ``k = 0`` appended;
    its row of factors, the first, is dropped from the table's.  Without
    potential the near field is the wall alone, where the factors of every
    ``|k|`` are ``(1, 0)`` and ``f = I``: the table is written down.
    """
    xs = potential.support_radius
    if xs > grid.xmax + 1e-12:
        raise JostError(f"potential support {xs} exceeds the spatial window {grid.xmax}")
    last = min(grid.x.size - 1, int(np.ceil(xs / grid.dx - 1e-9)))
    xv = grid.x[: last + 1]
    if xv.size == 1:
        validate_potential(potential)
        n, k = potential.n, grid.k.copy()
        waves = np.zeros((n, grid.npos, 2, 1))
        waves[:, :, 0] = 1.0
        pair = np.concatenate([np.arange(grid.npos)[::-1], np.arange(grid.npos)])
        eye = np.eye(n, dtype=complex)
        coeffs = np.zeros((1, n, 2, n, k.size), dtype=complex)
        coeffs[0, :, 0], coeffs[0, :, 1] = eye[..., None], 1j * k * eye[..., None]
        zero = np.zeros((k.size, n, n), dtype=complex)
        wall = np.broadcast_to(eye, zero.shape)
        near = NearField(k, xv, np.array([0, 1]), eye[None], waves, pair, coeffs, wall)
        return JostTable(potential, k, xv, near, mprime=zero, m0=eye, m0prime=0.0 * eye, grid=grid)
    near, mprime = faddeev_solve(potential, np.append(grid.k, 0.0), xv)
    table = replace(
        near,
        k=near.k[:-1],
        waves=near.waves[:, 1:],
        pair=near.pair[:-1] - 1,
        coeffs=near.coeffs[..., :-1],
        wall=near.wall[:-1],
    )
    return JostTable(
        potential=potential,
        k=grid.k.copy(),
        xv=xv,
        near=table,
        mprime=mprime[:-1],
        m0=near.wall[-1],
        m0prime=mprime[-1],
        grid=grid,
    )


def jost_matrix(jt: JostTable, bp: BoundaryPair) -> JostTable:
    """Attach the Jost matrix ``J(k) = f(-k,0)^dagger B - f'(-k,0)^dagger A``.

    Uses the exact node map ``k -> -k`` of the symmetric grid; no extra
    solves.  Returns a new table with the ``jmatrix`` field filled, after
    :func:`~.boundary.diagonalize_boundary` has checked the pair; its normal
    form gives ``S_infinity``.
    """
    if bp.n != jt.n:
        raise JostError(f"boundary dimension {bp.n} does not match potential {jt.n}")
    form = diagonalize_boundary(bp)
    f, fp = jt.wall
    J = _matmul(f[::-1].conj().swapaxes(-1, -2), bp.B) - _matmul(fp[::-1].conj().swapaxes(-1, -2), bp.A)
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
        S_infinity=predicted_s_infinity(form),
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
            u = _solve_right(a * u + beye, aceye - b * u)
            d = np.linalg.det(u)
            phase, det = phase + np.angle(d / det), d
        u = w @ u @ w.conj().T
    ub = _solve_right(bp.A + 1j * bp.B / sig[..., None], bp.A - 1j * bp.B / sig[..., None])
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
