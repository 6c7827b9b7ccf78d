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
* the Marchenko kernel ``K(x, y)``, the Fourier synthesis of ``m - I``,
  entering the representation
  ``f(k, x) = e^{ikx} I + integral_x^inf K(x, y) e^{iky} dy``.

The table keeps ``m`` on the near field, which the kernel and the Fourier
maps read, and ``m'`` at the wall only: the Jost matrix, ``S`` and the
boundary values of the physical solutions need ``f`` and ``f'`` nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .boundary import BoundaryPair, validate_boundary
from .grids import KXGrid, fourier_sum, trapezoid_weights
from .potentials import PotentialSpec, _spectral_norms, tail_integral, validate_potential

EXCEPTIONAL_TOL = 1e-6
#: largest edge-to-peak fraction of the Born-subtracted kernel integrand
TAIL_TOL = 5e-3
#: kernel columns reach this far past twice the support radius
Y_MARGIN = 0.5


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


class TailNotNegligible(JostError):
    """The momentum window is too small for the kernel synthesis."""


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
    """Faddeev function table on the momentum grid and near field, with the
    wall values of its derivative.

    Attributes
    ----------
    k : ndarray
        Momentum nodes (symmetric, never containing 0).
    xv : ndarray
        Near-field spatial nodes covering the potential support, from the
        wall ``xv[0] = 0``.
    m : ndarray
        ``m(k, x)``, shape ``(len(k), len(xv), n, n)``.
    mprime : ndarray
        ``m'(k, 0)``, shape ``(len(k), n, n)``.
    m0, m0prime : ndarray
        ``m(0, 0)`` and ``m'(0, 0)``, each of shape ``(n, n)``.
    """

    potential: PotentialSpec
    k: np.ndarray
    xv: np.ndarray
    m: np.ndarray
    mprime: np.ndarray
    m0: np.ndarray
    m0prime: np.ndarray
    grid: KXGrid
    jmatrix: JostMatrix | None = None

    @property
    def n(self) -> int:
        return self.potential.n

    @property
    def support_radius(self) -> float:
        return float(self.xv[-1])

    @property
    def wall(self) -> tuple[np.ndarray, np.ndarray]:
        """``f(k, 0) = m(k, 0)`` and ``f'(k, 0) = ik m(k, 0) + m'(k, 0)``, each
        of shape ``(len(k), n, n)``; ``k[::-1] == -k``, so reversed rows give
        ``f(-k, 0)`` and ``f'(-k, 0)``."""
        f = self.m[:, 0]
        return f, 1j * self.k[:, None, None] * f + self.mprime


def _cell_factors(q2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos(qs)`` and ``sin(qs)/q`` for real ``q^2`` of shape ``(nk, n)`` at
    offsets ``s``, each of shape ``(nk, n, len(s))``.

    Both are even in ``q``: for ``q^2 < 0`` they are ``cosh(|q|s)`` and
    ``sinh(|q|s)/|q|``, and at ``q = 0`` they are ``1`` and ``s``.  They may
    overflow to ``inf`` in an opaque barrier.
    """
    q = np.sqrt(np.abs(q2))[..., None]
    qs = q * s
    osc = np.broadcast_to((q2 >= 0)[..., None], qs.shape)
    cos, sinc = np.empty_like(qs), np.empty_like(qs)
    with np.errstate(over="ignore"):
        np.cos(qs, out=cos, where=osc)
        np.cosh(qs, out=cos, where=~osc)
        np.sin(qs, out=sinc, where=osc)
        np.sinh(qs, out=sinc, where=~osc)
    np.divide(sinc, q, out=sinc, where=q > 0)
    np.copyto(sinc, s, where=q == 0)
    return cos, sinc


def faddeev_solve(
    potential: PotentialSpec,
    k: np.ndarray,
    x_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the Jost solution across the cells and return ``m`` on the
    output nodes and ``m'`` at the first of them.

    Starting from ``f = e^{ikx} I``, ``f' = ik f`` at ``x_out[-1]``, each
    cell ``[a, b]`` (walked right to left) is crossed in the eigenbasis
    ``V = U diag(lambda) U^dagger`` of its matrix, where ``q^2 = k^2 - lambda``
    and, with ``s = b - x``,

        f(x)  = U [cos(qs) U^dagger f(b) - (sin(qs)/q) U^dagger f'(b)],
        f'(x) = U [q sin(qs) U^dagger f(b) + cos(qs) U^dagger f'(b)].

    These factors are even in ``q`` and finite at ``q = 0``, so ``k = 0``
    and ``k^2 = lambda`` take the same formula.  Every output node is evaluated from its own cell's
    right edge, so round-off does not accumulate node by node.

    Parameters
    ----------
    k : ndarray
        Momentum values (``k = 0`` allowed).
    x_out : ndarray
        Ascending output nodes; the last node must sit at or beyond the
        potential support.

    Returns
    -------
    (m, mprime)
        ``m = e^{-ikx} f`` on ``x_out``, shape ``(len(k), len(x_out), n, n)``,
        and ``m' = e^{-ikx} f' - ik m`` at ``x_out[0]``, shape
        ``(len(k), n, n)``, from the state the propagation holds after its
        last cell.

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
    eye = np.eye(n, dtype=complex)

    if potential.support_radius > x_out[-1] + 1e-12:
        raise JostError(
            f"output window ends at {x_out[-1]} but the potential reaches "
            f"{potential.support_radius}; the tail integral would be truncated"
        )

    if nx == 1 or potential.support_radius <= x_out[0]:
        # no potential to the right of the output window: m == I
        m = np.broadcast_to(eye, (nk, nx, n, n)).copy()
        return m, np.zeros((nk, n, n), dtype=complex)

    xe = x_out[-1]
    inner = potential.breaks[(potential.breaks > x_out[0]) & (potential.breaks < xe)]
    edges = np.concatenate([[x_out[0]], inner, [xe]])
    cells = potential.segment_values(edges)
    owner = np.clip(np.searchsorted(edges, x_out, side="right") - 1, 0, cells.shape[0] - 1)

    f = np.exp(1j * k * xe)[:, None, None] * eye  # state at the current right edge
    fp = 1j * k[:, None, None] * f
    m_out = np.empty((nk, nx, n * n), dtype=complex)
    for c in range(cells.shape[0] - 1, -1, -1):
        a, b = edges[c], edges[c + 1]
        lam, u = np.linalg.eigh(cells[c])
        lo, hi = np.searchsorted(owner, (c, c + 1))
        s = b - np.append(x_out[lo:hi], a)  # the cell's output nodes, then its left edge
        q2 = (k * k)[:, None] - lam  # (nk, n)
        cos, sinc = _cell_factors(q2, s)
        # f(x) = sum over channels l of cos_l A_l - sinc_l B_l and
        # f'(x) = sum of q2_l sinc_l A_l + cos_l B_l, where
        # A_l = u[:, l] (u^dagger f(b))[l, :] and B_l is the same for f'(b)
        basis = u.T[None, :, :, None] * (u.conj().T @ np.stack([f, fp], axis=1))[:, :, :, None, :]
        basis = basis.reshape(nk, 2 * n, n * n)
        fcoef = np.concatenate([cos, -sinc], axis=1).swapaxes(1, 2)  # (nk, ns + 1, 2n)
        fpcoef = np.concatenate([q2 * sinc[..., -1], cos[..., -1]], axis=1)[:, None]  # left edge
        phase = np.exp(-1j * np.outer(k, x_out[lo:hi]))[..., None]
        mc = m_out[:, lo:hi]
        with np.errstate(invalid="ignore"):
            np.matmul(phase * fcoef[:, :-1], basis, out=mc)
            f = (fcoef[:, -1:] @ basis).reshape(nk, n, n)
            fp = (fpcoef @ basis).reshape(nk, n, n)
        if not all(np.isfinite(t).all() for t in (mc, f, fp)):
            finite = [np.isfinite(t.reshape(nk, -1)).all(axis=1) for t in (mc, f, fp)]
            raise JostOverflow.at(edges, cells, c, k[np.argmin(np.logical_and.reduce(finite))])
    mprime = np.exp(-1j * k * x_out[0])[:, None, None] * (fp - 1j * k[:, None, None] * f)
    return m_out.reshape(nk, nx, n, n), mprime


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
    m, mprime = faddeev_solve(potential, np.append(grid.k, 0.0), xv)
    return JostTable(
        potential=potential,
        k=grid.k.copy(),
        xv=xv,
        m=m[:-1],
        mprime=mprime[:-1],
        m0=m[-1, 0],
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


@dataclass(frozen=True)
class KernelTable:
    """Marchenko kernel samples ``K(x, y)`` on the near-field strip.

    Attributes
    ----------
    x : ndarray
        Row nodes (near field, within the potential support).
    y : ndarray
        Column nodes, reaching past twice the support radius.
    raw : ndarray
        Bare band-limited synthesis, shape ``(len(x), len(y), n, n)`` (keeps
        the smeared sub-diagonal mass of the jump at ``y = x``); integrates
        exactly against band-limited fields, so all operator applications
        use it.  The contract form ``values`` is derived from it.
    diagonal : ndarray
        The jump ``K(x, x+) = (1/2) integral_x^inf V``, exact over the cells;
        shape ``(len(x), n, n)``.
    tail_fraction : float
        Edge-to-peak fraction of the (first-Born-subtracted) synthesis
        integrand; a large value means the momentum window was too small.
    """

    x: np.ndarray
    y: np.ndarray
    raw: np.ndarray
    diagonal: np.ndarray
    tail_fraction: float
    n: int

    @property
    def _below(self) -> np.ndarray:
        """Where ``y < x``, outside the kernel's support; shape ``(len(x), len(y))``."""
        return self.y[None, :] < self.x[:, None] - 1e-12

    @cached_property
    def values(self) -> np.ndarray:
        """Contract form: ``raw`` with ``K(x, y) = 0`` enforced for ``y < x``."""
        values = self.raw.copy()
        values[self._below] = 0.0
        return values

    @cached_property
    def wy(self) -> np.ndarray:
        return trapezoid_weights(self.y)

    @cached_property
    def wx(self) -> np.ndarray:
        return trapezoid_weights(self.x)

    @cached_property
    def _schur(self) -> tuple[float, float]:
        """Both Schur integrals from one table of spectral norms ``|K(x, y)|``
        of the supported values."""
        # row-major, so that each row's integral is a pairwise sum in memory
        norms = np.ascontiguousarray(_spectral_norms(self.raw))
        norms[self._below] = 0.0
        row = (norms * self.wy[None, :]).sum(axis=1).max()
        col = (norms * self.wx[:, None]).sum(axis=0).max()
        return float(row), float(col)

    @property
    def schur_row(self) -> float:
        """sup_x integral |K(x, y)| dy (spectral norms, supported values)."""
        return self._schur[0]

    @property
    def schur_col(self) -> float:
        """sup_y integral |K(x, y)| dx (spectral norms, supported values)."""
        return self._schur[1]


def born_term(potential: PotentialSpec, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First Born approximation ``integral_x^inf D_k(y-x) V(y) dy`` in closed
    form over the cells; shape ``(len(k), len(x), n, n)``.

    This carries the entire ``O(1/k)`` tail of ``m - I`` and is subtracted
    when judging whether the momentum window covers the nonlinear remainder.
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    n = potential.n
    out = np.zeros((k.size, x.size, n, n), dtype=complex)
    twoik = 2j * k[:, None]
    for a, b, v in zip(potential.breaks[:-1], potential.breaks[1:], potential.values):
        if not np.any(v):
            continue
        lo = np.maximum(a, x)[None, :]
        hi = np.maximum(b, x)[None, :]
        length = np.clip(hi - lo, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            osc = (np.exp(twoik * (hi - x[None, :])) - np.exp(twoik * (lo - x[None, :]))) / twoik
            weight = (osc - length) / twoik
        zero = k == 0.0
        if zero.any():
            # D_0(s) = s: integral of (y - x) over the clipped cell
            deg = 0.5 * ((hi - x[None, :]) ** 2 - (lo - x[None, :]) ** 2)
            weight[zero] = deg[0]
        out += weight[:, :, None, None] * v[None, None]
    return out


def _largest_norm(mats: np.ndarray) -> float:
    """Largest spectral norm in a stack of ``n x n`` matrices: only those whose
    Frobenius norm (at most ``sqrt(n)`` times the spectral norm) reaches
    ``1/sqrt(n)`` of the largest can hold it, and only their norms are
    taken.  The margin absorbs the rounding of both norms."""
    fro = np.linalg.norm(mats, axis=(-2, -1))
    top = mats[fro >= fro.max() / np.sqrt(mats.shape[-1]) * (1.0 - 1e-12)]
    return float(_spectral_norms(top).max())


def marchenko_kernel(jt: JostTable) -> KernelTable:
    """Synthesize the Marchenko kernel from the Faddeev table.

    ``K(x, y) = (1/2pi) integral e^{ik(x-y)} (m(k, x) - I) dk`` with the
    grid's smooth taper; columns cover ``[0, 2 X_V + Y_MARGIN]`` (the kernel is
    supported in ``x + y <= 2 X_V``).

    Raises
    ------
    TailNotNegligible
        If the Born-subtracted integrand at the window edge exceeds
        ``TAIL_TOL`` of its peak: the nonlinear part of ``m - I`` has not
        decayed inside the momentum window.
    """
    grid = jt.grid
    k, xv, n = jt.k, jt.xv, jt.n
    ymax = min(2.0 * jt.support_radius + Y_MARGIN, grid.xmax)
    y = grid.x[grid.x <= ymax + 1e-12]
    taper = grid.taper

    g = jt.m - np.eye(n)  # (Nk, Nx, n, n)
    # window check on the Born-subtracted remainder
    remainder = g - born_term(jt.potential, k, xv)
    peak = _largest_norm(remainder)
    edge = _largest_norm(remainder[np.abs(k) >= 0.9 * grid.kmax])
    tail_fraction = edge / peak if peak > 0 else 0.0
    if tail_fraction > TAIL_TOL:
        raise TailNotNegligible(
            f"kernel integrand edge fraction {tail_fraction:.2e} exceeds {TAIL_TOL:.1e}; "
            "increase the momentum window"
        )

    gt = g * taper[:, None, None, None]
    h = gt * np.exp(1j * np.outer(k, xv))[:, :, None, None]
    raw = (grid.dk / (2.0 * np.pi)) * fourier_sum(h, k[0], grid.dk, y, -1).swapaxes(0, 1)

    return KernelTable(
        x=xv,
        y=y,
        raw=raw,
        diagonal=0.5 * tail_integral(jt.potential, xv),
        tail_fraction=tail_fraction,
        n=n,
    )
