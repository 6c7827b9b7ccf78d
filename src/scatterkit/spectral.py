"""Physical solutions, generalized Fourier maps, and time evolution.

The physical solution ``Psi(k, x) = f(-k, x) + f(k, x) S(k)`` combines the
two Jost solutions through the scattering matrix.  Only its wall values are
stored, for the boundary condition; the maps read it through the Faddeev
factor ``m`` on the near field and ``S``, since beyond the potential's
support it is an exact plane-wave combination.  Every generalized Fourier
map, forward (analysis) or adjoint (synthesis), is evaluated by one kernel,
``Psi(-sign*k, x)^dagger``: two plane-wave sums over the whole window plus a
near-field correction.  The kernel runs on the table's positive momentum
nodes or on a dense momentum grid for time evolution, which conjugates the
multiplier ``e^{-itk^2}`` by the maps: fixed grids cannot resolve the
quadratic phase once ``2 t k`` outruns the node spacing, so the dense grid is
sized from a phase-resolution budget.

On the table grid, which is closed under ``k -> -k``, the near-field
correction of both Faddeev factors is one product with a matrix of
``e^{ikx} (m(k, x) - I)`` over the whole grid, built once per table.  On the
dense grid the near-field sums read ``m`` through the cubic pieces of its
spline in momentum (it is smooth in momentum), block by block: each piece's
coefficients are contracted once against the field, or against the
phase-weighted sums of the momenta the piece holds, so no ``m`` table on the
dense grid is ever formed.  Evolution runs the analysis and every synthesis
in one pass over the dense blocks.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import fft, ifft

from .boundary import BoundaryPair, diagonalize_boundary
from .grids import (
    KXGrid,
    UniformSpline,
    fourier_sum,
    next_fast_len,
    simpson_weights,
    spline_pieces,
    trapezoid_weights,
)
from .jost import JostTable
from .potentials import PotentialSpec
from .scattering import ScatteringTable

__all__ = [
    "SpectralError",
    "WindowOverflow",
    "BoundStatesPresent",
    "PhysicalSolutionTable",
    "physical_solution",
    "boundary_residual",
    "f0_transform",
    "fourier_maps",
    "fourier_maps_adjoint",
    "evolve_spectral",
    "interacting_after_free",
    "DiscreteHamiltonian",
    "discrete_hamiltonian",
    "bound_states",
    "field_norm",
]

#: momenta times near-field entries (``len(xv) n^2``) in one block of the
#: dense grid's near-field sums: the size a Faddeev-factor table on the block
#: would have (the table grid's sums are one product each, in no blocks)
CHUNK = 1 << 21
#: maximum radians of accumulated phase between adjacent dense momentum nodes
PHASE_BUDGET = 0.3
#: relative spectral amplitude treated as the band edge
BAND_TOL = 1e-6
#: abort threshold for mass reaching the outer tenth of the evolution domain
OVERFLOW_FRACTION = 0.01
#: eigenvalues of the discrete model below ``-BOUND_STATE_TOL`` are bound states
BOUND_STATE_TOL = 1e-8


class SpectralError(RuntimeError):
    """Base class for spectral-representation failures."""


class WindowOverflow(SpectralError):
    """An evolved field reached the outer part of the computational domain."""


class BoundStatesPresent(UserWarning):
    """The operator has negative eigenvalues; only the absolutely continuous
    component of the field is evolved."""


def _as_field(Y: np.ndarray) -> np.ndarray:
    """Coerce samples to the ``(nodes, channels)`` layout used throughout."""
    Y = np.asarray(Y, dtype=complex)
    return Y[:, None] if Y.ndim == 1 else Y


def field_norm(Y: np.ndarray, w: np.ndarray) -> float:
    """Weighted L2 norm of a vector field sampled as ``(nx, n)``."""
    Y = _as_field(Y)
    return float(np.sqrt(np.einsum("x,xc->", w, np.abs(Y) ** 2).real))


@dataclass(frozen=True)
class PhysicalSolutionTable:
    """What the generalized Fourier maps and the boundary check read of the
    physical solutions ``Psi(k, x) = f(-k, x) + f(k, x) S(k)``.

    ``psi0`` and ``psi0prime`` hold ``Psi(k, 0)`` and ``Psi'(k, 0)``, shape
    ``(len(k), n, n)``.  Elsewhere ``Psi`` is read through the Faddeev factor
    ``mnear = m(k, xv)`` and ``S``; beyond ``xv[-1]`` it equals
    ``e^{-ikx} I + e^{ikx} S(k)`` exactly.  The maps on the table grid read
    ``mnear`` as one matrix of ``e^{ikx} (m(k, x) - I)``, built at the first
    such map and kept.  Off the grid, ``mnear`` and ``S`` are read through
    their not-a-knot splines: ``mnear`` through the pieces of
    :func:`~.grids.spline_pieces`, ``S`` through the
    :class:`~.grids.UniformSpline` built on the same pieces.
    """

    k: np.ndarray
    xv: np.ndarray
    psi0: np.ndarray
    psi0prime: np.ndarray
    mnear: np.ndarray
    S: np.ndarray
    grid: KXGrid
    boundary: BoundaryPair

    @property
    def n(self) -> int:
        return self.S.shape[-1]

    @cached_property
    def npos(self) -> int:
        return int((self.k > 0).sum())

    @cached_property
    def kpos(self) -> np.ndarray:
        return self.k[self.k > 0]

    @cached_property
    def _near_matrix(self) -> "_NearMatrix":
        """``e^{ikx} (m(k, x) - I)`` at the stored momenta, as one matrix."""
        return _NearMatrix.from_table(self.k, self.xv, self.mnear)

    @cached_property
    def _near_spline(self) -> "_NearField":
        """``m - I`` between the stored momenta: the cubic pieces of the
        not-a-knot spline of ``mnear`` (the one :class:`UniformSpline`
        evaluates)."""
        shape = self.mnear.shape
        pieces = spline_pieces(self.k, self.mnear.reshape(shape[0], -1))
        return _NearField.from_pieces(
            self.k[:-1], self.xv, [c.reshape((shape[0] - 1,) + shape[1:]) for c in pieces]
        )


def physical_solution(jt: JostTable, st: ScatteringTable) -> PhysicalSolutionTable:
    """Assemble ``Psi(k, 0) = f(-k, 0) + f(k, 0) S(k)`` and ``Psi'(k, 0)`` from
    the Jost table's wall values, alongside its ``m`` table and ``S``."""
    if not np.array_equal(jt.k, st.k):
        raise SpectralError("Jost and scattering tables live on different momentum grids")
    f, fp = jt.wall
    return PhysicalSolutionTable(
        k=jt.k,
        xv=jt.xv,
        psi0=f[::-1] + f @ st.S,
        psi0prime=fp[::-1] + fp @ st.S,
        mnear=jt.m,
        S=st.S,
        grid=jt.grid,
        boundary=st.boundary,
    )


def boundary_residual(pt: PhysicalSolutionTable) -> float:
    """Largest defect of the boundary condition satisfied by the physical
    solutions, ``-B^dagger Psi(k,0) + A^dagger Psi'(k,0)``, scaled per momentum
    by the size of the boundary pair at that momentum."""
    A, B = pt.boundary.A, pt.boundary.B
    res = -B.conj().T @ pt.psi0 + A.conj().T @ pt.psi0prime
    scale = np.linalg.norm(B, 2) + np.abs(pt.k) * np.linalg.norm(A, 2)
    return float((np.linalg.norm(res, axis=(-2, -1)) / scale).max())


# -- cosine transform --------------------------------------------------------


def _cosine_sum(g: np.ndarray, k0: float, dk: float, y: np.ndarray) -> np.ndarray:
    """``sum_j g_j cos((k0 + j dk) y_l)``, the mean of the two signed sums."""
    return 0.5 * (fourier_sum(g, k0, dk, y, +1) + fourier_sum(g, k0, dk, y, -1))


def f0_transform(grid: KXGrid, Y: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Cosine transform ``sqrt(2/pi) integral_0^inf cos(kx) Y(x) dx`` by
    composite-Simpson quadrature on the spatial grid."""
    kq = grid.kpos if k is None else np.asarray(k, dtype=float)
    Yw = _as_field(Y) * simpson_weights(grid.x)[:, None]
    return np.sqrt(2.0 / np.pi) * _cosine_sum(Yw, grid.x[0], grid.dx, kq)


# -- generalized Fourier maps ------------------------------------------------


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``a`` into a 26-bit head and its tail, so
    that the product of two heads is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    head = c - (c - a)
    return head, a - head


def _phases(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``e^{i q x}`` on uniform nodes ``x`` from zero, shape ``q.shape +
    x.shape``: the product of ``e^{i q x[bB]}`` and ``e^{i q x[r]}`` at node
    ``bB + r``, with ``B = ceil(sqrt(len(x)))``, so each momentum takes about
    ``2 sqrt(len(x))`` complex exponentials instead of ``len(x)``.

    The coarse arguments are the long ones, so they are split: the product
    of the heads of ``q`` and ``x[bB]`` is exact, and the small rest enters
    through ``e^{i s} = 1 + i s - s^2/2``.  Rounding ``q x`` would cost up to
    half an ulp of the phase, ``3.6e-15`` at ``|q x| = 40``.
    """
    B = int(np.ceil(np.sqrt(x.size)))
    q_head, q_tail = _split(q)
    x_head, x_tail = _split(x[::B])
    rest = np.multiply.outer(q_head, x_tail) + np.multiply.outer(q_tail, x[::B])
    coarse = np.exp(1j * np.multiply.outer(q_head, x_head)) * (1.0 - 0.5 * rest**2 + 1j * rest)
    fine = np.exp(1j * np.multiply.outer(q, x[:B]))
    out = coarse[..., :, None] * fine[..., None, :]
    return out.reshape(q.shape + (-1,))[..., : x.size]


def _powers(t: np.ndarray, order: int) -> np.ndarray:
    """``t^p`` for ``p < order`` along a new last axis."""
    out = np.ones(t.shape + (order,))
    for p in range(1, order):
        out[..., p] = out[..., p - 1] * t
    return out


@dataclass(frozen=True)
class _NearBlock:
    """One run of whole pieces of a map's near-field sums.

    Its momenta ``k[nodes]`` sit piece by piece in a ``(pieces, width)``
    layout, padded where a piece holds fewer than ``width``; ``real`` lists
    the real entries of the flattened layout.  For each Faddeev factor,
    ``m(k, .)`` then ``m(-k, .)``, it holds the powers ``t^p`` of each
    momentum's offset in its piece and its pieces' coefficients as a
    ``(nxv, n, pieces order n)`` view; ``phases`` holds ``e^{ikx}`` on
    ``xv``, which the second factor reads conjugated by conjugating the
    smaller operand and the product.  The second factor's pieces are the
    mirrors of the first's, so its coefficients run in reverse; ``flip``
    turns them back into block order.
    """

    nodes: slice
    real: np.ndarray
    phases: np.ndarray
    powers: tuple[np.ndarray, np.ndarray]
    coef: tuple[np.ndarray, np.ndarray]
    flip = (slice(None), slice(None, None, -1))
    conj = (False, True)

    def analysis(self, Yc: np.ndarray) -> list[np.ndarray]:
        """``sum_x e^{+-ikx} (m(+-k, x) - I)^T Yc(x)`` for both factors, each
        ``(len(nodes), n)``: ``Yc`` is contracted into every piece's
        coefficients once, then each piece's phase rows run against them."""
        nxv, n = Yc.shape
        out = []
        for pw, C, flip, conj in zip(self.powers, self.coef, self.flip, self.conj):
            pieces, width, order = pw.shape
            W = np.matmul(Yc[:, None, :], C).reshape(nxv, pieces, order * n).transpose(1, 0, 2)
            R = np.matmul(self.phases, W[flip].conj() if conj else W)
            R = (R.conj() if conj else R).reshape(pieces, width, order, n)
            out.append(np.take(np.einsum("jwp,jwpn->jwn", pw, R).reshape(-1, n), self.real, axis=0))
        return out

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_k e^{ikx} (m(k, x) - I) Z(k) + e^{-ikx} (m(-k, x) - I) Zm(k)``
        on ``xv`` for each row of ``Z`` and ``Zm`` (shape ``(rows,
        len(nodes), n)``), shape ``(rows, nxv, n)``: each piece sums
        ``t^p e^{+-ikx} Z`` over its momenta, then the sums are contracted
        against the pieces' coefficients."""
        rows, _, n = Z.shape
        out = 0.0
        factors = zip(self.powers, self.coef, self.flip, self.conj, (Z, Zm))
        for pw, C, flip, conj, Zf in factors:
            pieces, width, order = pw.shape
            Zp = np.zeros((pieces * width, n, rows), dtype=complex)
            Zp[self.real] = Zf.conj().transpose(1, 2, 0) if conj else Zf.transpose(1, 2, 0)
            TZ = pw[..., None, None] * Zp.reshape(pieces, width, 1, n, rows)
            TZ = TZ.reshape(pieces, width, -1)
            # G[x, j, (p, b, row)], written straight into the layout C reads
            G = np.empty((C.shape[0], pieces, TZ.shape[-1]), dtype=complex)
            np.matmul(self.phases.transpose(0, 2, 1), TZ, out=G[:, flip].transpose(1, 0, 2))
            if conj:
                np.conjugate(G, out=G)
            out = out + np.matmul(C, G.reshape(C.shape[0], -1, rows))
        return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class _NearField:
    """``m(q, x) - I`` on the near-field nodes ``xv`` as piecewise
    polynomials in the momentum: on piece ``j``, with ``t = q - knots[j]``,
    ``m(q, x) - I = sum_{p < order} t^p C_{j,p}(x)``.

    ``coef[x, a, j, p, b]`` holds ``C_{j,p}(x)[a, b]``, so that a run of
    pieces is one ``(nxv, n, pieces order n)`` view.  Momenta past the end
    pieces use them.  Piece ``pieces - 1 - j`` mirrors piece ``j``: the
    knots are closed under ``q -> -q``, so ``m(-k)`` is read on the mirror
    of the piece holding ``k``.
    """

    knots: np.ndarray
    xv: np.ndarray
    coef: np.ndarray

    @classmethod
    def from_pieces(
        cls, knots: np.ndarray, xv: np.ndarray, pieces: list[np.ndarray]
    ) -> "_NearField":
        """From ``pieces[p][j, x, a, b]``, the coefficients of ``m`` itself,
        written straight into the ``[x, a, j, p, b]`` layout."""
        npieces, nxv, n = pieces[0].shape[:3]
        coef = np.empty((nxv, n, npieces, len(pieces), n), dtype=complex)
        for p, c in enumerate(pieces):
            coef[:, :, :, p] = c.transpose(1, 2, 0, 3)
        for a in range(n):
            coef[:, a, :, 0, a] -= 1.0
        return cls(knots, xv, coef)

    def blocks(self, k: np.ndarray):
        """The ascending momenta ``k`` grouped by the piece that holds each,
        in runs of whole pieces holding at most ``CHUNK / (len(xv) n^2)``
        padded momenta (at least one piece)."""
        nxv, n, npieces, order = self.coef.shape[:4]
        piece = np.clip(np.searchsorted(self.knots, k, side="right") - 1, 0, npieces - 1)
        lo = piece[0]
        counts = np.bincount(piece - lo)
        starts = np.concatenate([[0], np.cumsum(counts)])
        width = int(counts.max())
        step = max(1, CHUNK // (width * nxv * n * n))
        for a in range(0, counts.size, step):
            b = min(a + step, counts.size)
            run = np.arange(lo + a, lo + b)
            slot = starts[a:b, None] + np.arange(width)
            q = k[np.minimum(slot, k.size - 1)]
            yield _NearBlock(
                nodes=slice(starts[a], starts[b]),
                real=np.flatnonzero(slot < starts[a + 1 : b + 1, None]),
                phases=_phases(q, self.xv),
                powers=(
                    _powers(q - self.knots[run, None], order),
                    _powers(-q - self.knots[npieces - 1 - run, None], order),
                ),
                coef=(
                    self.coef[:, :, lo + a : lo + b].reshape(nxv, n, -1),
                    self.coef[:, :, npieces - lo - b : npieces - lo - a].reshape(nxv, n, -1),
                ),
            )


@dataclass(frozen=True)
class _NearMatrix:
    """``m(q, x) - I`` at every node ``q`` of the table grid, with its phases,
    as one matrix ``G[(x, a), (q, b)] = e^{iqx} (m(q, x) - I)[a, b]``.

    The grid is closed under ``q -> -q`` (``q[::-1] == -q``), so for each
    positive momentum ``k = q[npos + i]`` both Faddeev factors ``m(k)`` and
    ``m(-k) = m(q[npos - 1 - i])`` are columns of ``G``: each near-field sum
    of a table-grid map is one product.  It is its own single block over the
    positive momenta (``nodes``), so the map kernel reads it as it reads the
    blocks of a :class:`_NearField`.
    """

    xv: np.ndarray
    G: np.ndarray
    npos: int

    @classmethod
    def from_table(cls, k: np.ndarray, xv: np.ndarray, mnear: np.ndarray) -> "_NearMatrix":
        """From ``mnear[q, x, a, b] = m(q, x)[a, b]``; the phases of the
        negative momenta are the exact conjugates of the positive ones."""
        nk, nxv, n = mnear.shape[:3]
        npos = nk // 2
        G = mnear.transpose(1, 2, 0, 3).copy()  # [x, a, q, b]
        for a in range(n):
            G[:, a, :, a] -= 1.0
        phases = _phases(k[npos:], xv).T[:, None, :, None]
        G[:, :, npos:] *= phases
        G[:, :, :npos] *= phases[:, :, ::-1].conj()
        return cls(xv, G.reshape(nxv * n, nk * n), npos)

    @property
    def nodes(self) -> slice:
        return slice(0, self.npos)

    def blocks(self, k: np.ndarray):
        """The positive momenta ``k`` of the table grid, as one block."""
        yield self

    def analysis(self, Yc: np.ndarray) -> list[np.ndarray]:
        """``sum_x e^{+-ikx} (m(+-k, x) - I)^T Yc(x)`` for both factors, each
        ``(npos, n)``: one product over the whole grid, split by sign."""
        R = (Yc.reshape(-1) @ self.G).reshape(-1, Yc.shape[1])
        return [R[self.npos :], R[self.npos - 1 :: -1]]

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_k e^{ikx} (m(k, x) - I) Z(k) + e^{-ikx} (m(-k, x) - I) Zm(k)``
        on ``xv`` for each row of ``Z`` and ``Zm`` (shape ``(rows, npos,
        n)``), shape ``(rows, nxv, n)``: one product with ``Zm`` reversed onto
        the negative momenta, ``Z`` on the positive."""
        rows, _, n = Z.shape
        V = np.concatenate([Zm[:, ::-1], Z], axis=1).reshape(rows, -1)
        return (V @ self.G.T).reshape(rows, -1, n)


@dataclass(frozen=True)
class _MapKernel:
    """The kernel ``Psi(-sign*k, x)^dagger`` of one generalized Fourier map on
    uniform positive momenta ``k`` with spacing ``dk``.

    Beyond the near field the kernel is the plane-wave pair
    ``e^{-i sign k x} + S(-sign*k)^dagger e^{i sign k x}``, summed by
    :func:`fourier_sum`; on the near-field nodes ``near.xv`` the Faddeev
    factors ``m(sign*k)`` and ``m(-sign*k)`` add ``(m - I)`` corrections,
    read block by block from ``near``: the pieces of a :class:`_NearField`
    or the one block of a :class:`_NearMatrix`.  ``S`` holds
    ``S(-sign*k)``.  Analysis and synthesis read the same pieces, so they
    are adjoint to roundoff whenever the synthesis nodes are the analysis
    nodes with ``xv`` as a prefix.
    """

    sign: int
    k: np.ndarray
    dk: float
    S: np.ndarray
    near: _NearField | _NearMatrix

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise SpectralError("sign must be +1 or -1")

    @property
    def xv(self) -> np.ndarray:
        return self.near.xv

    def _plane_analysis(self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray) -> np.ndarray:
        """The plane-wave part of the analysis sum, unscaled."""
        Yw = Y * w[:, None]
        out = fourier_sum(Yw, x0, dx, self.k, -self.sign)
        out += np.einsum("kji,kj->ki", self.S.conj(), fourier_sum(Yw, x0, dx, self.k, self.sign))
        return out

    def _near_analysis(self, blk: _NearBlock | _NearMatrix, Yc: np.ndarray) -> np.ndarray:
        """The near-field part of the analysis sum on one block, unscaled;
        ``Yc`` is the conjugate of the weighted field on ``xv``."""
        # e^{-i sign k x} (m_s - I)^dagger Y + S^dagger e^{i sign k x} (m_ms - I)^dagger Y,
        # summed over xv as the conjugate of its transpose
        plus, minus = blk.analysis(Yc)
        near, mirror = (plus, minus) if self.sign == +1 else (minus, plus)
        return (near + np.einsum("kji,kj->ki", self.S[blk.nodes], mirror)).conj()

    def _near_synthesis(
        self, blk: _NearBlock | _NearMatrix, Zw: np.ndarray, SZ: np.ndarray
    ) -> np.ndarray:
        """The near-field part of the synthesis sums of the rows of ``Zw``
        (``SZ`` holds ``S Zw``) from one block, unscaled."""
        return blk.synthesis(Zw, SZ) if self.sign == +1 else blk.synthesis(SZ, Zw)

    def _plane_synthesis(self, Zw: np.ndarray, SZ: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The plane-wave part of the synthesis sum, unscaled."""
        out = fourier_sum(Zw, self.k[0], self.dk, x, self.sign)
        out += fourier_sum(SZ, self.k[0], self.dk, x, -self.sign)
        return out

    def analysis(
        self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray, Ynear: np.ndarray
    ) -> np.ndarray:
        """``sqrt(1/2pi) sum_x w(x) Psi(-sign*k, x)^dagger Y(x)`` for samples
        ``Y`` on the nodes ``x0 + j dx``; ``Ynear`` holds the field on ``xv``."""
        out = self._plane_analysis(Y, x0, dx, w)
        Yc = np.conj(Ynear * trapezoid_weights(self.xv)[:, None])
        for blk in self.near.blocks(self.k):
            out[blk.nodes] += self._near_analysis(blk, Yc)
        return out / np.sqrt(2.0 * np.pi)

    def synthesis(self, Zw: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``sqrt(1/2pi) sum_k Psi(-sign*k, x) Zw(k)`` at uniform nodes ``x``
        whose prefix is ``xv``; ``Zw`` carries the momentum weights."""
        SZ = np.einsum("kij,kj->ki", self.S, Zw)
        out = self._plane_synthesis(Zw, SZ, x)
        for blk in self.near.blocks(self.k):
            nodes = blk.nodes
            out[: self.xv.size] += self._near_synthesis(blk, Zw[None, nodes], SZ[None, nodes])[0]
        return out / np.sqrt(2.0 * np.pi)

    def transfer(
        self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray, Ynear: np.ndarray,
        mults: np.ndarray, x: np.ndarray, check: Callable[[np.ndarray], None],
    ) -> list[np.ndarray]:
        """``synthesis(mult * analysis(Y), x)`` for every row ``mult`` of
        ``mults`` (weights included), in one pass over the momentum blocks:
        each block's phases and pieces serve its near-field analysis and then
        every synthesis.  ``check`` sees every ``Zw`` before the plane sums
        run, so a failing check returns nothing."""
        phi = self._plane_analysis(Y, x0, dx, w)
        Yc = np.conj(Ynear * trapezoid_weights(self.xv)[:, None])
        Zw = np.empty((mults.shape[0],) + phi.shape, dtype=complex)
        SZ = np.empty_like(Zw)
        near = np.zeros((mults.shape[0], self.xv.size, phi.shape[1]), dtype=complex)
        for blk in self.near.blocks(self.k):
            nodes = blk.nodes
            phi[nodes] += self._near_analysis(blk, Yc)
            phi[nodes] /= np.sqrt(2.0 * np.pi)
            Zw[:, nodes] = mults[:, nodes, None] * phi[nodes]
            SZ[:, nodes] = np.einsum("kij,tkj->tki", self.S[nodes], Zw[:, nodes])
            near += self._near_synthesis(blk, Zw[:, nodes], SZ[:, nodes])
        for Z in Zw:
            check(Z)
        outs = []
        for Z, SZi, acc in zip(Zw, SZ, near):
            out = self._plane_synthesis(Z, SZi, x)
            out[: self.xv.size] += acc
            outs.append(out / np.sqrt(2.0 * np.pi))
        return outs


def _table_kernel(pt: PhysicalSolutionTable, sign: int) -> _MapKernel:
    """The map kernel on the positive nodes of the table grid, reading the
    stored ``S`` and Faddeev factors (``k[::-1] == -k`` exactly)."""
    npos = pt.npos
    S = pt.S[npos - 1 :: -1] if sign == +1 else pt.S[npos:]
    return _MapKernel(sign, pt.kpos, pt.grid.dk, S, pt._near_matrix)


def fourier_maps(pt: PhysicalSolutionTable, Y: np.ndarray, sign: int = +1) -> np.ndarray:
    """Generalized Fourier map on the positive momentum nodes:
    ``sqrt(1/2pi) integral Psi(-sign*k, x)^dagger Y(x) dx``.

    The integral runs over the whole spatial window as plane-wave sums plus a
    near-field correction supported where the Faddeev factor differs from the
    identity, so no full solution table over the window is ever formed.
    """
    grid = pt.grid
    Y = _as_field(Y)
    return _table_kernel(pt, sign).analysis(Y, grid.x[0], grid.dx, grid.wx, Y[: pt.xv.size])


def fourier_maps_adjoint(
    pt: PhysicalSolutionTable, Z: np.ndarray, sign: int = +1
) -> np.ndarray:
    """Adjoint map ``sqrt(1/2pi) integral_0^inf Psi(-sign*k, x) Z(k) dk`` on
    the spatial grid (midpoint momentum weights, so quadrature duality with
    the forward map is exact up to roundoff)."""
    return _table_kernel(pt, sign).synthesis(_as_field(Z) * pt.grid.dk, pt.grid.x)


# -- dense momentum stage for time evolution ---------------------------------


@dataclass(frozen=True)
class _DenseStage:
    """The dense momentum grid of one evolution request: positive momenta
    ``kq[l] = l * dkq`` with trapezoid weights ``wk``, and the spatial step
    ``ratio * dx`` of an ``nfft``-node circle whose lower half is the
    evolution domain.  Its map kernels read ``S`` interpolated onto ``kq``
    and the Faddeev factors through the cubic pieces of their spline (both
    are smooth in momentum)."""

    pt: PhysicalSolutionTable
    nfft: int
    ratio: int
    dxb: float
    dkq: float
    kq: np.ndarray
    wk: np.ndarray

    def kernel(self, sign: int) -> _MapKernel:
        """The map kernel on ``kq``: ``S`` from its spline at ``-sign*kq``,
        the Faddeev factors from the pieces of theirs that hold ``kq``."""
        pt, kq = self.pt, self.kq
        S = UniformSpline(pt.k, pt.S)(-sign * kq)
        return _MapKernel(sign, kq, self.dkq, S, pt._near_spline)

    def check_overflow(self, kernel: _MapKernel, Zw: np.ndarray) -> None:
        """Reconstruct the field synthesized from ``Zw`` on the full FFT
        circle and abort if too much mass reaches the outer tenth of the
        physical half-domain.

        The conjugate-phase term always parks a mirror copy of the field in
        the upper half of the circle, so the physical domain is the lower
        half and wrap-around shows up as mass near the midpoint, where the
        direct and mirrored copies collide."""
        SZ = np.einsum("kij,kj->ki", kernel.S, Zw)
        first, second = (Zw, SZ) if kernel.sign == +1 else (SZ, Zw)
        c = np.zeros((self.nfft, first.shape[1]), dtype=complex)
        c[: self.kq.size] = first
        field = self.nfft * ifft(c, axis=0)
        c[: self.kq.size] = second
        field += fft(c, axis=0)
        mass = np.abs(field) ** 2
        total = float(mass.sum())
        outer = float(mass[int(0.45 * self.nfft) : int(0.55 * self.nfft)].sum())
        if total > 0 and outer > OVERFLOW_FRACTION * total:
            raise WindowOverflow(
                f"{outer / total:.1%} of the evolved mass sits in the outer tenth "
                f"of the {self.nfft * self.dxb / 2:.0f}-wide evolution domain"
            )


def _wall_weights(size: int, step: float) -> np.ndarray:
    """Trapezoid weights of ``size`` uniform nodes from zero, open at the far
    end, past which the integrand is negligible."""
    w = np.full(size, step)
    w[0] *= 0.5
    return w


def _last_above(nodes: np.ndarray, F: np.ndarray, tol: float) -> float:
    """Last node where the channel norm of ``F`` exceeds ``tol`` times its
    peak (the first node for a zero field)."""
    norms = np.linalg.norm(_as_field(F), axis=1)
    return float(nodes[max(np.flatnonzero(norms > tol * norms.max()), default=0)])


def _build_stage(pt: PhysicalSolutionTable, k_band: float, reach: float) -> _DenseStage:
    grid = pt.grid
    k_band = min(max(k_band, 1.0), 0.95 * grid.kmax)
    ratio = max(1, int(np.floor(np.pi / (4.0 * k_band) / grid.dx)))
    dxb = ratio * grid.dx
    n_wrap = int(np.ceil(2.2 * max(reach, grid.xmax) / dxb))
    # quadratic-phase resolution: d(phase)/dk stays below 2*reach on the
    # occupied region, so dk * 2 * reach <= budget bounds the node spacing
    n_phase = int(np.ceil(4.0 * np.pi * reach / (PHASE_BUDGET * dxb)))
    nfft = next_fast_len(max(n_wrap, n_phase, 2 * grid.x.size // ratio + 2))
    dkq = 2.0 * np.pi / (nfft * dxb)
    L = int(np.ceil(k_band / dkq)) + 1
    kq = dkq * np.arange(L)
    wk = _wall_weights(L, dkq)
    return _DenseStage(pt=pt, nfft=nfft, ratio=ratio, dxb=dxb, dkq=dkq, kq=kq, wk=wk)


def _stage_for(
    pt: PhysicalSolutionTable, Y: np.ndarray, phi: np.ndarray, t: float
) -> _DenseStage:
    """Dense stage for evolving ``Y``, whose spectrum on the positive table
    nodes is ``phi``, to time ``t``: band edge from ``phi``, domain from the
    field's extent plus the distance ``2 |t| k_band`` its fastest part runs."""
    k_band = _last_above(pt.kpos, phi, BAND_TOL)
    reach = _last_above(pt.grid.x, Y, 1e-9) + 2.0 * abs(t) * k_band + 8.0
    return _build_stage(pt, k_band, reach)


def evolve_spectral(
    pt: PhysicalSolutionTable,
    Y: np.ndarray,
    t: float | np.ndarray,
    sign: int = +1,
    hamiltonian: "DiscreteHamiltonian | None" = None,
    xmax_out: float | None = None,
) -> np.ndarray:
    """Evolve the absolutely continuous component: ``e^{-itH} P_ac Y`` via
    the diagonalization ``(F^s)^dagger e^{-itk^2} F^s``.

    Accepts a single time or a sequence (evolved on one shared dense grid
    sized for the largest |t|, in one pass over its momentum blocks).  The
    result is sampled on the table's spatial step up to ``xmax_out`` (by
    default the table's window), which may end inside the near field.  If a
    discrete Hamiltonian is supplied and has negative eigenvalues, a
    BoundStatesPresent warning lists them: those components are absent from
    the result by construction.

    Raises
    ------
    SpectralError
        If a time is not finite, or ``xmax_out`` is negative or not finite.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(times).all():
        raise SpectralError(f"evolution times t must be finite, got {t}")
    if xmax_out is not None and not (xmax_out >= 0.0 and np.isfinite(xmax_out)):
        raise SpectralError(f"xmax_out must be non-negative and finite, got {xmax_out}")
    if hamiltonian is not None:
        ev = bound_states(hamiltonian)
        if ev.size:
            warnings.warn(
                f"discrete eigenvalues below zero: {np.sort(ev)}; evolving the "
                "absolutely continuous part only",
                BoundStatesPresent,
                stacklevel=2,
            )
    single = np.isscalar(t) or np.asarray(t).ndim == 0
    Y = _as_field(Y)
    if np.all(times == 0.0) and xmax_out is None:
        out0 = fourier_maps_adjoint(pt, fourier_maps(pt, Y, sign), sign)
        return out0 if single else np.repeat(out0[None], times.size, axis=0)
    grid = pt.grid
    stage = _stage_for(pt, Y, fourier_maps(pt, Y, sign), float(np.abs(times).max()))
    kernel = stage.kernel(sign)
    # the band-limited field is resolved on every ratio-th node
    Ys = Y[:: stage.ratio]
    w = _wall_weights(Ys.shape[0], stage.dxb)
    nx_out = grid.x.size if xmax_out is None else int(np.ceil(xmax_out / grid.dx)) + 1
    # the synthesis nodes hold the near field, so a shorter output is cut after
    x_out = np.arange(max(nx_out, pt.xv.size)) * grid.dx
    mults = np.exp(-1j * times[:, None] * stage.kq**2) * stage.wk
    outs = kernel.transfer(
        Ys, 0.0, stage.dxb, w, Y[: pt.xv.size], mults, x_out,
        lambda Zw: stage.check_overflow(kernel, Zw),
    )
    return outs[0][:nx_out] if single else np.stack(outs)[:, :nx_out]


def interacting_after_free(
    pt: PhysicalSolutionTable, Y: np.ndarray, t: float, sign: int = +1
) -> np.ndarray:
    """The wave-operator approximant at finite time: ``e^{itH} e^{-itH_0} Y``
    with the free comparison dynamics generated by the Neumann operator (the
    one the cosine transform diagonalizes).

    Both factors share one dense momentum stage: the freely evolved field is
    synthesized by the cosine sum on the physical half of the FFT circle and
    on the near field, analyzed by the generalized Fourier map, multiplied by
    the conjugate quadratic phase, and synthesized back on the table's
    spatial grid.
    """
    grid = pt.grid
    Y = _as_field(Y)
    stage = _stage_for(pt, Y, f0_transform(grid, Y), t)
    kernel = stage.kernel(sign)
    # free half: cosine data at the dense nodes, evolved backwards; the
    # cosine sum mirrors the field into the upper half of the FFT circle, so
    # only the physical half enters the analysis integral
    c0 = f0_transform(grid, Y, stage.kq) * (np.exp(-1j * t * stage.kq**2) * stage.wk)[:, None]
    xs = np.arange(stage.nfft // 2) * stage.dxb
    u, u_near = (np.sqrt(2.0 / np.pi) * _cosine_sum(c0, 0.0, stage.dkq, y) for y in (xs, pt.xv))
    # interacting half applied with the opposite phase
    mult = np.exp(1j * t * stage.kq**2) * stage.wk
    return kernel.transfer(
        u, 0.0, stage.dxb, _wall_weights(xs.size, stage.dxb), u_near, mult[None], grid.x,
        lambda Zw: stage.check_overflow(kernel, Zw),
    )[0]


# -- discrete Hamiltonian ----------------------------------------------------


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Banded finite-difference model of the operator with its boundary
    condition imposed channel-wise in the frame that diagonalizes the pair.

    The boundary row uses a ghost-point elimination and is symmetrized by a
    diagonal similarity (weight 1/sqrt(2) on the boundary node), so the band
    is exactly Hermitian; Dirichlet channels simply drop their boundary node.
    """

    band: np.ndarray  # lower band, shape (n+1, N)
    index: np.ndarray  # (nx, n) variable numbers, -1 where eliminated
    mixer: np.ndarray  # unitary channel frame
    x: np.ndarray
    dx: float
    n: int
    boundary_scale: np.ndarray  # per-variable diagonal similarity

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        # numpy has no banded eigensolver, and the dense one would cost
        # O(N^3); this optional model is off the pipeline's path, so scipy
        # is imported only here
        from scipy.linalg import eig_banded

        band = self.band.real if not self.band.imag.any() else self.band
        w, v = eig_banded(band, lower=True)
        return w, v

    @property
    def size(self) -> int:
        return self.band.shape[1]


def discrete_hamiltonian(
    potential: PotentialSpec, bp: BoundaryPair, x: np.ndarray
) -> DiscreteHamiltonian:
    """Second-order finite-difference matrix for the operator on the given
    uniform grid (homogeneous Dirichlet truncation at the right edge).

    Robin channels eliminate the ghost node through the boundary derivative,
    which makes the boundary row lopsided (``-2/dx^2`` out, ``-1/dx^2`` back);
    conjugating by ``diag(1/sqrt(2))`` on the boundary node restores a
    Hermitian band with off-diagonal ``-sqrt(2)/dx^2`` there.
    """
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    if np.abs(np.diff(x) - dx).max() > 1e-12 * max(1.0, dx):
        raise SpectralError("the discrete model needs a uniform grid")
    form = diagonalize_boundary(bp)
    M = form.M
    thetas = form.thetas
    n = M.shape[0]

    nx = x.size
    index = -np.ones((nx, n), dtype=int)
    count = 0
    for j in range(nx - 1):  # right wall eliminated
        for c in range(n):
            if j == 0 and form.dirichlet[c]:
                continue
            index[j, c] = count
            count += 1
    scale = np.ones(count)
    scale[index[0][~form.dirichlet]] = 1.0 / np.sqrt(2.0)

    vrot = np.einsum("ij,xjl,lm->xim", M.conj().T, potential.value_at(x), M)
    band = np.zeros((n + 1, count), dtype=complex)
    inv2 = 1.0 / dx**2
    for j in range(nx - 1):
        for c in range(n):
            i = index[j, c]
            if i < 0:
                continue
            if j == 0:
                band[0, i] = 2.0 * inv2 * (1.0 - dx / np.tan(thetas[c])) + vrot[
                    j, c, c
                ].real
            else:
                band[0, i] = 2.0 * inv2 + vrot[j, c, c].real
            for c2 in range(c + 1, n):
                i2 = index[j, c2]
                if i2 >= 0:
                    band[i2 - i, i] = vrot[j, c2, c]
            if j + 1 < nx - 1:
                i2 = index[j + 1, c]
                band[i2 - i, i] = -inv2 / scale[i]
    return DiscreteHamiltonian(
        band=band, index=index, mixer=M, x=x, dx=dx, n=n, boundary_scale=scale
    )


def bound_states(dh: DiscreteHamiltonian) -> np.ndarray:
    """Negative eigenvalues of the discrete model (below ``-BOUND_STATE_TOL``)."""
    w, _ = dh.eigenpairs
    return w[w < -BOUND_STATE_TOL]
