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
multiplier ``e^{-itk^2}`` by the maps.  The dense grid's period holds the
evolved field and the output window: the integrand ``Psi(k, x) phi(k)`` is
even in ``k`` (``S`` is unitary), so its trapezoid sum over the half line
converges geometrically once the period holds the field, and what error is
left comes from reading ``S`` and the near-field sums between the table's
nodes, which fixes a number of dense momenta per table step.

On the table grid, which is closed under ``k -> -k``, the near-field
correction of both Faddeev factors is one product with a matrix ``G`` of
``e^{ikx} (m(k, x) - I) = f(k, x) - e^{ikx} I`` over the whole grid: a view
of the Jost table's array, written in this layout, which no map rebuilds.
The dense grid reads the same matrix.  The near-field sums are linear in
``m``, so analysis contracts the field against ``G`` on the table grid, and
one not-a-knot spline carries the small result, ``(nk, n)``, to the dense
momenta.  Before the spline the sums are demodulated by the phase of the
near field's end, which halves the frequencies the spline must follow
(:class:`_NearSpline`).  Synthesis is the exact transpose: the spline's
adjoint (:func:`~.grids.spline_adjoint`) gathers the dense momenta onto the
table grid, then one product with ``G``.  So no ``m`` table, no slope table
of ``m`` and no phase table on the dense grid is ever formed.  Where ``m =
I`` on the whole near field (a zero potential), ``G`` vanishes and the maps
skip the near-field sums.  Evolution is one analysis, the multipliers of
every time, and one synthesis of all the times as rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import fft, ifft

from .boundary import BoundaryPair
from .grids import (
    SWEEP_BLOCK,
    KXGrid,
    UniformSpline,
    _phases,
    fourier_sum,
    next_fast_len,
    simpson_weights,
    spline_adjoint,
    trapezoid_weights,
)
from .jost import JostTable
from .scattering import ScatteringTable

__all__ = [
    "SpectralError",
    "WindowOverflow",
    "PhysicalSolutionTable",
    "physical_solution",
    "boundary_residual",
    "f0_transform",
    "fourier_maps",
    "fourier_maps_adjoint",
    "evolve_spectral",
    "interacting_after_free",
    "field_norm",
]

#: dense momenta per step of the table grid: the dense stage reads ``S`` and
#: the near-field sums through splines on the table grid; at 1, 2 and 3 per
#: step the evolutions of the 2x2 benchmark's probe fields to ``t = 1``
#: deviate from those at 12 per step by 5.1e-6, 5.2e-7 and 9.5e-8 of their peak
DENSE_PER_TABLE_STEP = 3
#: relative spectral amplitude treated as the band edge
BAND_TOL = 1e-6
#: abort threshold for mass reaching the outer tenth of the evolution domain
OVERFLOW_FRACTION = 0.01


class SpectralError(RuntimeError):
    """Base class for spectral-representation failures."""


class WindowOverflow(SpectralError):
    """An evolved field reached the outer part of the computational domain."""


def _as_field(Y: np.ndarray, nodes: int | None = None, n: int | None = None) -> np.ndarray:
    """Coerce samples to the ``(nodes, channels, ...)`` layout used throughout
    (a 1-D array is one channel); raise :class:`SpectralError`, naming both
    shapes, unless it has the ``nodes`` and the ``n`` channels given."""
    given = np.shape(Y)
    Y = np.asarray(Y, dtype=complex)
    Y = Y[:, None] if Y.ndim == 1 else Y
    fits = Y.ndim >= 2 and Y.shape[0] == (nodes or Y.shape[0])
    if not fits or (n is not None and Y.shape[1:] != (n,)):
        raise SpectralError(
            f"expected field samples of shape ({nodes or 'nodes'}, {n or 'channels'}), "
            f"got shape {given}"
        )
    return Y


def field_norm(Y: np.ndarray, w: np.ndarray) -> float:
    """Weighted L2 norm of a vector field sampled as ``(nx, n)``."""
    Y = _as_field(Y, np.size(w))
    return float(np.sqrt(np.einsum("x,xc->", w, np.abs(Y) ** 2).real))


@dataclass(frozen=True)
class PhysicalSolutionTable:
    """What the generalized Fourier maps and the boundary check read of the
    physical solutions ``Psi(k, x) = f(-k, x) + f(k, x) S(k)``.

    ``psi0`` and ``psi0prime`` hold ``Psi(k, 0)`` and ``Psi'(k, 0)``, shape
    ``(len(k), n, n)``.  Elsewhere ``Psi`` is read through ``S`` and the
    Jost table's ``scattered = f(k, xv) - e^{ikx} I`` (the same array);
    beyond ``xv[-1]`` it equals ``e^{-ikx} I + e^{ikx} S(k)`` exactly.
    Every map reads ``scattered`` as one matrix, a view, and off the grid
    splines the sums formed with it.  ``S`` is read off the grid through its
    not-a-knot spline (:class:`~.grids.UniformSpline`), built once and kept.
    """

    k: np.ndarray
    xv: np.ndarray
    psi0: np.ndarray
    psi0prime: np.ndarray
    scattered: np.ndarray
    S: np.ndarray
    grid: KXGrid
    boundary: BoundaryPair

    @property
    def n(self) -> int:
        return self.S.shape[-1]

    @cached_property
    def _near_matrix(self) -> "_NearMatrix":
        """``scattered`` at the stored momenta, as one matrix (a view)."""
        return _NearMatrix(self.xv, self.scattered.reshape(self.k.size * self.n, -1), self.k.size // 2)

    @cached_property
    def _S_spline(self) -> UniformSpline:
        """``S`` between the stored momenta: its not-a-knot spline."""
        return UniformSpline(self.k, self.S)


def physical_solution(jt: JostTable, st: ScatteringTable) -> PhysicalSolutionTable:
    """Assemble ``Psi(k, 0) = f(-k, 0) + f(k, 0) S(k)`` and ``Psi'(k, 0)`` from
    the Jost table's wall values, alongside its ``scattered`` table and ``S``."""
    if not np.array_equal(jt.k, st.k):
        raise SpectralError("Jost and scattering tables live on different momentum grids")
    f, fp = jt.wall
    return PhysicalSolutionTable(
        k=jt.k,
        xv=jt.xv,
        psi0=f[::-1] + f @ st.S,
        psi0prime=fp[::-1] + fp @ st.S,
        scattered=jt.scattered,
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
    Yw = _as_field(Y, grid.x.size) * simpson_weights(grid.x)[:, None]
    return np.sqrt(2.0 / np.pi) * _cosine_sum(Yw, grid.x[0], grid.dx, kq)


# -- generalized Fourier maps ------------------------------------------------


@dataclass(frozen=True)
class _NearMatrix:
    """``f(q, x) - e^{iqx} I`` at every node ``q`` of the table grid as one
    matrix ``G[(q, b), (a, x)] = e^{iqx} (m(q, x) - I)[a, b]``: the Jost
    table's ``scattered`` array, reshaped.

    The grid is closed under ``q -> -q`` (``q[::-1] == -q``), so for each
    positive momentum ``k = q[npos + i]`` both Faddeev factors ``m(k)`` and
    ``m(-k) = m(q[npos - 1 - i])`` are rows of ``G``: each near-field sum
    of a table-grid map is one product.  Off the grid, :class:`_NearSpline`
    reads a contiguous block of its rows.
    """

    xv: np.ndarray
    G: np.ndarray
    npos: int

    @cached_property
    def vanishes(self) -> bool:
        """Whether ``m = I`` on the whole near field (a zero potential), so
        that every near-field sum is zero."""
        return not self.G.any()

    def analysis(self, Yc: np.ndarray) -> list[np.ndarray]:
        """``sum_x e^{+-ikx} (m(+-k, x) - I)^T Yc(x)`` for both factors, each
        ``(npos, n)``: one product over the whole grid, split by sign."""
        R = (self.G @ Yc.T.ravel()).reshape(-1, Yc.shape[1])
        return [R[self.npos :], R[self.npos - 1 :: -1]]

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_k e^{ikx} (m(k, x) - I) Z(k) + e^{-ikx} (m(-k, x) - I) Zm(k)``
        on ``xv`` for each row of ``Z`` and ``Zm`` (shape ``(rows, npos,
        n)``), shape ``(rows, nxv, n)``: one product with ``Zm`` reversed onto
        the negative momenta, ``Z`` on the positive."""
        rows, _, n = Z.shape
        V = np.concatenate([Zm[:, ::-1], Z], axis=1).reshape(rows, -1)
        return (V @ self.G).reshape(rows, n, -1).swapaxes(1, 2)


@dataclass(frozen=True)
class _NearSpline:
    """The near-field sums of :class:`_NearMatrix` at momenta ``q`` off the
    table grid: ``+kq`` then ``-kq`` for uniform positive ``kq``.

    The sums are linear in ``m``, so they are formed on the table grid, one
    product with ``G``, the near matrix's rows at the knots ``k``, and the
    small result is interpolated, not ``m``.  As a function of ``k``, a row
    of ``G`` is a transform of the Marchenko kernel, ``e^{ikx} (m(k, x) -
    I) = integral_x^{2b - x} K(x, y) e^{iky} dy`` for a potential supported
    in ``[0, b]``, with frequencies ``y`` in ``[0, 2b]``.  Demodulated by
    ``e^{-ikc}`` (``demod``) at the near field's end ``c = xv[-1] >= b``,
    the sums hold frequencies of at most ``c``, where ``m - I`` itself holds
    up to ``2b``; on the test fixtures the spline of ``m`` erred 2 to 5
    times more.  One spline carries them to ``q``, where ``e^{iqc}``
    (``remod``) restores the phase.  Synthesis is the exact transpose of
    that path: :func:`~.grids.spline_adjoint`, then one product with ``G``.
    """

    xv: np.ndarray
    G: np.ndarray
    k: np.ndarray
    q: np.ndarray
    demod: np.ndarray
    remod: np.ndarray

    @classmethod
    def on(cls, near: _NearMatrix, k: np.ndarray, kq: np.ndarray) -> "_NearSpline":
        """The sums at ``+-kq`` from ``near`` on the table nodes ``k``,
        splined on the knots within ``SWEEP_BLOCK`` pieces of ``+-kq``: the
        end conditions there move the pieces that hold ``+-kq`` by under
        ``2^-60``."""
        n = near.G.shape[0] // k.size
        dk = (k[-1] - k[0]) / (k.size - 1)
        knots = np.flatnonzero(np.abs(k) <= kq[-1] + (SWEEP_BLOCK + 1) * dk)
        lo, hi = knots[0], knots[-1] + 1
        k, c, q = k[lo:hi], near.xv[-1:], np.concatenate([kq, -kq])
        G = near.G[lo * n : hi * n]
        return cls(near.xv, G, k, q, _phases(-k, c)[:, 0], _phases(q, c)[:, 0])

    def analysis(self, Yc: np.ndarray) -> list[np.ndarray]:
        """``sum_x e^{+-iqx} (m(+-q, x) - I)^T Yc(x)`` for both factors at
        ``kq``, each ``(len(kq), n)``."""
        sums = (self.G @ Yc.T.ravel()).reshape(self.k.size, -1) * self.demod[:, None]
        return np.split(UniformSpline(self.k, sums)(self.q) * self.remod[:, None], 2)

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_q e^{iqx} (m(q, x) - I) Z(q) + e^{-iqx} (m(-q, x) - I) Zm(q)``
        over ``kq`` on ``xv`` for each row of ``Z`` and ``Zm`` (shape
        ``(rows, len(kq), n)``), shape ``(rows, nxv, n)``."""
        rows, _, n = Z.shape
        V = np.concatenate([Z, Zm], axis=1) * self.remod[:, None]
        U = spline_adjoint(self.k, self.q, V.transpose(1, 0, 2)) * self.demod[:, None, None]
        return (U.transpose(1, 0, 2).reshape(rows, -1) @ self.G).reshape(rows, n, -1).swapaxes(1, 2)


@dataclass(frozen=True)
class _MapKernel:
    """The kernel ``Psi(-sign*k, x)^dagger`` of one generalized Fourier map on
    uniform positive momenta ``k`` with spacing ``dk``.

    Beyond the near field the kernel is the plane-wave pair
    ``e^{-i sign k x} + S(-sign*k)^dagger e^{i sign k x}``, summed by
    :func:`fourier_sum`; on the near-field nodes ``near.xv`` the Faddeev
    factors ``m(sign*k)`` and ``m(-sign*k)`` add ``(m - I)`` corrections,
    read from ``near``: the table grid's :class:`_NearMatrix`, or a
    :class:`_NearSpline` of it on a dense grid, or ``None`` where ``m = I``
    on the whole near field.  ``S`` holds ``S(-sign*k)``.  Analysis and
    synthesis read the same ``near``, so they are adjoint to roundoff
    whenever the synthesis nodes are the analysis nodes with ``xv`` as a
    prefix.
    """

    sign: int
    k: np.ndarray
    dk: float
    S: np.ndarray
    near: _NearMatrix | _NearSpline | None

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise SpectralError("sign must be +1 or -1")

    @property
    def xv(self) -> np.ndarray:
        return self.near.xv

    def _near_analysis(self, Yc: np.ndarray) -> np.ndarray:
        """The near-field part of the analysis sum, unscaled; ``Yc`` is the
        conjugate of the weighted field on ``xv``."""
        # e^{-i sign k x} (m_s - I)^dagger Y + S^dagger e^{i sign k x} (m_ms - I)^dagger Y,
        # summed over xv as the conjugate of its transpose
        plus, minus = self.near.analysis(Yc)
        near, mirror = (plus, minus) if self.sign == +1 else (minus, plus)
        return (near + np.einsum("kji,kj->ki", self.S, mirror)).conj()

    def _near_synthesis(self, Zw: np.ndarray, SZ: np.ndarray) -> np.ndarray:
        """The near-field part of the synthesis sums of the rows of ``Zw``
        (``SZ`` holds ``S Zw``), unscaled."""
        return self.near.synthesis(Zw, SZ) if self.sign == +1 else self.near.synthesis(SZ, Zw)

    def analysis(
        self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray, Ynear: np.ndarray
    ) -> np.ndarray:
        """``sqrt(1/2pi) sum_x w(x) Psi(-sign*k, x)^dagger Y(x)`` for samples
        ``Y`` on the nodes ``x0 + j dx``; ``Ynear`` holds the field on ``xv``."""
        Yw = Y * w[:, None]
        out = fourier_sum(Yw, x0, dx, self.k, -self.sign)
        out += np.einsum("kji,kj->ki", self.S.conj(), fourier_sum(Yw, x0, dx, self.k, self.sign))
        if self.near is not None:
            out += self._near_analysis(np.conj(Ynear * trapezoid_weights(self.xv)[:, None]))
        return out / np.sqrt(2.0 * np.pi)

    def synthesis(self, Zw: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``sqrt(1/2pi) sum_k Psi(-sign*k, x) Zw(k)`` at uniform nodes ``x``
        whose prefix is ``xv``; ``Zw`` carries the momentum weights.  ``Zw``
        is one field, ``(len(k), n)``, or a stack of them, ``(rows, len(k),
        n)``, whose plane sums run as one pair over all the rows."""
        Z = Zw.reshape((-1,) + Zw.shape[-2:])
        SZ = np.einsum("kij,tkj->tki", self.S, Z)
        plane = fourier_sum(Z.transpose(1, 0, 2), self.k[0], self.dk, x, self.sign)
        plane += fourier_sum(SZ.transpose(1, 0, 2), self.k[0], self.dk, x, -self.sign)
        out = plane.transpose(1, 0, 2)
        if self.near is not None:
            out[:, : self.xv.size] += self._near_synthesis(Z, SZ)
        return (out / np.sqrt(2.0 * np.pi)).reshape(Zw.shape[:-2] + out.shape[1:])


def _table_kernel(pt: PhysicalSolutionTable, sign: int) -> _MapKernel:
    """The map kernel on the positive nodes of the table grid, reading the
    stored ``S`` and Faddeev factors (``k[::-1] == -k`` exactly)."""
    npos = pt.grid.npos
    S = pt.S[npos - 1 :: -1] if sign == +1 else pt.S[npos:]
    near = None if pt._near_matrix.vanishes else pt._near_matrix
    return _MapKernel(sign, pt.grid.kpos, pt.grid.dk, S, near)


def fourier_maps(pt: PhysicalSolutionTable, Y: np.ndarray, sign: int = +1) -> np.ndarray:
    """Generalized Fourier map on the positive momentum nodes:
    ``sqrt(1/2pi) integral Psi(-sign*k, x)^dagger Y(x) dx``.

    The integral runs over the whole spatial window as plane-wave sums plus a
    near-field correction supported where the Faddeev factor differs from the
    identity, so no full solution table over the window is ever formed.
    """
    grid = pt.grid
    Y = _as_field(Y, grid.x.size, pt.n)
    return _table_kernel(pt, sign).analysis(Y, grid.x[0], grid.dx, grid.wx, Y[: pt.xv.size])


def fourier_maps_adjoint(
    pt: PhysicalSolutionTable, Z: np.ndarray, sign: int = +1
) -> np.ndarray:
    """Adjoint map ``sqrt(1/2pi) integral_0^inf Psi(-sign*k, x) Z(k) dk`` on
    the spatial grid (midpoint momentum weights, so quadrature duality with
    the forward map is exact up to roundoff)."""
    Zw = _as_field(Z, pt.grid.npos, pt.n) * pt.grid.dk
    return _table_kernel(pt, sign).synthesis(Zw, pt.grid.x)


# -- dense momentum stage for time evolution ---------------------------------


@dataclass(frozen=True)
class _DenseStage:
    """The dense momentum grid of one evolution request: positive momenta
    ``kq[l] = l * dkq`` with trapezoid weights ``wk``, and the spatial step
    ``ratio * dx`` of an ``nfft``-node circle whose lower half is the
    evolution domain.  Its map kernels read ``S`` interpolated onto ``kq``
    and the near-field sums through ``near``, built at the first kernel."""

    pt: PhysicalSolutionTable
    nfft: int
    ratio: int
    dxb: float
    dkq: float
    kq: np.ndarray
    wk: np.ndarray

    def kernel(self, sign: int) -> _MapKernel:
        """The map kernel on ``kq``: ``S`` from its spline at ``-sign*kq``,
        the near-field sums from ``near`` unless ``m = I`` there."""
        pt = self.pt
        near = None if pt._near_matrix.vanishes else self.near
        return _MapKernel(sign, self.kq, self.dkq, pt._S_spline(-sign * self.kq), near)

    @cached_property
    def near(self) -> _NearSpline:
        """The near-field sums at ``+-kq``, read from the table's near matrix."""
        return _NearSpline.on(self.pt._near_matrix, self.pt.k, self.kq)

    def check_overflow(self, kernel: _MapKernel, Zw: np.ndarray) -> None:
        """Reconstruct each field synthesized from ``Zw``, one field ``(len(kq),
        n)`` or a stack of them, on the full FFT circle (one FFT pair for all)
        and abort if too much of any one's mass reaches the outer tenth of the
        physical half-domain.

        The conjugate-phase term always parks a mirror copy of the field in
        the upper half of the circle, so the physical domain is the lower
        half and wrap-around shows up as mass near the midpoint, where the
        direct and mirrored copies collide."""
        SZ = np.einsum("kij,...kj->...ki", kernel.S, Zw)
        first, second = (Zw, SZ) if kernel.sign == +1 else (SZ, Zw)
        c = np.zeros(Zw.shape[:-2] + (self.nfft, Zw.shape[-1]), dtype=complex)
        c[..., : self.kq.size, :] = first
        field = self.nfft * ifft(c, axis=-2)
        c[..., : self.kq.size, :] = second
        field += fft(c, axis=-2)
        mass = np.abs(field) ** 2
        total = mass.sum(axis=(-2, -1))
        outer = mass[..., int(0.45 * self.nfft) : int(0.55 * self.nfft), :].sum(axis=(-2, -1))
        worst = float(np.max(outer / np.maximum(total, np.finfo(float).tiny)))
        if worst > OVERFLOW_FRACTION:
            raise WindowOverflow(
                f"{worst:.1%} of the evolved mass sits in the outer tenth "
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
    norms = np.linalg.norm(F, axis=1)
    return float(nodes[max(np.flatnonzero(norms > tol * norms.max()), default=0)])


def _build_stage(pt: PhysicalSolutionTable, k_band: float, span: float) -> _DenseStage:
    """Dense stage for fields of band edge ``k_band`` held on ``[0, span]``:
    the circle is the largest of the wrap bound, which keeps the field and
    its mirror copy apart, the ``DENSE_PER_TABLE_STEP`` bound on the
    momentum step, and twice the table's window."""
    grid = pt.grid
    k_band = min(max(k_band, 1.0), 0.95 * grid.kmax)
    ratio = max(1, int(np.floor(np.pi / (4.0 * k_band) / grid.dx)))
    dxb = ratio * grid.dx
    n_wrap = int(np.ceil(2.2 * max(span, grid.xmax) / dxb))
    n_table = int(np.ceil(DENSE_PER_TABLE_STEP * 2.0 * np.pi / (grid.dk * dxb)))
    nfft = next_fast_len(max(n_wrap, n_table, 2 * grid.x.size // ratio + 2))
    dkq = 2.0 * np.pi / (nfft * dxb)
    L = int(np.ceil(k_band / dkq)) + 1
    kq = dkq * np.arange(L)
    wk = _wall_weights(L, dkq)
    return _DenseStage(pt=pt, nfft=nfft, ratio=ratio, dxb=dxb, dkq=dkq, kq=kq, wk=wk)


def _stage_for(
    pt: PhysicalSolutionTable, Y: np.ndarray, phi: np.ndarray, t: float, xmax_out: float = 0.0
) -> _DenseStage:
    """Dense stage for evolving ``Y``, whose spectrum on the positive table
    nodes is ``phi``, to time ``t`` and sampling it up to ``xmax_out``: band
    edge from ``phi``, span from the output window and from the field's
    extent plus the distance ``2 |t| k_band`` its fastest part runs."""
    k_band = _last_above(pt.grid.kpos, phi, BAND_TOL)
    reach = _last_above(pt.grid.x, Y, 1e-9) + 2.0 * abs(t) * k_band + 8.0
    return _build_stage(pt, k_band, max(reach, xmax_out))


def evolve_spectral(
    pt: PhysicalSolutionTable,
    Y: np.ndarray,
    t: float | np.ndarray,
    sign: int = +1,
    xmax_out: float | None = None,
) -> np.ndarray:
    """Evolve the absolutely continuous component: ``e^{-itH} P_ac Y`` via
    the diagonalization ``(F^s)^dagger e^{-itk^2} F^s``.

    Accepts a single time or a sequence (evolved on one shared dense grid
    sized for the largest |t| and the output window, by one analysis and one
    synthesis).  The result is sampled on the table's spatial step up to
    ``xmax_out`` (by default the table's window), which may end inside the
    near field.  Bound states, which :func:`~.jost.bound_states` lists, are
    absent from the result by construction.

    Raises
    ------
    SpectralError
        If a time is not finite, ``xmax_out`` is negative or not finite, or
        ``Y`` is not sampled on the table's grid with its channel count.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(times).all():
        raise SpectralError(f"evolution times t must be finite, got {t}")
    if xmax_out is not None and not (xmax_out >= 0.0 and np.isfinite(xmax_out)):
        raise SpectralError(f"xmax_out must be non-negative and finite, got {xmax_out}")
    single = np.isscalar(t) or np.asarray(t).ndim == 0
    Y = _as_field(Y, pt.grid.x.size, pt.n)
    if np.all(times == 0.0) and xmax_out is None:
        out0 = fourier_maps_adjoint(pt, fourier_maps(pt, Y, sign), sign)
        return out0 if single else np.repeat(out0[None], times.size, axis=0)
    grid = pt.grid
    tmax = float(np.abs(times).max())
    stage = _stage_for(pt, Y, fourier_maps(pt, Y, sign), tmax, xmax_out or 0.0)
    kernel = stage.kernel(sign)
    # the band-limited field is resolved on every ratio-th node
    Ys = Y[:: stage.ratio]
    w = _wall_weights(Ys.shape[0], stage.dxb)
    nx_out = grid.x.size if xmax_out is None else int(np.ceil(xmax_out / grid.dx)) + 1
    # the synthesis nodes hold the near field, so a shorter output is cut after
    x_out = np.arange(max(nx_out, pt.xv.size)) * grid.dx
    mults = np.exp(-1j * times[:, None] * stage.kq**2) * stage.wk
    Zw = mults[:, :, None] * kernel.analysis(Ys, 0.0, stage.dxb, w, Y[: pt.xv.size])
    stage.check_overflow(kernel, Zw)
    out = kernel.synthesis(Zw, x_out)[:, :nx_out]
    return out[0] if single else out


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

    Raises
    ------
    SpectralError
        If ``t`` is not finite, or ``Y`` is not sampled on the table's grid
        with its channel count.
    """
    if not np.isfinite(t):
        raise SpectralError(f"evolution time t must be finite, got {t}")
    grid = pt.grid
    Y = _as_field(Y, grid.x.size, pt.n)
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
    w = _wall_weights(xs.size, stage.dxb)
    Zw = mult[:, None] * kernel.analysis(u, 0.0, stage.dxb, w, u_near)
    stage.check_overflow(kernel, Zw)
    return kernel.synthesis(Zw, grid.x)
