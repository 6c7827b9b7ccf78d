"""Physical solutions, generalized Fourier maps, and time evolution.

The physical solution ``Psi(k, x) = f(-k, x) + f(k, x) S(k)`` combines the
two Jost solutions through the scattering matrix.  Only its wall values are
stored, for the boundary condition; the maps read it through the Faddeev
factor ``m`` on the near field and ``S``, since beyond the potential's
support it is an exact plane-wave combination.  Every generalized Fourier
map, forward (analysis) or adjoint (synthesis), is evaluated by one kernel,
``Psi(-sign*k, x)^dagger``: one plane-wave sum over the whole window at
``+-k`` at once, plus a near-field correction.  Time evolution conjugates
the multiplier ``e^{-itk^2}`` by the maps on one momentum grid whose period
holds the evolved field and the output window: ``Psi(k, x) phi(k)`` is even
in ``k`` (``S`` is unitary), so its sum over the positive nodes of a grid
closed under ``k -> -k`` is a sum over the whole line and converges
geometrically once the period holds the field.  The table's own positive
nodes are that grid wherever their period ``2 pi / dk`` holds the span, the
field's reach at the largest time and the output window: then the
evolution is the table grid's analysis, the multipliers and its synthesis,
with nothing read between the nodes (:class:`_TableStage`).  Past that
span a dense momentum grid evolves (:class:`_DenseStage`); its error comes
from reading ``S`` and the near-field sums between the table's nodes, which
fixes a number of dense momenta per table step.

On the table grid, which is closed under ``k -> -k``, the maps read the
Jost solution on the near field through the Jost table's cell factors
(:class:`~.jost.NearField`): per cell, real factors of each ``|k|`` and
node, and coefficients of each momentum.  Beyond the near field ``f(k, x) =
e^{ikx} I``, so the table-grid maps take the whole of ``f`` on the nodes
before its last and plane waves from there on, and no product subtracts
``e^{ikx} I``.  Analysis turns the field into each cell's basis, contracts
it with the factors (one real product per cell and channel) and combines
the result with each momentum's coefficients; synthesis is its exact
transpose, with the coefficients of ``+-k`` folded onto ``|k|``.  The map
kernel (:class:`_MapKernel`) reads both off the ``NearField`` itself.  The
near-field sums are linear in ``m``, so the dense grid reads those of the
table grid, less their plane-wave part, and one not-a-knot spline carries
the small result, ``(nk, n)``, to the dense momenta; :func:`evolve_spectral`
forms them once, for the map that chooses its stage and for the spline.
Before the spline the sums are demodulated by the phase of the near
field's end, which halves the frequencies the spline must follow
(:class:`_NearSpline`).  Synthesis is the exact transpose: the spline's
adjoint (:func:`~.grids.spline_adjoint`) gathers the dense momenta onto the
table grid, then the table grid's synthesis less its plane-wave part.  So
no ``m`` table, no slope table of ``m`` and no phase table on the dense
grid is ever formed.  Where the near field is the wall alone (a zero
potential) the maps skip it.  Evolution on either grid is one analysis,
the multipliers of every time, the overflow monitor on the grid's circle,
and one synthesis of all the times as rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import fft

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
)
from .jost import JostTable, NearField
from .potentials import _matmul
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

#: dense momenta per step of the table grid, for evolutions whose span the
#: table period ``2 pi / dk`` does not hold (the table grid evolves the
#: rest, the benchmark's among them): the dense stage reads ``S`` and the
#: near-field sums through splines on the table grid; at 1, 2 and 3 per
#: step the dense evolutions of the 2x2 benchmark's probe fields to ``t =
#: 1`` deviate from those at 12 per step by 5.1e-6, 5.2e-7 and 9.5e-8 of
#: their peak
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


def _check_finite(Y: np.ndarray, name: str) -> None:
    """Raise :class:`SpectralError` naming ``name`` unless every sample of
    ``Y`` is finite: one NaN would spread through every sum that reads it."""
    if not np.isfinite(Y).all():
        raise SpectralError(f"{name} must be finite, got a non-finite sample")


def _check_sign(sign: int) -> None:
    if sign not in (+1, -1):
        raise SpectralError(f"sign must be +1 or -1, got {sign}")


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
    Jost table's cell factors ``near`` (the same object), from which no
    ``f`` or ``m`` table is formed; beyond ``xv[-1]`` it equals ``e^{-ikx}
    I + e^{ikx} S(k)`` exactly.  Every map contracts with the factors, and
    off the grid splines the sums formed with them.  ``S`` is read off the
    grid through its not-a-knot spline (:class:`~.grids.UniformSpline`),
    built once and kept.
    """

    k: np.ndarray
    xv: np.ndarray
    psi0: np.ndarray
    psi0prime: np.ndarray
    near: NearField
    S: np.ndarray
    grid: KXGrid
    boundary: BoundaryPair

    @property
    def n(self) -> int:
        return self.S.shape[-1]

    @cached_property
    def _S_spline(self) -> UniformSpline:
        """``S`` between the stored momenta: its not-a-knot spline."""
        return UniformSpline(self.k, self.S)


def physical_solution(jt: JostTable, st: ScatteringTable) -> PhysicalSolutionTable:
    """Assemble ``Psi(k, 0) = f(-k, 0) + f(k, 0) S(k)`` and ``Psi'(k, 0)`` from
    the Jost table's wall values, alongside its cell factors and ``S``."""
    if not np.array_equal(jt.k, st.k):
        raise SpectralError("Jost and scattering tables live on different momentum grids")
    f, fp = jt.wall
    return PhysicalSolutionTable(
        k=jt.k,
        xv=jt.xv,
        psi0=f[::-1] + _matmul(f, st.S),
        psi0prime=fp[::-1] + _matmul(fp, st.S),
        near=jt.near,
        S=st.S,
        grid=jt.grid,
        boundary=st.boundary,
    )


def boundary_residual(pt: PhysicalSolutionTable) -> float:
    """Largest defect of the boundary condition satisfied by the physical
    solutions, ``-B^dagger Psi(k,0) + A^dagger Psi'(k,0)``, scaled per momentum
    by the size of the boundary pair at that momentum."""
    A, B = pt.boundary.A, pt.boundary.B
    res = _matmul(A.conj().T, pt.psi0prime) - _matmul(B.conj().T, pt.psi0)
    scale = np.linalg.norm(B, 2) + np.abs(pt.k) * np.linalg.norm(A, 2)
    return float((np.linalg.norm(res, axis=(-2, -1)) / scale).max())


# -- cosine transform --------------------------------------------------------


def _mirror(y: np.ndarray) -> np.ndarray:
    """``-y`` reversed, then ``y``, a first node ``y[0] = 0`` kept once: ``-y[i]``
    is node ``len(y) - 1 - i``, ``y[i]`` node ``i`` of the last ``len(y)``."""
    return np.concatenate([-y[::-1][: y.size - int(y[0] == 0.0)], y])


def _cosine_sum(g: np.ndarray, k0: float, dk: float, y: np.ndarray) -> np.ndarray:
    """``sum_j g_j cos((k0 + j dk) y_l)``: the mean of the sums at ``+-y``,
    read off one :func:`fourier_sum` on the mirrored nodes."""
    both = fourier_sum(g, k0, dk, _mirror(y))
    return 0.5 * (both[both.shape[0] - y.size :] + both[y.size - 1 :: -1])


def f0_transform(grid: KXGrid, Y: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Cosine transform ``sqrt(2/pi) integral_0^inf cos(kx) Y(x) dx`` by
    composite-Simpson quadrature on the spatial grid; a non-finite sample of
    ``Y`` raises :class:`SpectralError`."""
    kq = grid.kpos if k is None else np.asarray(k, dtype=float)
    Y = _as_field(Y, grid.x.size)
    _check_finite(Y, "field samples Y")
    Yw = Y * simpson_weights(grid.x)[:, None]
    return np.sqrt(2.0 / np.pi) * _cosine_sum(Yw, grid.x[0], grid.dx, kq)


# -- generalized Fourier maps ------------------------------------------------


@dataclass(frozen=True)
class _NearSpline:
    """The near-field sums of ``f(q, x) - e^{iqx} I`` at momenta ``q`` off the
    table grid: ``+kq`` then ``-kq`` for uniform positive ``kq``.

    The sums are linear in ``m``, so they are formed on the table grid, from
    the :class:`~.jost.NearField` sums less their plane-wave part, at the
    knots ``k``, and the small result is interpolated, not ``m``.  As a
    function of ``k``, ``e^{ikx} (m(k, x) - I) = integral_x^{2b - x} K(x, y)
    e^{iky} dy`` is a transform of the Marchenko kernel for a potential
    supported in ``[0, b]``, with frequencies ``y`` in ``[0, 2b]``.
    Demodulated by ``e^{-ikc}`` (``demod``) at the near field's end ``c =
    xv[-1] >= b``, the sums hold frequencies of at most ``c``, where ``m -
    I`` itself holds up to ``2b``; on the test fixtures the spline of ``m``
    erred 2 to 5 times more.  One spline carries them to ``q``, where
    ``e^{iqc}`` (``remod``) restores the phase.  The plane sums of the dense
    grid cover the whole window.  Synthesis is the exact transpose of that
    path: :func:`~.grids.spline_adjoint`, then the near field's synthesis
    less its plane-wave part.  ``dx`` is the table grid's spatial step.
    """

    near: NearField
    k: np.ndarray
    q: np.ndarray
    demod: np.ndarray
    remod: np.ndarray
    dx: float

    #: the dense grid's plane sums cover the whole window
    start = 0

    @classmethod
    def on(cls, near: NearField, grid: KXGrid, kq: np.ndarray) -> "_NearSpline":
        """The sums at ``+-kq`` from ``near`` on the table grid, splined on
        the knots within ``SWEEP_BLOCK`` pieces of ``+-kq``: the end
        conditions there move the pieces that hold ``+-kq`` by under
        ``2^-60``."""
        k = grid.k
        dk = (k[-1] - k[0]) / (k.size - 1)
        knots = np.flatnonzero(np.abs(k) <= kq[-1] + (SWEEP_BLOCK + 1) * dk)
        k, c, q = k[knots[0] : knots[-1] + 1], near.x[-1:], np.concatenate([kq, -kq])
        return cls(near, k, q, _phases(-k, c)[:, 0], _phases(q, c)[:, 0], grid.dx)

    def analysis(self, Ynear: np.ndarray, sums: np.ndarray | None = None) -> list[np.ndarray]:
        """``sum_x w(x) (f(+-q, x) - e^{+-iqx} I)^T conj(Y(x))`` over ``x <
        xv[-1]`` for both factors at ``kq``, each ``(len(kq), n)``, from the
        near field's sums of the field (``sums`` if given) less their plane
        part, both on the whole table grid, at the knots."""
        near = self.near
        Yc = near.weighted(Ynear)
        if sums is None:
            sums = near.sums(Yc)
        R = sums - fourier_sum(Yc, near.x[0], self.dx, near.k, +1)
        lo = np.searchsorted(near.k, self.k[0])
        R = R[lo : lo + self.k.size] * self.demod[:, None]
        return np.split(UniformSpline(self.k, R)(self.q) * self.remod[:, None], 2)

    def synthesis(self, Z: np.ndarray, Zm: np.ndarray) -> np.ndarray:
        """``sum_q (f(q, x) - e^{iqx} I) Z(q) + (f(-q, x) - e^{-iqx} I)
        Zm(q)`` over ``kq`` on ``x < xv[-1]`` for each row of ``Z`` and
        ``Zm`` (shape ``(rows, len(kq), n)``), shape ``(rows, nodes, n)``."""
        J, near = self.k.size // 2, self.near
        V = np.concatenate([Z, Zm], axis=1) * self.remod[:, None]
        U = spline_adjoint(self.k, self.q, V.transpose(1, 0, 2)) * self.demod[:, None, None]
        whole = near.synthesis(U[J:].transpose(1, 0, 2), U[J - 1 :: -1].transpose(1, 0, 2))
        dk = (self.k[-1] - self.k[0]) / (self.k.size - 1)
        return whole - fourier_sum(U, self.k[0], dk, near.x[: near.start], +1).transpose(1, 0, 2)


@dataclass(frozen=True)
class _MapKernel:
    """The kernel ``Psi(-sign*k, x)^dagger`` of one generalized Fourier map on
    uniform positive momenta ``k`` with spacing ``dk``.

    Beyond the near field the kernel is the plane-wave pair
    ``e^{-i sign k x} + S(-sign*k)^dagger e^{i sign k x}``, summed by one
    :func:`fourier_sum` over the mirrored momenta (:func:`_mirror`), one
    Bluestein circle of ``2K + m - 1`` points, not two of ``K + m - 1``:
    analysis reads both halves off one result, and synthesis sums ``Z`` at
    ``+k`` and ``S Z`` at ``-k``.  On the nodes before ``xv[-1]`` the
    Faddeev factors ``m(sign*k)`` and ``m(-sign*k)`` enter through ``near``,
    whose products split or fold the momenta by sign, ``+k`` first: the
    table's own :class:`~.jost.NearField`, which holds the whole Jost
    solution there, so that the plane sums start at ``xv[-1]``; or a
    :class:`_NearSpline` of it on a dense grid, which holds its ``(m - I)``
    part, the plane sums covering the whole window; or ``None`` where the
    near field is the wall alone.  ``S`` holds ``S(-sign*k)``.  Analysis and
    synthesis read the same ``near``, so they are adjoint to roundoff
    whenever the synthesis nodes are the analysis nodes with ``xv`` as a
    prefix.
    """

    sign: int
    k: np.ndarray
    dk: float
    S: np.ndarray
    near: NearField | _NearSpline | None

    def __post_init__(self) -> None:
        _check_sign(self.sign)

    @property
    def start(self) -> int:
        """The first node of the plane sums."""
        return 0 if self.near is None else self.near.start

    def analysis(
        self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray, Ynear: np.ndarray,
        sums: np.ndarray | None = None,
    ) -> np.ndarray:
        """``sqrt(1/2pi) sum_x w(x) Psi(-sign*k, x)^dagger Y(x)`` for samples
        ``Y`` on the nodes ``x0 + j dx``; ``Ynear`` holds the field on
        ``xv``, and ``sums`` may hold the table grid's near sums of it
        (:meth:`~.jost.NearField.sums`), formed once for both grids."""
        j, K = self.start, self.k.size
        both = fourier_sum(Y[j:] * w[j:, None], x0 + j * dx, dx, _mirror(self.k), -self.sign)
        out = both[both.shape[0] - K :] + np.einsum("kji,kj->ki", self.S.conj(), both[K - 1 :: -1])
        if self.near is not None:
            # e^{-i sign k x} m_s^dagger Y + S^dagger e^{i sign k x} m_ms^dagger Y (less I for the
            # dense grid), summed over the near field as the conjugate of its transpose
            near, mirror = self.near.analysis(Ynear, sums)[:: self.sign]
            out += (near + np.einsum("kji,kj->ki", self.S, mirror)).conj()
        return out / np.sqrt(2.0 * np.pi)

    def synthesis(self, Zw: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``sqrt(1/2pi) sum_k Psi(-sign*k, x) Zw(k)`` at uniform nodes ``x``
        whose prefix is ``xv``; ``Zw`` carries the momentum weights.  ``Zw``
        is one field, ``(len(k), n)``, or a stack of them, ``(rows, len(k),
        n)``, whose plane sums run as one pair over all the rows."""
        Z = Zw.reshape((-1,) + Zw.shape[-2:])
        SZ = np.einsum("kij,tkj->tki", self.S, Z)
        j, K, mirror = self.start, self.k.size, _mirror(self.k)
        # Z at +k and S Z at -k on one coefficient vector, both added at k = 0
        C = np.zeros((mirror.size, Z.shape[0], Z.shape[2]), dtype=complex)
        C[mirror.size - K :] = Z.transpose(1, 0, 2)
        C[K - 1 :: -1] += SZ.transpose(1, 0, 2)
        k0 = -(np.longdouble(self.k[0]) + (K - 1) * np.longdouble(self.dk))
        plane = fourier_sum(C, k0, self.dk, x[j:], self.sign)
        out = plane.transpose(1, 0, 2)
        if j:
            out = np.concatenate([np.zeros((Z.shape[0], j, Z.shape[2])), out], axis=1)
        if self.near is not None:  # on the near-field nodes before the last
            near = self.near.synthesis(*(Z, SZ)[:: self.sign])
            out[:, : near.shape[1]] += near
        out /= np.sqrt(2.0 * np.pi)
        return out.reshape(Zw.shape[:-2] + out.shape[1:])


def _table_kernel(pt: PhysicalSolutionTable, sign: int) -> _MapKernel:
    """The map kernel on the positive nodes of the table grid, reading the
    stored ``S`` and the Jost table's cell factors (``k[::-1] == -k``
    exactly)."""
    npos = pt.grid.npos
    S = pt.S[npos - 1 :: -1] if sign == +1 else pt.S[npos:]
    near = None if pt.near.vanishes else pt.near
    return _MapKernel(sign, pt.grid.kpos, pt.grid.dk, S, near)


def fourier_maps(pt: PhysicalSolutionTable, Y: np.ndarray, sign: int = +1) -> np.ndarray:
    """Generalized Fourier map on the positive momentum nodes:
    ``sqrt(1/2pi) integral Psi(-sign*k, x)^dagger Y(x) dx``.

    The integral runs over the whole spatial window as plane-wave sums plus a
    near-field correction supported where the Faddeev factor differs from the
    identity, so no full solution table over the window is ever formed.  A
    non-finite sample of ``Y`` raises :class:`SpectralError`.
    """
    grid = pt.grid
    Y = _as_field(Y, grid.x.size, pt.n)
    _check_finite(Y, "field samples Y")
    return _table_kernel(pt, sign).analysis(Y, grid.x[0], grid.dx, grid.wx, Y[: pt.xv.size])


def fourier_maps_adjoint(
    pt: PhysicalSolutionTable, Z: np.ndarray, sign: int = +1
) -> np.ndarray:
    """Adjoint map ``sqrt(1/2pi) integral_0^inf Psi(-sign*k, x) Z(k) dk`` on
    the spatial grid (midpoint momentum weights, so quadrature duality with
    the forward map is exact up to roundoff).  A non-finite sample of ``Z``
    raises :class:`SpectralError`."""
    Z = _as_field(Z, pt.grid.npos, pt.n)
    _check_finite(Z, "spectral samples Z")
    Zw = Z * pt.grid.dk
    return _table_kernel(pt, sign).synthesis(Zw, pt.grid.x)


# -- momentum stages for time evolution --------------------------------------


class _Stage:
    """The momentum grid of one evolution: the map kernels on its positive
    momenta ``kq``, their weights ``wk``, the field's analysis there, and the
    circle of one period of the synthesized fields, whose lower half is the
    evolution domain, ``width`` wide."""

    def check_overflow(self, kernel: _MapKernel, Zw: np.ndarray) -> None:
        """Reconstruct each field synthesized from ``Zw``, one field ``(len(kq),
        n)`` or a stack of them, on the whole circle (one FFT for all,
        ``_circle_field``) and abort if too much of any one's mass reaches the
        outer tenth of the physical half-domain.

        The conjugate-phase term always parks a mirror copy of the field in
        the upper half of the circle, so the physical domain is the lower
        half and wrap-around shows up as mass near the midpoint, where the
        direct and mirrored copies collide."""
        mass = np.abs(self._circle_field(kernel, Zw)) ** 2
        size = mass.shape[-2]
        total = mass.sum(axis=(-2, -1))
        outer = mass[..., int(0.45 * size) : int(0.55 * size), :].sum(axis=(-2, -1))
        worst = float(np.max(outer / np.maximum(total, np.finfo(float).tiny)))
        if worst > OVERFLOW_FRACTION:
            raise WindowOverflow(
                f"{worst:.1%} of the evolved mass sits in the outer tenth "
                f"of the {self.width:.0f}-wide evolution domain"
            )


@dataclass(frozen=True)
class _TableStage(_Stage):
    """The table grid as the momentum grid of an evolution: its positive
    nodes with their midpoint weights ``dk``, its own map kernels, and the
    field's spectrum ``phi`` there, the analysis that chose the stage.  On
    the half-offset nodes every synthesized field is antiperiodic with period
    ``2 pi / dk``, so its mass repeats with that period: the circle."""

    pt: PhysicalSolutionTable
    phi: np.ndarray

    @property
    def kq(self) -> np.ndarray:
        return self.pt.grid.kpos

    @property
    def wk(self) -> float:
        return self.pt.grid.dk

    @property
    def width(self) -> float:
        return np.pi / self.pt.grid.dk

    def kernel(self, sign: int) -> _MapKernel:
        return _table_kernel(self.pt, sign)

    def analysis(
        self, kernel: _MapKernel, Y: np.ndarray, Ynear: np.ndarray, sums: np.ndarray | None
    ) -> np.ndarray:
        """The field's spectrum on the table grid, already at hand."""
        return self.phi

    def _circle_field(self, kernel: _MapKernel, Zw: np.ndarray) -> np.ndarray:
        """Each field synthesized from ``Zw`` at the ``M = 2 npos`` nodes
        ``x_l = l pi / kmax`` of one period, times ``e^{i pi l / M}``, a phase
        no mass sees: as ``k_j x_l = 2 pi (j + 1/2) l / M``, the coefficients
        of ``e^{-i k_j x}`` enter one FFT at index ``j`` and those of ``e^{i
        k_j x}`` at ``M - 1 - j``."""
        SZ = np.einsum("kij,...kj->...ki", kernel.S, Zw)
        first, second = (Zw, SZ) if kernel.sign == +1 else (SZ, Zw)
        return fft(np.concatenate([second, first[..., ::-1, :]], axis=-2), axis=-2)


@dataclass(frozen=True)
class _DenseStage(_Stage):
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

    @property
    def width(self) -> float:
        return self.nfft * self.dxb / 2

    def kernel(self, sign: int) -> _MapKernel:
        """The map kernel on ``kq``: ``S`` from its spline at ``-sign*kq``,
        the near-field sums from ``near`` unless ``m = I`` there."""
        pt = self.pt
        near = None if pt.near.vanishes else self.near
        return _MapKernel(sign, self.kq, self.dkq, pt._S_spline(-sign * self.kq), near)

    @cached_property
    def near(self) -> _NearSpline:
        """The near-field sums at ``+-kq``, read from the table's cell factors."""
        return _NearSpline.on(self.pt.near, self.pt.grid, self.kq)

    def analysis(
        self, kernel: _MapKernel, Y: np.ndarray, Ynear: np.ndarray, sums: np.ndarray | None
    ) -> np.ndarray:
        """The field's spectrum on ``kq`` from every ``ratio``-th node, on
        which the band-limited field is resolved, and the table grid's near
        sums ``sums`` of it."""
        Ys = Y[:: self.ratio]
        return kernel.analysis(Ys, 0.0, self.dxb, _wall_weights(Ys.shape[0], self.dxb), Ynear, sums)

    def _circle_field(self, kernel: _MapKernel, Zw: np.ndarray) -> np.ndarray:
        """Each field synthesized from ``Zw`` on the full FFT circle: ``nfft
        ifft(c1) + fft(c2)``, for the coefficients ``c1`` of ``e^{ikx}`` and
        ``c2`` of ``e^{-ikx}``, is one FFT of ``c2`` plus ``c1[(-k) mod nfft]``,
        which fills index 0 and ``nfft - L + 1`` on (``L = len(kq)``), clear of
        ``c2`` as ``2L - 1 <= nfft``: ``dx <= pi / (4 kmax)`` makes
        :func:`_build_stage` give ``L <= nfft / 8 + 2``."""
        SZ = np.einsum("kij,...kj->...ki", kernel.S, Zw)
        first, second = (Zw, SZ) if kernel.sign == +1 else (SZ, Zw)
        c = np.zeros(Zw.shape[:-2] + (self.nfft, Zw.shape[-1]), dtype=complex)
        c[..., : self.kq.size, :] = second
        c[..., 0, :] += first[..., 0, :]
        c[..., self.nfft - self.kq.size + 1 :, :] = first[..., :0:-1, :]
        return fft(c, axis=-2)


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
    above = np.flatnonzero(norms > tol * norms.max())
    return float(nodes[above[-1] if above.size else 0])


def _wrap_length(grid: KXGrid, span: float) -> float:
    """The period that keeps fields held on ``[0, span]``, and the table's
    window, apart from their mirror copies and their next periods."""
    return 2.2 * max(span, grid.xmax)


def _build_stage(pt: PhysicalSolutionTable, k_band: float, span: float) -> _DenseStage:
    """Dense stage for fields of band edge ``k_band`` held on ``[0, span]``:
    the circle is the largest of the wrap bound (:func:`_wrap_length`), the
    ``DENSE_PER_TABLE_STEP`` bound on the momentum step, and twice the
    table's window."""
    grid = pt.grid
    k_band = min(max(k_band, 1.0), 0.95 * grid.kmax)
    ratio = max(1, int(np.floor(np.pi / (4.0 * k_band) / grid.dx)))
    dxb = ratio * grid.dx
    n_wrap = int(np.ceil(_wrap_length(grid, span) / dxb))
    n_table = int(np.ceil(DENSE_PER_TABLE_STEP * 2.0 * np.pi / (grid.dk * dxb)))
    nfft = next_fast_len(max(n_wrap, n_table, 2 * grid.x.size // ratio + 2))
    dkq = 2.0 * np.pi / (nfft * dxb)
    L = int(np.ceil(k_band / dkq)) + 1
    kq = dkq * np.arange(L)
    wk = _wall_weights(L, dkq)
    return _DenseStage(pt=pt, nfft=nfft, ratio=ratio, dxb=dxb, dkq=dkq, kq=kq, wk=wk)


def _band_and_reach(
    pt: PhysicalSolutionTable, Y: np.ndarray, phi: np.ndarray, t: float
) -> tuple[float, float]:
    """The band edge of ``Y``, whose spectrum on the positive table nodes is
    ``phi``, and its reach at time ``t``: the field's extent plus the
    distance ``2 |t| k_band`` its fastest part runs."""
    k_band = _last_above(pt.grid.kpos, phi, BAND_TOL)
    return k_band, _last_above(pt.grid.x, Y, 1e-9) + 2.0 * abs(t) * k_band + 8.0


def _stage_for(
    pt: PhysicalSolutionTable, Y: np.ndarray, phi: np.ndarray, t: float, xmax_out: float = 0.0
) -> _TableStage | _DenseStage:
    """The stage for evolving ``Y``, whose spectrum on the positive table
    nodes is ``phi``, to time ``t`` and sampling it up to ``xmax_out``: the
    table grid when its period ``2 pi / dk`` holds the wrap bound of the
    span, the larger of the reach (:func:`_band_and_reach`) and the output
    window, and otherwise a dense stage for that span."""
    k_band, reach = _band_and_reach(pt, Y, phi, t)
    span = max(reach, xmax_out)
    if _wrap_length(pt.grid, span) <= 2.0 * np.pi / pt.grid.dk:
        return _TableStage(pt, phi)
    return _build_stage(pt, k_band, span)


def evolve_spectral(
    pt: PhysicalSolutionTable,
    Y: np.ndarray,
    t: float | np.ndarray,
    sign: int = +1,
    xmax_out: float | None = None,
) -> np.ndarray:
    """Evolve the absolutely continuous component: ``e^{-itH} P_ac Y`` via
    the diagonalization ``(F^s)^dagger e^{-itk^2} F^s``.

    Accepts a single time or a sequence, evolved on one momentum grid sized
    for the largest |t| and the output window, by one analysis and one
    synthesis of all the times.  That grid is the table's own wherever its
    period ``2 pi / dk`` holds the wrap bound of the span, the field's reach
    at the largest |t| or the output window, and otherwise a dense grid
    between the table's nodes.  So at ``t = 0`` with the default output
    window, on a table grid that holds the span, the result is
    ``fourier_maps_adjoint(fourier_maps(Y))`` to the bit.  The result is
    sampled on the table's spatial step up to ``xmax_out`` (by default the
    table's window), which may end inside the near field.  Bound states,
    which :func:`~.jost.bound_states` lists, are absent from the result by
    construction.

    Raises
    ------
    SpectralError
        If a time is not finite, ``xmax_out`` is negative or not finite, or
        ``Y`` is not sampled on the table's grid with its channel count or
        has a non-finite sample.
    WindowOverflow
        If more than ``OVERFLOW_FRACTION`` of an evolved field's mass
        reaches the outer tenth of the evolution domain.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(times).all():
        raise SpectralError(f"evolution times t must be finite, got {t}")
    if xmax_out is not None and not (xmax_out >= 0.0 and np.isfinite(xmax_out)):
        raise SpectralError(f"xmax_out must be non-negative and finite, got {xmax_out}")
    single = np.isscalar(t) or np.asarray(t).ndim == 0
    Y = _as_field(Y, pt.grid.x.size, pt.n)
    _check_finite(Y, "field samples Y")
    grid = pt.grid
    # the table grid's analysis chooses the stage, and there it is the spectrum;
    # its near sums feed a dense stage's spline
    table, Ynear = _table_kernel(pt, sign), Y[: pt.xv.size]
    sums = None if table.near is None else pt.near.sums(pt.near.weighted(Ynear))
    phi = table.analysis(Y, grid.x[0], grid.dx, grid.wx, Ynear, sums)
    stage = _stage_for(pt, Y, phi, float(np.abs(times).max()), xmax_out or 0.0)
    kernel = stage.kernel(sign)
    nx_out = grid.x.size if xmax_out is None else int(np.ceil(xmax_out / grid.dx)) + 1
    # the synthesis nodes hold the near field, so a shorter output is cut after
    x_out = np.arange(max(nx_out, pt.xv.size)) * grid.dx
    mults = np.exp(-1j * times[:, None] * stage.kq**2) * stage.wk
    Zw = mults[:, :, None] * stage.analysis(kernel, Y, Ynear, sums)
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
        with its channel count or has a non-finite sample.
    """
    if not np.isfinite(t):
        raise SpectralError(f"evolution time t must be finite, got {t}")
    grid = pt.grid
    Y = _as_field(Y, grid.x.size, pt.n)
    _check_finite(Y, "field samples Y")
    stage = _build_stage(pt, *_band_and_reach(pt, Y, f0_transform(grid, Y), t))
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
