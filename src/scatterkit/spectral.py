"""Physical solutions, generalized Fourier maps, and time evolution.

The physical solution ``Psi(k, x) = f(-k, x) + f(k, x) S(k)`` combines the
two Jost solutions through the scattering matrix.  Only its wall values are
stored, for the boundary condition; the maps read it through the Faddeev
factor ``m`` on the near field and ``S``, since beyond the potential's
support it is an exact plane-wave combination.  Every generalized Fourier
map, forward (analysis) or adjoint (synthesis), is evaluated by one kernel,
``Psi(-sign*k, x)^dagger``: two plane-wave sums over the whole window plus a
near-field correction, summed block by block over the momenta.  The kernel
runs on the table's positive momentum nodes, reading the stored tables, or
on a dense momentum grid for time evolution, which conjugates the multiplier
``e^{-itk^2}`` by the maps: fixed grids cannot resolve the quadratic phase
once ``2 t k`` outruns the node spacing, so the dense grid is sized from a
phase-resolution budget and the stored tables are interpolated onto it (they
are smooth in momentum).  Evolution runs the analysis and every synthesis
in one pass over the momentum blocks.
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

#: complex elements per Faddeev-factor table in one block of a map's near-field sums
CHUNK = 1 << 21
#: maximum radians of accumulated phase between adjacent dense momentum nodes
PHASE_BUDGET = 0.3
#: relative spectral amplitude treated as the band edge
BAND_TOL = 1e-6
#: abort threshold for mass reaching the outer tenth of the evolution domain
OVERFLOW_FRACTION = 0.01


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
    ``e^{-ikx} I + e^{ikx} S(k)`` exactly.  Off the grid, ``mnear`` and ``S``
    are read through the not-a-knot :class:`~.grids.UniformSpline`.
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
    def _spline_m(self) -> UniformSpline:
        return UniformSpline(self.k, self.mnear)


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


@dataclass(frozen=True)
class _MapKernel:
    """The kernel ``Psi(-sign*k, x)^dagger`` of one generalized Fourier map on
    uniform momenta ``k`` with spacing ``dk``.

    Beyond the near field the kernel is the plane-wave pair
    ``e^{-i sign k x} + S(-sign*k)^dagger e^{i sign k x}``, summed by
    :func:`fourier_sum`; on the near-field nodes ``xv`` the Faddeev factors
    add ``(m - I)`` corrections.  ``S`` holds ``S(-sign*k)`` and
    ``tables(block)`` returns ``m(sign*k, xv)`` and ``m(-sign*k, xv)`` on a
    slice of the momenta.  Analysis and synthesis read the same arrays, so
    they are adjoint to roundoff whenever the synthesis nodes are the
    analysis nodes with ``xv`` as a prefix.
    """

    sign: int
    k: np.ndarray
    dk: float
    xv: np.ndarray
    S: np.ndarray
    tables: Callable[[slice], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise SpectralError("sign must be +1 or -1")

    def _blocks(self):
        """Momentum blocks with their phases ``e^{i sign k xv}`` and tables;
        each table holds at most ``CHUNK`` elements."""
        n = self.S.shape[-1]
        step = max(1, CHUNK // (self.xv.size * n * n))
        for a in range(0, self.k.size, step):
            blk = slice(a, a + step)
            ph = np.exp(1j * self.sign * np.outer(self.k[blk], self.xv))
            yield (blk, ph) + self.tables(blk)

    def _plane_analysis(self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray) -> np.ndarray:
        """The plane-wave part of the analysis sum, unscaled."""
        Yw = Y * w[:, None]
        out = fourier_sum(Yw, x0, dx, self.k, -self.sign)
        out += np.einsum("kji,kj->ki", self.S.conj(), fourier_sum(Yw, x0, dx, self.k, self.sign))
        return out

    def _near_analysis(self, blk, ph, m_s, m_ms, Yc: np.ndarray) -> np.ndarray:
        """The near-field part of the analysis sum on one block, unscaled;
        ``Yc`` is the conjugate of the weighted field on ``xv``."""
        # e^{-i sign k x} (m_s - I)^dagger Y + S^dagger e^{i sign k x} (m_ms - I)^dagger Y,
        # summed over xv as the conjugate of its transpose
        near = _near_t(ph, m_s, Yc)
        near += np.einsum("kji,kj->ki", self.S[blk], _near_t(ph.conj(), m_ms, Yc))
        return near.conj()

    @staticmethod
    def _near_synthesis(ph, m_s, m_ms, Zw: np.ndarray, SZ: np.ndarray) -> np.ndarray:
        """The near-field part of the synthesis sum from one block, unscaled."""
        return _near(ph, m_s, Zw) + _near(ph.conj(), m_ms, SZ)

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
        for blk, ph, m_s, m_ms in self._blocks():
            out[blk] += self._near_analysis(blk, ph, m_s, m_ms, Yc)
        return out / np.sqrt(2.0 * np.pi)

    def synthesis(self, Zw: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``sqrt(1/2pi) sum_k Psi(-sign*k, x) Zw(k)`` at uniform nodes ``x``
        whose prefix is ``xv``; ``Zw`` carries the momentum weights."""
        SZ = np.einsum("kij,kj->ki", self.S, Zw)
        out = self._plane_synthesis(Zw, SZ, x)
        for blk, ph, m_s, m_ms in self._blocks():
            out[: self.xv.size] += self._near_synthesis(ph, m_s, m_ms, Zw[blk], SZ[blk])
        return out / np.sqrt(2.0 * np.pi)

    def transfer(
        self, Y: np.ndarray, x0: float, dx: float, w: np.ndarray, Ynear: np.ndarray,
        mults: np.ndarray, x: np.ndarray, check: Callable[[np.ndarray], None],
    ) -> list[np.ndarray]:
        """``synthesis(mult * analysis(Y), x)`` for every row ``mult`` of
        ``mults`` (weights included), in one pass over the momentum blocks:
        each block's phases and tables serve its near-field analysis and then
        every synthesis.  ``check`` sees every ``Zw`` before the plane sums
        run, so a failing check returns nothing."""
        phi = self._plane_analysis(Y, x0, dx, w)
        Yc = np.conj(Ynear * trapezoid_weights(self.xv)[:, None])
        Zw = np.empty((mults.shape[0],) + phi.shape, dtype=complex)
        SZ = np.empty_like(Zw)
        near = np.zeros((mults.shape[0], self.xv.size, phi.shape[1]), dtype=complex)
        for blk, ph, m_s, m_ms in self._blocks():
            phi[blk] += self._near_analysis(blk, ph, m_s, m_ms, Yc)
            phi[blk] /= np.sqrt(2.0 * np.pi)
            Zw[:, blk] = mults[:, blk, None] * phi[blk]
            SZ[:, blk] = np.einsum("kij,tkj->tki", self.S[blk], Zw[:, blk])
            for Z, SZi, acc in zip(Zw[:, blk], SZ[:, blk], near):
                acc += self._near_synthesis(ph, m_s, m_ms, Z, SZi)
        for Z in Zw:
            check(Z)
        outs = []
        for Z, SZi, acc in zip(Zw, SZ, near):
            out = self._plane_synthesis(Z, SZi, x)
            out[: self.xv.size] += acc
            outs.append(out / np.sqrt(2.0 * np.pi))
        return outs


def _near(ph: np.ndarray, m: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``sum_k ph(k, x) (m(k, x) - I) Z(k)`` over one block, as a batched
    matrix-vector product against the table (no ``m - I`` copy)."""
    b, nxv, n = m.shape[:3]
    mZ = np.matmul(m.reshape(b, nxv * n, n), Z[:, :, None]).reshape(b, nxv, n)
    return np.einsum("kx,kxi->xi", ph, mZ) - ph.T @ Z


def _near_t(ph: np.ndarray, m: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``sum_x ph(k, x) (m(k, x) - I)^T Y(x)`` over one block, as a batched
    row-vector product against the table (no ``m - I`` copy)."""
    b, nxv, n = m.shape[:3]
    row = (ph[:, :, None] * Y).reshape(b, 1, nxv * n)
    return np.matmul(row, m.reshape(b, nxv * n, n))[:, 0] - ph @ Y


def _table_kernel(pt: PhysicalSolutionTable, sign: int) -> _MapKernel:
    """The map kernel on the positive nodes of the table grid, reading the
    stored ``S`` and Faddeev factors (``k[::-1] == -k`` exactly)."""
    npos = pt.npos
    m_pos, m_neg = pt.mnear[npos:], pt.mnear[npos - 1 :: -1]
    m_s, m_ms = (m_pos, m_neg) if sign == +1 else (m_neg, m_pos)
    S = pt.S[npos - 1 :: -1] if sign == +1 else pt.S[npos:]
    return _MapKernel(sign, pt.kpos, pt.grid.dk, pt.xv, S, lambda blk: (m_s[blk], m_ms[blk]))


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
    evolution domain.  Its map kernels interpolate the stored tables onto
    ``kq`` (they are smooth in momentum)."""

    pt: PhysicalSolutionTable
    nfft: int
    ratio: int
    dxb: float
    dkq: float
    kq: np.ndarray
    wk: np.ndarray

    def kernel(self, sign: int) -> _MapKernel:
        """The map kernel on ``kq``, with ``S`` and the Faddeev factors
        interpolated from the stored tables one block at a time."""
        pt, kq = self.pt, self.kq
        return _MapKernel(
            sign,
            kq,
            self.dkq,
            pt.xv,
            UniformSpline(pt.k, pt.S)(-sign * kq),
            lambda blk: (pt._spline_m(sign * kq[blk]), pt._spline_m(-sign * kq[blk])),
        )

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
    sized for the largest |t|, in one pass over its momentum blocks).  If a
    discrete Hamiltonian is supplied and has negative eigenvalues, a
    BoundStatesPresent warning lists them: those components are absent from
    the result by construction.
    """
    if hamiltonian is not None:
        ev = bound_states(hamiltonian)
        if ev.size:
            warnings.warn(
                f"discrete eigenvalues below zero: {np.sort(ev)}; evolving the "
                "absolutely continuous part only",
                BoundStatesPresent,
                stacklevel=2,
            )
    times = np.atleast_1d(np.asarray(t, dtype=float))
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
    x_out = np.arange(nx_out) * grid.dx
    mults = np.exp(-1j * times[:, None] * stage.kq**2) * stage.wk
    outs = kernel.transfer(
        Ys, 0.0, stage.dxb, w, Y[: pt.xv.size], mults, x_out,
        lambda Zw: stage.check_overflow(kernel, Zw),
    )
    return outs[0] if single else np.stack(outs)


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


def bound_states(dh: DiscreteHamiltonian, tol: float = 1e-8) -> np.ndarray:
    """Negative eigenvalues of the discrete model (below ``-tol``)."""
    w, _ = dh.eigenpairs
    return w[w < -tol]
