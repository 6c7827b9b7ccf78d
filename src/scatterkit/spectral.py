"""Physical solutions, generalized Fourier maps, and time evolution.

The physical solution combines the two Jost solutions through the scattering
matrix; beyond the potential's support it is an exact plane-wave combination,
so tables store only the near field and every transform splits into
closed-form plane-wave sums plus a small near-field correction.  Time
evolution conjugates the multiplier ``e^{-itk^2}`` by the generalized Fourier
maps on a t-adapted dense momentum grid: fixed grids cannot resolve the
quadratic phase once ``2 t k`` outruns the node spacing, so the dense grid is
sized from a phase-resolution budget and the stored tables are interpolated
onto it (they are smooth in momentum).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.interpolate import CubicSpline
from scipy.linalg import eig_banded

from .boundary import BoundaryPair, diagonalize_boundary
from .grids import KXGrid, fourier_sum, simpson_weights, trapezoid_weights
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
    "f0_synthesis",
    "fourier_maps",
    "fourier_maps_adjoint",
    "evolve_spectral",
    "interacting_after_free",
    "DiscreteHamiltonian",
    "discrete_hamiltonian",
    "bound_states",
    "evolve_discrete",
    "field_norm",
    "field_inner",
]

#: complex elements per transient block of the dense stage's near-field loops
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


def field_inner(Y: np.ndarray, Z: np.ndarray, w: np.ndarray) -> complex:
    """Weighted inner product (conjugate-linear in the first argument)."""
    return complex(np.einsum("x,xc,xc->", w, np.conj(_as_field(Y)), _as_field(Z)))


@dataclass(frozen=True)
class PhysicalSolutionTable:
    """Samples of the physical solutions on the near field.

    ``psi[a, j]`` holds the n-by-n solution matrix at momentum ``k[a]`` and
    position ``xv[j]``; beyond ``xv[-1]`` the solution equals
    ``e^{-ikx} I + e^{ikx} S(k)`` exactly, so it is never stored.
    """

    k: np.ndarray
    xv: np.ndarray
    psi: np.ndarray
    psi0prime: np.ndarray
    mnear: np.ndarray
    S: np.ndarray
    grid: KXGrid
    boundary: BoundaryPair
    potential: PotentialSpec

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
    def _spline_m(self) -> CubicSpline:
        return CubicSpline(self.k, self.mnear, axis=0)

    @cached_property
    def _spline_s(self) -> CubicSpline:
        return CubicSpline(self.k, self.S, axis=0)


def physical_solution(jt: JostTable, st: ScatteringTable) -> PhysicalSolutionTable:
    """Assemble ``Psi(k, x) = f(-k, x) + f(k, x) S(k)`` on the near field."""
    if not np.array_equal(jt.k, st.k):
        raise SpectralError("Jost and scattering tables live on different momentum grids")
    f = jt.f()
    fp = jt.fprime()
    psi = f[::-1] + np.einsum("axij,ajl->axil", f, st.S)
    psi0prime = fp[::-1, 0] + np.einsum("aij,ajl->ail", fp[:, 0], st.S)
    grid = jt.grid if jt.grid is not None else st.grid
    if grid is None:
        raise SpectralError("attach a grid to the Jost table before building solutions")
    return PhysicalSolutionTable(
        k=jt.k,
        xv=jt.xv,
        psi=psi,
        psi0prime=psi0prime,
        mnear=jt.m,
        S=st.S,
        grid=grid,
        boundary=st.boundary,
        potential=jt.potential,
    )


def boundary_residual(pt: PhysicalSolutionTable) -> float:
    """Largest defect of the boundary condition satisfied by the physical
    solutions, ``-B^dagger Psi(k,0) + A^dagger Psi'(k,0)``, scaled per momentum
    by the size of the boundary pair at that momentum."""
    A, B = pt.boundary.A, pt.boundary.B
    res = -np.einsum("ij,ajl->ail", B.conj().T, pt.psi[:, 0]) + np.einsum(
        "ij,ajl->ail", A.conj().T, pt.psi0prime
    )
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


def f0_synthesis(grid: KXGrid, Z: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Inverse of the cosine transform: midpoint sum over the positive
    momentum nodes (the transform is self-inverse in exact arithmetic).

    The discrete momentum sum periodizes in position with period ``2 pi/dk``
    and mirrors the field about it, so the synthesis is only faithful for
    ``x`` well inside that alias window."""
    xq = grid.x if x is None else np.asarray(x, dtype=float)
    Zw = _as_field(Z) * grid.dk
    return np.sqrt(2.0 / np.pi) * _cosine_sum(Zw, grid.kpos[0], grid.dk, xq)


# -- generalized Fourier maps on the table grid ------------------------------


def _near_weights(xv: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the near-field nodes (zero when the near field
    is a single node, where the Faddeev factor is the identity anyway)."""
    if xv.size < 2:
        return np.zeros(xv.size)
    return trapezoid_weights(xv)


def _map_tables(
    pt: PhysicalSolutionTable, sign: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stored arrays entering the kernel ``Psi(-sign*k, x)^dagger`` for
    ``k > 0``: the scattering values ``S(-sign*k)`` and the Faddeev factors
    at ``+sign*k`` and ``-sign*k``.  Forward and adjoint maps draw on the
    same arrays so their quadrature duality is exact to roundoff."""
    if sign not in (+1, -1):
        raise SpectralError("sign must be +1 or -1")
    npos = pt.npos
    flip_pos = slice(npos - 1, None, -1)
    if sign == +1:
        return pt.S[:npos][flip_pos], pt.mnear[npos:], pt.mnear[:npos][flip_pos]
    return pt.S[npos:], pt.mnear[:npos][flip_pos], pt.mnear[npos:]


def fourier_maps(pt: PhysicalSolutionTable, Y: np.ndarray, sign: int = +1) -> np.ndarray:
    """Generalized Fourier map on the positive momentum nodes:
    ``sqrt(1/2pi) integral Psi(-sign*k, x)^dagger Y(x) dx``.

    The integral runs over the whole spatial window as plane-wave sums plus a
    near-field correction supported where the Faddeev factor differs from the
    identity, so no full solution table over the window is ever formed.
    """
    grid = pt.grid
    Y = _as_field(Y)
    Yw = Y * grid.wx[:, None]
    kq = pt.kpos
    Ssel, m_s, m_ms = _map_tables(pt, sign)
    out = fourier_sum(Yw, grid.x[0], grid.dx, kq, -sign)
    out += np.einsum("kji,kj->ki", Ssel.conj(), fourier_sum(Yw, grid.x[0], grid.dx, kq, sign))
    eye = np.eye(pt.n)
    nxv = pt.xv.size
    Ynear_w = Y[:nxv] * _near_weights(pt.xv)[:, None]
    ph = np.exp(-1j * sign * np.outer(kq, pt.xv))
    out += np.einsum("kx,kxji,xj->ki", ph, (m_s - eye).conj(), Ynear_w)
    near = np.einsum("kx,kxji,xj->ki", ph.conj(), (m_ms - eye).conj(), Ynear_w)
    out += np.einsum("kji,kj->ki", Ssel.conj(), near)
    return out / np.sqrt(2.0 * np.pi)


def fourier_maps_adjoint(
    pt: PhysicalSolutionTable, Z: np.ndarray, sign: int = +1
) -> np.ndarray:
    """Adjoint map ``sqrt(1/2pi) integral_0^inf Psi(-sign*k, x) Z(k) dk`` on
    the spatial grid (midpoint momentum weights, so quadrature duality with
    the forward map is exact up to roundoff)."""
    grid = pt.grid
    Z = _as_field(Z)
    kq = pt.kpos
    Zw = Z * grid.dk
    Ssel, m_s, m_ms = _map_tables(pt, sign)
    SZ = np.einsum("kij,kj->ki", Ssel, Zw)
    out = fourier_sum(Zw, kq[0], grid.dk, grid.x, sign)
    out += fourier_sum(SZ, kq[0], grid.dk, grid.x, -sign)
    eye = np.eye(pt.n)
    nxv = pt.xv.size
    ph = np.exp(1j * sign * np.outer(kq, pt.xv))
    corr = np.einsum("kx,kxij,kj->xi", ph, m_s - eye, Zw)
    corr += np.einsum("kx,kxij,kj->xi", ph.conj(), m_ms - eye, SZ)
    out[:nxv] += corr
    return out / np.sqrt(2.0 * np.pi)


# -- dense momentum stage for time evolution ---------------------------------


@dataclass(frozen=True)
class _DenseStage:
    """FFT-sized dense momentum/space grids with the solution tables
    interpolated onto them, for one evolution request."""

    pt: PhysicalSolutionTable
    nfft: int
    dxb: float
    ratio: int
    kq: np.ndarray  # dense positive momenta, kq[l] = l * dkq
    wk: np.ndarray
    Sq: np.ndarray  # S(kq)
    Sm: np.ndarray  # S(-kq)

    @property
    def dkq(self) -> float:
        return float(2.0 * np.pi / (self.nfft * self.dxb))

    @cached_property
    def xb(self) -> np.ndarray:
        return np.arange(self.nfft) * self.dxb

    def resample(self, Y: np.ndarray) -> np.ndarray:
        """Exact subsampling of a fine-grid field onto the FFT nodes."""
        Yb = np.zeros((self.nfft, self.pt.n), dtype=complex)
        src = _as_field(Y)[:: self.ratio]
        Yb[: src.shape[0]] = src
        return Yb

    def _plane_pair(self, Yb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``A_l = sum_j w_j Y_j e^{-i k_l x_j}`` and the conjugate-phase sum,
        trapezoid weights on the FFT circle, band nodes only."""
        L = self.kq.size
        Yw = Yb * self.dxb
        Yw[0] *= 0.5
        A = fft(Yw, axis=0)[:L]
        B = (self.nfft * ifft(Yw, axis=0))[:L]
        return A, B

    def _tables_for(self, sign: int, a: int, b: int) -> tuple[np.ndarray, ...]:
        """Interpolated kernel tables ``S(-sign*k)``, ``m(sign*k, x)``,
        ``m(-sign*k, x)`` on a block of dense momenta."""
        ks = self.kq[a:b]
        Ssel = self.Sm[a:b] if sign == +1 else self.Sq[a:b]
        return Ssel, self.pt._spline_m(sign * ks), self.pt._spline_m(-sign * ks)

    def analysis(self, Yb: np.ndarray, Ynear: np.ndarray, sign: int) -> np.ndarray:
        """Generalized Fourier map at the dense momenta; ``Ynear`` holds the
        field's exact values on the stored near-field nodes."""
        A, B = self._plane_pair(Yb)
        down, up = (A, B) if sign == +1 else (B, A)  # e^{-i sign k x}, conj
        Ssel_full = self.Sm if sign == +1 else self.Sq
        out = down + np.einsum("kji,kj->ki", Ssel_full.conj(), up)
        xv = self.pt.xv
        Ynear_w = _as_field(Ynear) * _near_weights(xv)[:, None]
        eye = np.eye(self.pt.n)
        step = max(1, CHUNK // (xv.size * self.pt.n * self.pt.n))
        for a0 in range(0, self.kq.size, step):
            b0 = min(a0 + step, self.kq.size)
            Ssel, m_s, m_ms = self._tables_for(sign, a0, b0)
            ph = np.exp(-1j * sign * np.outer(self.kq[a0:b0], xv))
            out[a0:b0] += np.einsum("kx,kxji,xj->ki", ph, (m_s - eye).conj(), Ynear_w)
            near = np.einsum("kx,kxji,xj->ki", ph.conj(), (m_ms - eye).conj(), Ynear_w)
            out[a0:b0] += np.einsum("kji,kj->ki", Ssel.conj(), near)
        return out / np.sqrt(2.0 * np.pi)

    def cosine_analysis(self, Yb: np.ndarray) -> np.ndarray:
        A, B = self._plane_pair(Yb)
        return np.sqrt(2.0 / np.pi) * 0.5 * (A + B)

    def cosine_synthesis_nodes(self, Z: np.ndarray) -> np.ndarray:
        """``sqrt(2/pi) integral_0^infty cos(kx) Z(k) dk`` at every FFT node."""
        c = np.zeros((self.nfft, Z.shape[1]), dtype=complex)
        c[: self.kq.size] = Z * self.wk[:, None]
        up = self.nfft * ifft(c, axis=0)
        down = fft(c, axis=0)
        return np.sqrt(2.0 / np.pi) * 0.5 * (up + down)

    def cosine_synthesis_at(self, Z: np.ndarray, xq: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 / np.pi) * _cosine_sum(Z * self.wk[:, None], 0.0, self.dkq, xq)

    def synthesis(self, Z: np.ndarray, sign: int, dx_out: float, nx_out: int) -> np.ndarray:
        """Adjoint map of the dense stage evaluated on uniform output nodes
        ``j * dx_out``, plus the wrap-around monitor on the full FFT circle."""
        Zw = Z * self.wk[:, None]
        Ssel = self.Sm if sign == +1 else self.Sq
        SZ = np.einsum("kij,kj->ki", Ssel, Zw)
        # plane parts at the fine output nodes: e^{i sign k x} Zw + conj phase SZ
        x_out = np.arange(nx_out) * dx_out
        out = fourier_sum(Zw, 0.0, self.dkq, x_out, sign)
        out += fourier_sum(SZ, 0.0, self.dkq, x_out, -sign)
        # near-field corrections (stored nodes prefix the output grid)
        xv = self.pt.xv
        eye = np.eye(self.pt.n)
        corr = np.zeros((xv.size, Z.shape[1]), dtype=complex)
        step = max(1, CHUNK // (xv.size * self.pt.n * self.pt.n))
        for a0 in range(0, self.kq.size, step):
            b0 = min(a0 + step, self.kq.size)
            _, m_s, m_ms = self._tables_for(sign, a0, b0)
            ph = np.exp(1j * sign * np.outer(self.kq[a0:b0], xv))
            corr += np.einsum("kx,kxij,kj->xi", ph, m_s - eye, Zw[a0:b0])
            corr += np.einsum("kx,kxij,kj->xi", ph.conj(), m_ms - eye, SZ[a0:b0])
        out[: xv.size] += corr
        out /= np.sqrt(2.0 * np.pi)
        self._check_overflow(Zw if sign == +1 else SZ, SZ if sign == +1 else Zw)
        return out

    def _check_overflow(self, first: np.ndarray, second: np.ndarray) -> None:
        """Reconstruct the field on the full FFT circle and abort if too much
        mass reaches the outer tenth of the physical half-domain.

        The conjugate-phase term always parks a mirror copy of the field in
        the upper half of the circle, so the physical domain is the lower
        half and wrap-around shows up as mass near the midpoint, where the
        direct and mirrored copies collide."""
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


def _band_edge(kpos: np.ndarray, Z: np.ndarray, tol: float = BAND_TOL) -> float:
    norms = np.linalg.norm(_as_field(Z), axis=1)
    top = norms.max()
    if top == 0.0:
        return float(kpos[min(4, kpos.size - 1)])
    alive = norms > tol * top
    return float(kpos[alive].max())


def _field_extent(x: np.ndarray, Y: np.ndarray, tol: float = 1e-9) -> float:
    norms = np.linalg.norm(_as_field(Y), axis=1)
    top = norms.max()
    if top == 0.0:
        return float(x[0])
    return float(x[norms > tol * top].max())


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
    wk = np.full(L, dkq)
    wk[0] = 0.5 * dkq
    Sq = pt._spline_s(kq)
    Sm = pt._spline_s(-kq)
    return _DenseStage(pt=pt, nfft=nfft, dxb=dxb, ratio=ratio, kq=kq, wk=wk, Sq=Sq, Sm=Sm)


def _phase_reach(pt, Y, t, sign) -> tuple[float, float]:
    """Band edge and domain size needed to evolve ``Y`` to time ``t``."""
    phi = fourier_maps(pt, Y, sign)
    k_band = _band_edge(pt.kpos, phi)
    x_sup = _field_extent(pt.grid.x, Y)
    reach = x_sup + 2.0 * abs(t) * k_band + 8.0
    return k_band, reach


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
    sized for the largest |t|).  If a discrete Hamiltonian is supplied and has
    negative eigenvalues, a BoundStatesPresent warning lists them: those
    components are absent from the result by construction.
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
    k_band, reach = _phase_reach(pt, Y, float(np.abs(times).max()), sign)
    stage = _build_stage(pt, k_band, reach)
    dx_out = pt.grid.dx
    nx_out = pt.grid.x.size if xmax_out is None else int(np.ceil(xmax_out / dx_out)) + 1
    Yb = stage.resample(Y)
    phi = stage.analysis(Yb, Y[: pt.xv.size], sign)
    outs = []
    for ti in times:
        Zt = np.exp(-1j * ti * stage.kq**2)[:, None] * phi
        outs.append(stage.synthesis(Zt, sign, dx_out, nx_out))
    return outs[0] if single else np.stack(outs)


def interacting_after_free(
    pt: PhysicalSolutionTable, Y: np.ndarray, t: float, sign: int = +1
) -> np.ndarray:
    """The wave-operator approximant at finite time: ``e^{itH} e^{-itH_0} Y``
    with the free comparison dynamics generated by the Neumann operator (the
    one the cosine transform diagonalizes).

    Both factors share one dense momentum stage: the freely evolved field is
    synthesized on the FFT nodes, analyzed by the generalized Fourier map,
    multiplied by the conjugate quadratic phase, and synthesized back on the
    table's spatial grid.
    """
    Y = _as_field(Y)
    phi0 = f0_transform(pt.grid, Y)
    k_band = _band_edge(pt.grid.kpos, phi0)
    x_sup = _field_extent(pt.grid.x, Y)
    reach = x_sup + 2.0 * abs(t) * k_band + 8.0
    stage = _build_stage(pt, k_band, reach)
    # free half: cosine data at the dense nodes, evolved backwards
    c0 = stage.cosine_analysis(stage.resample(Y))
    c0 *= np.exp(-1j * t * stage.kq**2)[:, None]
    u_nodes = stage.cosine_synthesis_nodes(c0)
    # the cosine sum mirrors the field into the upper half of the FFT
    # circle; only the physical half may enter the next analysis integral
    u_nodes[stage.nfft // 2 :] = 0.0
    u_near = stage.cosine_synthesis_at(c0, pt.xv)
    # interacting half applied with the opposite phase
    phi1 = stage.analysis(u_nodes, u_near, sign)
    phi1 *= np.exp(1j * t * stage.kq**2)[:, None]
    return stage.synthesis(phi1, sign, pt.grid.dx, pt.grid.x.size)


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


def evolve_discrete(dh: DiscreteHamiltonian, Y: np.ndarray, t: float) -> np.ndarray:
    """Propagate a field with the discrete model's eigen-decomposition;
    returns samples on the model's grid (zeros on eliminated nodes)."""
    Y = _as_field(Y)
    if Y.shape != (dh.x.size, dh.n):
        raise SpectralError("field samples must match the model grid")
    rot = Y @ dh.mixer.conj()  # channel frame of the band matrix
    mask = dh.index >= 0
    vec = np.zeros(dh.size, dtype=complex)
    vec[dh.index[mask]] = rot[mask]
    vec *= dh.boundary_scale  # similarity weight on the boundary node
    w, v = dh.eigenpairs
    vec_t = v @ (np.exp(-1j * t * w) * (v.conj().T @ vec))
    vec_t /= dh.boundary_scale
    out_rot = np.zeros((dh.x.size, dh.n), dtype=complex)
    out_rot[mask] = vec_t[dh.index[mask]]
    return out_rot @ dh.mixer.T
