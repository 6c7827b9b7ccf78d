"""Discretization grids shared by every table in the package.

A :class:`KXGrid` bundles the two one-dimensional grids everything else is
sampled on:

* ``k`` -- a uniform, symmetric momentum grid with *half-offset* nodes
  ``k_j = (j + 1/2 - N_k/2) * dk``.  The grid never contains ``k = 0`` (the
  Jost matrix may be singular there), is closed under ``k -> -k``
  (``k[::-1] == -k`` exactly), and its positive half doubles as a midpoint
  quadrature rule for integrals over ``(0, inf)``.
* ``x`` -- a uniform node-aligned grid on ``[0, X_max]`` used for spatial
  fields and trapezoid quadrature.

Notes
-----
The spatial trapezoid rules (the generalized Fourier maps, the Marchenko
kernel representation) integrate a plane wave at ``|k| <= k_max`` against
fields band-limited to ``k_max``, so their integrands oscillate as fast as
``e^{2i k_max x}``.  Construction enforces ``dx <= pi / (4 k_max)``: four
nodes per period of that fastest oscillation.  The Jost solver itself is
exact per cell and needs no such condition.

Every sum over a uniform grid, ``sum_j g_j e^{+-i (k_0 + j dk) y_l}``, goes
through :func:`fourier_sum`.  On uniform nodes ``y`` it is a chirp-z
transform (Bluestein's algorithm): one FFT convolution, ``O((N + m) log)``
work and memory instead of a dense ``N x m`` phase matrix.  The chirp phases
``theta j^2 / 2`` reach ``~3e4`` rad on the default grid, so all phases are
formed in ``np.longdouble`` and reduced modulo a ``longdouble`` ``2 pi``
before rounding.  The sums then match a ``longdouble`` direct sum to about
``6e-16`` relative, against ``2e-14`` with float64 phases and ``5e-11`` with
the chirp ``w**(j^2/2)`` of ``scipy.signal.czt``.

Every FFT in the package is ``numpy.fft``, at the 11-smooth lengths of
:func:`next_fast_len`; the package imports no scipy module on any path of
the pipeline.  Spectra that do not depend on the data are computed once per
key and kept, at most ``SPECTRUM_CACHE`` of each kind: the chirp spectrum
of :func:`fourier_sum`, keyed on the FFT length, the node count and the
float64 steps ``(size, nk, dk, dy)``, and the lattice Hilbert kernel's
spectrum in ``waveop``, keyed on the node count.  Kept spectra are
read-only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import fft, ifft

DEFAULT_KMAX = 40.0
DEFAULT_NK = 4096
DEFAULT_DX = 1.0 / 256.0
DEFAULT_XMAX = 40.0

#: fraction of the momentum range occupied by the smooth spectral taper
TAPER_FRACTION = 0.10

#: gathered spline coefficients per evaluation block (512 KB when complex)
SPLINE_BLOCK = 1 << 15
#: rows per block of the spline's slope sweeps: a carry crossing a whole
#: block shrinks by ``(2 - sqrt 3)^32 < 2^-60``, below float64 rounding
SWEEP_BLOCK = 32
#: kept data-independent spectra (and spline pivots) of each kind
SPECTRUM_CACHE = 32


class GridError(ValueError):
    """Base class for grid construction/consistency failures."""


class GridTooCoarse(GridError):
    """Spatial step too large for the requested momentum range."""


def cosine_taper(k: np.ndarray, kmax: float) -> np.ndarray:
    """Raised-cosine window: 1 on the inner part of ``[-kmax, kmax]``, rolling
    smoothly to 0 over the outer ``TAPER_FRACTION`` of the range.

    Parameters
    ----------
    k : ndarray
        Momentum samples.
    kmax : float
        Nominal half-width of the momentum window.

    Returns
    -------
    ndarray
        Window values in ``[0, 1]``, same shape as ``k``.
    """
    edge = (1.0 - TAPER_FRACTION) * kmax
    width = TAPER_FRACTION * kmax
    a = np.abs(k)
    w = np.ones_like(a)
    roll = a > edge
    w[roll] = np.cos(0.5 * np.pi * np.clip((a[roll] - edge) / width, 0.0, 1.0)) ** 2
    return w


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a sorted 1-d grid.

    A single-node grid spans a zero-length interval, so its weight is zero.
    """
    if x.size < 2:
        return np.zeros_like(x)
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite-Simpson weights on a uniform grid (trapezoid fallback on the
    last interval when the interval count is odd)."""
    npts = x.size
    if npts < 3:
        return trapezoid_weights(x)
    h = x[1] - x[0]
    w = np.zeros(npts)
    last = npts if npts % 2 == 1 else npts - 1
    w[0:last:2] += 2.0
    w[1:last:2] += 4.0
    w[0] -= 1.0
    w[last - 1] -= 1.0
    w *= h / 3.0
    if last != npts:  # odd interval count: close with one trapezoid panel
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


@lru_cache(maxsize=None)
def _smooth_lengths(bits: int) -> tuple[int, ...]:
    """The 11-smooth integers up to ``2**bits``, ascending."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for m in lengths:
            while m <= 1 << bits:
                grown.append(m)
                m *= p
        lengths = grown
    return tuple(sorted(lengths))


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer ``>= n``: a length whose complex FFT
    has only the radices 2, 3, 5, 7 and 11."""
    lengths = _smooth_lengths(max(int(n) - 1, 0).bit_length())
    return lengths[bisect_left(lengths, n)]


_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _cis(phase: np.ndarray) -> np.ndarray:
    """``e^{i phase}`` of ``longdouble`` phases, reduced modulo ``2 pi``
    before they are rounded to float64."""
    return np.exp(1j * np.fmod(phase, _TWO_PI).astype(float))


@lru_cache(maxsize=SPECTRUM_CACHE)
def _chirp_spectrum(size: int, nk: int, dk: float, dy: float) -> np.ndarray:
    """FFT of the chirp ``e^{-i theta lag^2 / 2}``, ``theta = dk dy``, over
    the lags ``-(nk - 1) .. size - nk`` of a ``size``-point circle."""
    theta = np.longdouble(dk) * np.longdouble(dy)
    n = np.arange(size, dtype=np.longdouble)
    lag = np.where(n < size - nk + 1, n, n - size)  # lags -(nk - 1) .. -1 wrap to the end
    spectrum = fft(_cis(-0.5 * theta * lag * lag))
    spectrum.flags.writeable = False
    return spectrum


def fourier_sum(g: np.ndarray, k0: float, dk: float, y: np.ndarray, sign: int = +1) -> np.ndarray:
    """``sum_j g[j] e^{i sign (k0 + j dk) y_l}`` along axis 0 of ``g``.

    Returns shape ``(len(y),) + g.shape[1:]``.  Uniform nodes ``y``
    (ascending or descending) take one Bluestein convolution, with
    ``j l = (j^2 + l^2 - (l - j)^2) / 2`` and ``theta = dk dy``, run along
    the contiguous last axis of the transposed columns; other nodes take the
    direct sum.  Sign ``-1`` is ``conj`` of the ``+1`` sum of ``conj(g)``,
    so the two signs are exact conjugates.  Phases are formed in
    ``np.longdouble``; on a platform where that type is float64 the
    accuracy falls to that of float64 phases, about ``2e-14`` on the
    default grid.
    """
    if sign == -1:
        return np.conj(fourier_sum(np.conj(g), k0, dk, y))
    if sign != +1:
        raise ValueError("sign must be +1 or -1")
    g = np.asarray(g)
    y = np.asarray(y, dtype=float)
    nk, m = g.shape[0], y.size
    cols = g.reshape(nk, -1)
    kj = np.longdouble(k0) + np.arange(nk, dtype=np.longdouble) * np.longdouble(dk)
    dy = (y[-1] - y[0]) / (m - 1) if m > 2 else 0.0
    line = y[:1] + np.arange(m) * dy
    if m < 3 or np.abs(y - line).max() > 16 * np.finfo(float).eps * np.abs(y).max():
        out = _cis(np.outer(y.astype(np.longdouble), kj)) @ cols
        return out.reshape((m,) + g.shape[1:])
    theta = np.longdouble(dk) * np.longdouble(dy)
    size = next_fast_len(nk + m - 1)
    chirp = _chirp_spectrum(size, nk, float(dk), float(dy))
    n = np.arange(max(nk, m), dtype=np.longdouble)
    j, l = n[:nk], n[:m]
    head = _cis(kj * np.longdouble(y[0]) + 0.5 * theta * j * j)
    tail = _cis(np.longdouble(k0) * l * np.longdouble(dy) + 0.5 * theta * l * l)
    conv = ifft(fft(np.multiply(cols.T, head, order="C"), size) * chirp)[:, :m]
    return np.multiply(conv.T, tail[:, None], order="C").reshape((m,) + g.shape[1:])


@lru_cache(maxsize=SPECTRUM_CACHE)
def _slope_sweeps(nx: int) -> tuple[np.ndarray, ...]:
    """The two bidiagonal sweeps that solve the not-a-knot slope system for
    ``nx`` knots, in blocks of ``SWEEP_BLOCK`` rows.

    Elimination needs no pivoting (from the second row on the pivots ``w``
    exceed the sub-diagonal ``l``) and gives the forward sweep ``r'[i] =
    (r[i] - l[i] r'[i-1]) / w[i]`` and the backward sweep ``s[i] = r'[i] -
    c[i] s[i+1]``.  Rows past ``nx`` pad the last block with identity rows.
    The pivots settle after 16 rows, so only the first, the inner and the
    last blocks differ.  Returns, for each distinct block, the inverse of
    its diagonal block of either factor (the sweep with no incoming carry)
    and the column the carry from the neighbouring block enters with, and
    each block's index into them: ``(forward, forward_carry, backward,
    backward_carry, kind)``.
    """
    rows = -(-nx // SWEEP_BLOCK) * SWEEP_BLOCK
    lower, pivot, sup, upper = np.zeros(rows), np.ones(rows), np.zeros(rows), np.zeros(rows)
    lower[1:nx], pivot[1 : nx - 1], sup[: nx - 1] = 1.0, 4.0, 1.0
    lower[nx - 1] = sup[0] = 2.0
    for j in range(nx):
        pivot[j] -= lower[j] * upper[j - 1]
        upper[j] = sup[j] / pivot[j]
    blocks = np.stack([lower, pivot, upper]).reshape(3, -1, SWEEP_BLOCK).swapaxes(0, 1)
    distinct, kind = np.unique(blocks, axis=0, return_inverse=True)
    lower, pivot, upper = distinct.swapaxes(0, 1)
    i = np.arange(SWEEP_BLOCK)
    factor = np.zeros((2,) + pivot.shape + (SWEEP_BLOCK,))
    factor[0][:, i, i], factor[0][:, i[1:], i[:-1]] = pivot, lower[:, 1:]
    factor[1][:, i, i], factor[1][:, i[:-1], i[1:]] = 1.0, upper[:, :-1]
    forward, backward = np.linalg.inv(factor)
    tables = (
        forward, -forward[..., :1] * lower[:, :1, None],
        backward, -backward[..., -1:] * upper[:, -1:, None],
        kind.ravel(),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _knot_slopes(d: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot spline from the secant slopes ``d``,
    shape ``(nx - 1, columns)`` to ``(nx, columns)``.

    Each sweep is one batched matmul over the blocks with no incoming
    carry, then one broadcast of the carry from the neighbouring block's
    end row.  That carry is itself taken without its own incoming carry:
    the part dropped crossed a whole block, which damps it below ``2^-60``.
    """
    nx = d.shape[0] + 1
    ends = (2.5 * d[:1] + 0.5 * d[1:2], 0.5 * d[-2:-1] + 2.5 * d[-1:])
    rhs = np.concatenate([ends[0], 3.0 * (d[:-1] + d[1:]), ends[1]])
    cplx = np.iscomplexobj(rhs)
    flat = np.ascontiguousarray(rhs, dtype=complex).view(float) if cplx else rhs
    forward, forward_carry, backward, backward_carry, kind = _slope_sweeps(nx)
    r = np.zeros((kind.size * SWEEP_BLOCK, flat.shape[1]))
    r[:nx] = flat
    r = forward[kind] @ r.reshape(kind.size, SWEEP_BLOCK, -1)
    r[1:] += forward_carry[kind[1:]] * r[:-1, -1:]
    s = backward[kind] @ r
    s[:-1] += backward_carry[kind[:-1]] * s[1:, :1]
    s = s.reshape(kind.size * SWEEP_BLOCK, -1)[:nx]
    return s.view(complex) if cplx else s


def spline_pieces(x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """The cubic pieces of the not-a-knot spline through the columns of
    ``y``, shape ``(nx, columns)``, at uniform knots ``x``: for ``p = 0..3``
    the coefficients of ``(q - x[j])^p`` on piece ``j``, each ``(nx - 1,
    columns)``.  The knot slopes ``s`` solve ``s[i-1] + 4 s[i] + s[i+1] =
    3 (d[i-1] + d[i])`` in the secant slopes ``d``, closed by ``s[0] + 2 s[1]
    = (5 d[0] + d[1]) / 2`` and its mirror (:func:`_knot_slopes`)."""
    nx = x.size
    if nx < 4:
        raise GridError("a not-a-knot spline needs at least four knots")
    h = (x[-1] - x[0]) / (nx - 1)
    d = np.diff(y, axis=0) / h
    s = _knot_slopes(d)
    c3 = (s[:-1] + s[1:] - 2.0 * d) / h**2
    c2 = (d - s[:-1]) / h - c3 * h
    return [y[:-1], s[:-1], c2, c3]


class UniformSpline:
    """Not-a-knot cubic spline through samples ``y`` at uniform knots ``x``
    along axis 0, the interpolant ``scipy.interpolate.CubicSpline`` builds by
    default; past the end knots the end cubics extend.  Its pieces come from
    :func:`spline_pieces`."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, y = np.asarray(x, dtype=float), np.asarray(y)
        self._tail = y.shape[1:]
        pieces = spline_pieces(self.x, y.reshape(self.x.size, -1))
        self._coef = np.stack(pieces, axis=1)  # (nx - 1, 4, size)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """Spline values at ``q``, shape ``q.shape + y.shape[1:]``; blocks of
        at most ``SPLINE_BLOCK`` gathered coefficients."""
        flat = np.ravel(q).astype(float)
        i = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, self.x.size - 2)
        powers = ((flat - self.x[i])[:, None] ** np.arange(4)).astype(self._coef.dtype)
        size = self._coef.shape[-1]
        out = np.empty((flat.size, size), dtype=self._coef.dtype)
        step = max(1, SPLINE_BLOCK // (4 * size))
        for a in range(0, flat.size, step):
            blk = slice(a, a + step)
            out[blk] = np.matmul(powers[blk, None], self._coef[i[blk]])[:, 0]
        return out.reshape(np.shape(q) + self._tail)


@dataclass(frozen=True)
class KXGrid:
    """Paired momentum/space grids with their quadrature weights.

    Attributes
    ----------
    k : ndarray
        Symmetric half-offset momentum nodes, ascending, ``k[::-1] == -k``.
    x : ndarray
        Uniform nodes on ``[0, X_max]`` including both endpoints.
    """

    k: np.ndarray
    x: np.ndarray

    @classmethod
    def build(
        cls,
        kmax: float = DEFAULT_KMAX,
        nk: int = DEFAULT_NK,
        dx: float = DEFAULT_DX,
        xmax: float = DEFAULT_XMAX,
    ) -> "KXGrid":
        """Construct the standard grid pair.

        Raises
        ------
        GridError
            If ``nk`` is odd, any size is non-positive or not finite, or
            ``xmax < dx / 2`` (a window of one node).
        GridTooCoarse
            If ``dx > pi / (4 kmax)``.
        """
        if nk < 2 or nk % 2:
            raise GridError(f"momentum grid needs an even node count, got {nk}")
        for name, size in (("kmax", kmax), ("dx", dx), ("xmax", xmax)):
            if not (np.isfinite(size) and size > 0):
                raise GridError(f"{name} must be positive and finite, got {size}")
        if dx > np.pi / (4.0 * kmax) * (1 + 1e-12):
            raise GridTooCoarse(
                f"dx={dx} cannot resolve oscillations at kmax={kmax}; "
                f"need dx <= pi/(4 kmax) = {np.pi / (4 * kmax):.6g}"
            )
        dk = 2.0 * kmax / nk
        j = np.arange(nk)
        k = (j + 0.5 - nk / 2.0) * dk
        nx = int(round(xmax / dx))
        if nx < 1:
            raise GridError(f"xmax={xmax} holds no step of dx={dx}: the window needs two nodes")
        x = np.arange(nx + 1) * dx
        return cls(k=k, x=x)

    # -- momentum-side helpers -------------------------------------------------

    @cached_property
    def dk(self) -> float:
        """Spacing from the end nodes (one difference's rounding grows along a sum)."""
        return float((self.k[-1] - self.k[0]) / (self.k.size - 1))

    @cached_property
    def kmax(self) -> float:
        """Nominal half-width of the momentum window (half a step beyond the
        outermost node)."""
        return float(self.k[-1] + 0.5 * self.dk)

    @cached_property
    def kpos(self) -> np.ndarray:
        """Positive-momentum nodes (midpoint rule for integrals over (0, inf))."""
        return self.k[self.k > 0]

    @property
    def npos(self) -> int:
        return self.kpos.size

    @cached_property
    def taper(self) -> np.ndarray:
        """Smooth window over the full momentum grid."""
        return cosine_taper(self.k, self.kmax)

    @cached_property
    def taper_pos(self) -> np.ndarray:
        return cosine_taper(self.kpos, self.kmax)

    # -- space-side helpers ----------------------------------------------------

    @cached_property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def xmax(self) -> float:
        return float(self.x[-1])

    @cached_property
    def wx(self) -> np.ndarray:
        """Trapezoid weights on the spatial grid."""
        return trapezoid_weights(self.x)

    @cached_property
    def x_sym(self) -> np.ndarray:
        """Symmetric spatial grid on ``[-X_max, X_max]`` aligned with ``x``."""
        return np.concatenate([-self.x[:0:-1], self.x])

    def index_of_x(self, value: float) -> int:
        """Index of the node nearest to ``value`` (must lie on the grid)."""
        idx = int(round(value / self.dx))
        if not (0 <= idx < self.x.size) or abs(self.x[idx] - value) > 1e-9 * max(1.0, abs(value)):
            raise GridError(f"{value} is not a node of the spatial grid")
        return idx
