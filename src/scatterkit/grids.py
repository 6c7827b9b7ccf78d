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

Every table of plane waves ``e^{i q x}`` over arbitrary ``q`` is
:func:`_phases`: the near-field phases of the generalized Fourier maps and
the ``e^{-ikx}``, ``cos(qs)`` and ``sin(qs)`` of each cell of the Jost
solver.  On uniform nodes from any
origin (the test :func:`fourier_sum` dispatches on) it multiplies two
short exponential tables, a coarse one that carries the origin and a fine
one of offsets; other nodes take one exponential each.

Values between uniform nodes come from the not-a-knot cubic spline,
:class:`UniformSpline`: knot slopes from one banded solve, run as blocked
sweeps (:func:`_slope_solve`), then the cubic Hermite interpolant on each
piece.  Sampling it at fixed points is linear in the knot values, and
:func:`spline_adjoint` is its exact transpose, so a map that interpolates
and its adjoint stay adjoint to roundoff.  The transpose reuses the same
sweeps: the slope matrix is ``A = E A_s`` with ``A_s`` symmetric and ``E =
diag(2, 1, ..., 1, 2)``, so ``A^{-T} = E^{-1} A^{-1} E``.

Every convolution of a field with a kernel in ``waveop`` (the Hilbert
transform, and the symbols' convolutions and their adjoints) is one
circular FFT product, :func:`circular_convolve` with the kernel's spectrum
on the shortest circle on which nothing read wraps, rounded up to a fast
length: the lattice Hilbert kernel's outputs from node ``c`` read ``2N - 1
- c`` lags, and a kernel on the field's own symmetric grid needs ``N + (N -
1)/2`` points (:func:`convolution_spectrum`, ``N + max(p, r)`` for the lags
``-p .. r``).

Every FFT in the package is ``numpy.fft``, at the 11-smooth lengths of
:func:`next_fast_len`; the package imports no scipy module on any path of
the pipeline.  Spectra that do not depend on the data are computed once per
key and kept, at most ``SPECTRUM_CACHE`` of each kind: the chirp spectrum
of :func:`fourier_sum`, keyed on the FFT length, the node count and the
float64 steps ``(size, nk, dk, dy)``; its head and tail phases, keyed on
the two node counts and the grids ``(nk, m, k0, dk, y0, dy)``, origins in
``np.longdouble``; and the lattice Hilbert kernel's spectrum in ``waveop``,
keyed on the node count and the first node read.  The spectra of the
symbols ``F_s`` and ``P_+-`` are data: each
:class:`~.scattering.ScatteringTable` keeps one per symbol, built at first
use (``symbol_spectrum``), which a convolution and its adjoint (the same
spectrum, conjugate-transposed) both read, and they go with the table.
Kept spectra and phases are read-only.
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


@lru_cache(maxsize=SPECTRUM_CACHE)
def _bluestein_phases(
    nk: int, m: int, k0: np.longdouble, dk: float, y0: np.longdouble, dy: float
) -> tuple[np.ndarray, np.ndarray]:
    """The head phases ``e^{i (k_j y_0 + theta j^2 / 2)}`` and the tail phases
    ``e^{i (k_0 l dy + theta l^2 / 2)}`` of the chirp-z transform from ``nk``
    uniform ``k_j = k0 + j dk`` to ``m`` uniform ``y_l = y0 + l dy``, with
    ``theta = dk dy``."""
    theta = np.longdouble(dk) * np.longdouble(dy)
    n = np.arange(max(nk, m), dtype=np.longdouble)
    j, l = n[:nk], n[:m]
    kj = np.longdouble(k0) + j * np.longdouble(dk)
    head = _cis(kj * np.longdouble(y0) + 0.5 * theta * j * j)
    tail = _cis(np.longdouble(k0) * l * np.longdouble(dy) + 0.5 * theta * l * l)
    head.flags.writeable = tail.flags.writeable = False
    return head, tail


def _uniform_step(y: np.ndarray) -> float | None:
    """The step of ``y`` when its nodes are uniform (ascending or
    descending) to ``16`` ulps of its largest node, else ``None``; fewer
    than three nodes count as non-uniform."""
    m = y.size
    if m < 3:
        return None
    dy = (y[-1] - y[0]) / (m - 1)
    line = y[0] + np.arange(m) * dy
    return None if np.abs(y - line).max() > 16 * np.finfo(float).eps * np.abs(y).max() else dy


def fourier_sum(g: np.ndarray, k0: float, dk: float, y: np.ndarray, sign: int = +1) -> np.ndarray:
    """``sum_j g[j] e^{i sign (k0 + j dk) y_l}`` along axis 0 of ``g``.

    Returns shape ``(len(y),) + g.shape[1:]``, zeros for an empty ``g``.
    Uniform nodes ``y`` (ascending or descending) take one Bluestein
    convolution, with ``j l = (j^2 + l^2 - (l - j)^2) / 2`` and ``theta =
    dk dy``, run along the contiguous last axis of the transposed columns;
    other nodes take the direct sum.  The phases hold the node of ``y``
    nearest zero and ``k0`` (float64 or ``np.longdouble``) exact.  Sign
    ``-1`` is ``conj`` of the ``+1`` sum of ``conj(g)``, so the two signs
    are exact conjugates.  Phases are formed in
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
    if nk == 0:
        return np.zeros((m,) + g.shape[1:], dtype=complex)
    cols = g.reshape(nk, -1)
    dy = _uniform_step(y)
    if dy is None:
        kj = np.longdouble(k0) + np.arange(nk, dtype=np.longdouble) * np.longdouble(dk)
        out = _cis(np.outer(y.astype(np.longdouble), kj)) @ cols
        return out.reshape((m,) + g.shape[1:])
    size = next_fast_len(nk + m - 1)
    chirp = _chirp_spectrum(size, nk, float(dk), float(dy))
    c = int(np.argmin(np.abs(y)))
    y0 = np.longdouble(y[c]) - c * np.longdouble(dy)
    head, tail = _bluestein_phases(nk, m, np.longdouble(k0), float(dk), y0, float(dy))
    # one circle per column: the chirp product and the inverse FFT run in place
    conv = fft(np.multiply(cols.T, head, order="C"), size)
    conv *= chirp
    conv = ifft(conv, out=conv)
    return np.multiply(conv[:, :m].T, tail[:, None], order="C").reshape((m,) + g.shape[1:])


def convolution_spectrum(kernel: np.ndarray, origin: int, nvalues: int) -> np.ndarray:
    """The spectrum of ``kernel`` for :func:`circular_convolve` with
    ``nvalues`` samples, along axis 0; trailing axes ride along.

    ``kernel[origin + l]`` is the kernel at lag ``l``.  Only the lags ``|l|
    < nvalues`` reach an output, so the kept lags are ``-p .. r`` with ``p,
    r < nvalues``.  Each goes to index ``l mod L`` of a circle of ``L =
    next_fast_len(nvalues + max(p, r))`` points.  Nothing wraps: output
    ``j`` reads the lags ``j - i``, ``0 <= i, j < nvalues``.  A lag above
    ``r`` lands at an index below ``nvalues <= L - p``, and one below ``-p``
    at an index above ``L - nvalues >= r``, both in the zero padding.
    """
    p = min(origin, nvalues - 1)
    r = min(kernel.shape[0] - 1 - origin, nvalues - 1)
    size = next_fast_len(nvalues + max(p, r))
    circle = np.zeros((size,) + kernel.shape[1:], dtype=kernel.dtype)
    circle[: r + 1] = kernel[origin : origin + r + 1]
    circle[size - p :] = kernel[origin - p : origin]
    return fft(circle, axis=0)


def circular_convolve(spectrum: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_i g[j - i] values[i]`` for ``0 <= j < len(values)``: one FFT
    product with the kernel's :func:`convolution_spectrum` for
    ``len(values)`` samples, read off the circle's first ``len(values)``
    points.  A spectrum of shape ``(L,)`` acts on every column of
    ``values`` alike; one of shape ``(L, n, n)`` takes ``sum_l g[:, i, l]
    values[:, l]``."""
    vk = fft(values, spectrum.shape[0], axis=0)
    return _circle_product(spectrum, vk, values.shape[0], own=True)


def _circle_product(
    spectrum: np.ndarray, vk: np.ndarray, nvalues: int, own: bool = False
) -> np.ndarray:
    """:func:`circular_convolve` from the values' own spectrum ``vk`` on the
    kernel's circle: the product, one inverse FFT into it and the first
    ``nvalues`` points, a view of the circle.  With ``own`` a product by a
    spectrum of shape ``(L,)`` overwrites ``vk``, so no second circle is
    allocated."""
    if spectrum.ndim > 1:
        product = np.einsum("kil,kl->ki", spectrum, vk)
    else:
        product = np.multiply(spectrum[:, None], vk, out=vk if own else None)
    return ifft(product, axis=0, out=product)[:nvalues]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``a`` into a 26-bit head and its tail, so
    that the product of two heads is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    head = c - (c - a)
    return head, a - head


def _phases(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``e^{i q x}``, shape ``q.shape + x.shape``.

    On uniform nodes ``x`` (ascending or descending, from any origin; the
    test of :func:`fourier_sum`) it is the product of ``e^{i q x[bB]}`` and
    ``e^{i q (x[r] - x[0])}`` at node ``bB + r``, with ``B =
    ceil(sqrt(len(x)))``, so each momentum takes about ``2 sqrt(len(x))``
    complex exponentials instead of ``len(x)``; the origin rides in the
    coarse factor.  Other nodes take one exponential each.

    The coarse arguments are the long ones, so they are split: the product
    of the heads of ``q`` and ``x[bB]`` is exact, and the small rest enters
    through ``e^{i s} = 1 + i s - s^2/2``.  Rounding ``q x`` would cost up to
    half an ulp of the phase, ``3.6e-15`` at ``|q x| = 40``.
    """
    if _uniform_step(x) is None:
        return np.exp(1j * np.multiply.outer(q, x))
    B = int(np.ceil(np.sqrt(x.size)))
    q_head, q_tail = _split(q)
    x_head, x_tail = _split(x[::B])
    rest = np.multiply.outer(q_head, x_tail) + np.multiply.outer(q_tail, x[::B])
    coarse = np.exp(1j * np.multiply.outer(q_head, x_head)) * (1.0 - 0.5 * rest**2 + 1j * rest)
    fine = np.exp(1j * np.multiply.outer(q, x[:B] - x[0]))
    out = coarse[..., :, None] * fine[..., None, :]
    return out.reshape(q.shape + (-1,))[..., : x.size]


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


def _slope_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve the not-a-knot slope system ``A s = rhs`` for ``rhs`` of shape
    ``(nx, columns)``.

    Each sweep is one batched matmul over the blocks with no incoming
    carry, then one broadcast of the carry from the neighbouring block's
    end row.  That carry is itself taken without its own incoming carry:
    the part dropped crossed a whole block, which damps it below ``2^-60``.
    """
    nx = rhs.shape[0]
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


def _knot_slopes(d: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot spline from the secant slopes ``d``,
    shape ``(nx - 1, columns)`` to ``(nx, columns)``."""
    ends = (2.5 * d[:1] + 0.5 * d[1:2], 0.5 * d[-2:-1] + 2.5 * d[-1:])
    return _slope_solve(np.concatenate([ends[0], 3.0 * (d[:-1] + d[1:]), ends[1]]))


def _knot_slopes_adjoint(s: np.ndarray) -> np.ndarray:
    """The transpose of :func:`_knot_slopes`, shape ``(nx, columns)`` to
    ``(nx - 1, columns)``.

    The slope matrix is ``A = E A_s`` with ``A_s`` symmetric and ``E =
    diag(2, 1, ..., 1, 2)`` (the end rows are ``s[0] + 2 s[1]`` and its
    mirror), so ``A^{-T} = E^{-1} A^{-1} E`` takes the same sweeps; the
    right-hand side's secant stencil then runs transposed.
    """
    ends = np.ones((s.shape[0], 1))
    ends[[0, -1]] = 2.0
    r = _slope_solve(s * ends) / ends
    d = 3.0 * (r[:-1] + r[1:])
    d[0] -= 0.5 * r[0]
    d[1] += 0.5 * r[0]
    d[-1] -= 0.5 * r[-1]
    d[-2] += 0.5 * r[-1]
    return d


def hermite_weights(u: np.ndarray, h: float) -> np.ndarray:
    """The cubic Hermite weights of ``y_j, s_j, y_{j+1}, s_{j+1}`` at the
    offsets ``u = (q - x_j) / h`` in a piece of width ``h``, as the rows of
    a new first axis: the value there is ``y_j h00(u) + h s_j h10(u) +
    y_{j+1} h01(u) + h s_{j+1} h11(u)``.  Inside the piece every weight is
    at most 1 in size; far outside it the weights of ``y_j`` and ``y_{j+1}``
    grow as ``2 u^3`` and cancel."""
    v = 1.0 - u
    out = np.empty((4,) + np.shape(u))
    out[0] = (1.0 + 2.0 * u) * v * v
    out[1] = h * u * v * v
    out[2] = u * u * (1.0 + 2.0 * v)
    out[3] = -h * u * u * v
    return out


def _pieces(x: np.ndarray, h: float, q: np.ndarray) -> np.ndarray:
    """The piece of the uniform knots ``x``, spaced ``h``, that holds each
    point ``q``, ``floor((q - x[0]) / h)``; points past the end knots take
    the end pieces."""
    return np.clip(np.floor((q - x[0]) / h), 0, x.size - 2).astype(np.intp)


class UniformSpline:
    """Not-a-knot cubic spline through samples ``y`` at uniform knots ``x``
    along axis 0, the interpolant ``scipy.interpolate.CubicSpline`` builds by
    default; past the end knots the end cubics extend.

    It is held as its knot values ``values`` (``y`` itself, not a copy, when
    ``y`` is contiguous) and knot slopes ``slopes``, both ``(nx, columns)``:
    on each piece the not-a-knot cubic is the cubic Hermite interpolant of
    the values and slopes of its two knots (:func:`hermite_weights`).  The
    slopes ``s`` solve ``s[i-1] + 4 s[i] + s[i+1] = 3 (d[i-1] + d[i])`` in
    the secant slopes ``d``, closed by ``s[0] + 2 s[1] = (5 d[0] + d[1]) /
    2`` and its mirror (:func:`_knot_slopes`).  It is evaluated about the
    piece's left knot, ``y_j + u D + u (1 - u) ((1 - u) (h s_j - D) - u (h
    s_{j+1} - D))`` with ``D = y_{j+1} - y_j``, whose terms stay small past
    the end knots.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, y = np.asarray(x, dtype=float), np.asarray(y)
        nx = self.x.size
        if nx < 4:
            raise GridError("a not-a-knot spline needs at least four knots")
        self._tail = y.shape[1:]
        self.h = (self.x[-1] - self.x[0]) / (nx - 1)
        self.values = y.reshape(nx, -1)
        self.slopes = _knot_slopes(np.diff(self.values, axis=0) / self.h)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """Spline values at ``q``, shape ``q.shape + y.shape[1:]``."""
        flat = np.ravel(q).astype(float)
        j = _pieces(self.x, self.h, flat)
        t = ((flat - self.x[j]) / self.h)[:, None]
        # np.take gathers rows up to twice as fast as fancy indexing
        y0, y1, s0, s1 = (
            np.take(a, i, axis=0) for a in (self.values, self.slopes) for i in (j, j + 1)
        )
        D = y1 - y0
        bend = (1.0 - t) * (self.h * s0 - D) - t * (self.h * s1 - D)
        return (y0 + t * (D + (1.0 - t) * bend)).reshape(np.shape(q) + self._tail)


def spline_adjoint(x: np.ndarray, q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The adjoint of sampling the not-a-knot spline on the uniform knots
    ``x`` at the points ``q``, the map ``y -> UniformSpline(x, y)(q)``.

    ``z`` has shape ``q.shape + tail``; the result, ``(len(x),) + tail``,
    satisfies ``sum(z * UniformSpline(x, y)(q)) == sum(spline_adjoint(x, q,
    z) * y)`` for every ``y`` (the map is real, so its adjoint is its
    transpose).  The points are sorted by piece, and each piece sums its
    points' Hermite weights for the values and slopes of its two knots (past
    the end knots, the end piece's) in one ``reduceat``; the slopes' share
    then runs back through the slope solve (:func:`_knot_slopes_adjoint`)
    and the secants.
    """
    x = np.asarray(x, dtype=float)
    flat = np.ravel(q).astype(float)
    nx, h = x.size, (x[-1] - x[0]) / (x.size - 1)
    tail = np.shape(z)[np.ndim(q) :]
    z = np.asarray(z).reshape(flat.size, -1)
    j = _pieces(x, h, flat)
    order = np.argsort(j, kind="stable")
    j = j[order]
    starts = np.flatnonzero(np.diff(j, prepend=-1))
    w = hermite_weights((flat[order] - x[j]) / h, h)
    sums = np.add.reduceat(w[:, :, None] * np.take(z, order, axis=0), starts, axis=1)
    piece = j[starts]
    values = np.zeros((nx, z.shape[1]), dtype=sums.dtype)
    slopes = np.zeros_like(values)
    values[piece], slopes[piece] = sums[0], sums[1]
    values[piece + 1] += sums[2]
    slopes[piece + 1] += sums[3]
    d = _knot_slopes_adjoint(slopes) / h
    values[:-1] -= d
    values[1:] += d
    return values.reshape((nx,) + tail)


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
            If ``nk`` is odd or below 4 (a not-a-knot spline through ``S``
            needs four knots), any size is non-positive or not finite, or
            ``xmax < dx / 2`` (a window of one node).
        GridTooCoarse
            If ``dx > pi / (4 kmax)``.
        """
        if nk < 4 or nk % 2:
            raise GridError(f"nk must be an even momentum node count of at least 4, got {nk}")
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
    def taper_pos(self) -> np.ndarray:
        """Smooth window over the positive momentum nodes."""
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
