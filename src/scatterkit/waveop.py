"""Wave operators on the half line, by three equivalent routes.

The scattering apparatus gives the wave operators ``W = s-lim e^{itH}
e^{-itH0}`` in closed stationary form: the adjoint generalized Fourier map
composed with the free cosine transform.  This module also evaluates the two
operator-algebra decompositions of ``W`` built from elementary pieces — even
extension to the full line, restriction back, the Hilbert transform,
convolution by the transformed scattering data, and the transformation-kernel
integral operator — and provides probes that measure how the routes act on
L^p test families.

Layout
------
``FieldRplus`` / ``FieldR`` hold fields sampled on the half line and on a
grid symmetric about 0 with its centre node at 0; each constructor checks
its own grid and refuses non-finite samples.  A grid taken, sliced or
reflected from a checked field is valid by construction, and so is
``grid.x_sym``, on which the symbols ``F_s`` and ``P_+-`` live: fields
derived from either are not checked again, only their length.  The routes
are written directly on the primitives (extension, restriction, Hilbert
transform, convolution, kernel application).  The formulas interleave the
two domains; ``kernel_apply`` and its adjoint reject a ``FieldR`` with
``DomainMismatch``, since a full-line field passes their grid checks and
the kernel rows would act on its negative-x samples.

Fields are immutable: the constructor takes its own copy of the samples,
and every field's ``values`` is a read-only view.  So a field keeps what
the routes compute from it that does not depend on the sign, built at the
first call that needs it, one slot per kind: a half-line field its even
extension, the decomposed route's bracket halves for one scattering table
and the stationary route's cosine data for one grid; a full-line field
its spectrum on the one circle of every convolution on its grid
(:func:`_convolve`).  ``W_+`` and ``W_-`` of one field then share that
work, and a slot built from another table or grid is rebuilt.  A slot
holds the table or grid it was built from.

All adjoints are the exact discrete adjoints of the forward quadratures with
respect to the trapezoid inner products, so duality tests close to rounding;
they agree with the continuum adjoint formulas up to the quadrature rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from numpy.fft import fft

from .grids import (
    SPECTRUM_CACHE,
    _circle_product,
    circular_convolve,
    convolution_spectrum,
    next_fast_len,
    trapezoid_weights,
)
from .jost import KernelTable
from .scattering import ScatteringTable
from .spectral import (
    PhysicalSolutionTable,
    WindowOverflow,
    _as_field,
    _check_finite,
    _check_sign,
    f0_transform,
    fourier_maps_adjoint,
    interacting_after_free,
)

__all__ = [
    "WaveOpError",
    "GridMismatch",
    "DomainMismatch",
    "WindowTooSmall",
    "SchurUnbounded",
    "HypothesisViolated",
    "DomainReflection",
    "FieldR",
    "FieldRplus",
    "extend_even",
    "restrict",
    "extend_even_adjoint",
    "restrict_adjoint",
    "hilbert",
    "convolve",
    "convolve_adjoint",
    "kernel_apply",
    "kernel_apply_adjoint",
    "wave_op_stationary",
    "wave_op_decomposed",
    "wave_op_l1_form",
    "wave_op_adjoint",
    "wave_op_time_limit",
    "lp_probe",
    "bump_family",
    "EVIDENCE_NOTE",
]

#: mass fraction allowed in the outer tenth of the window for the Hilbert
#: transform precondition
OUTER_MASS_FRACTION = 0.01

#: squared-norm mass below which a field counts as numerically zero and the
#: window precondition is moot
NEGLIGIBLE_MASS = 1e-20

#: ceiling for the kernel Schur row/column integrals
SCHUR_BOUND = 100.0

#: how closely S(0) and S_infinity must match the identity for the four-term
#: convolution form to apply
IDENTITY_TOL = 1e-3

#: probe classifier thresholds: ratio spread below which a family is called
#: bounded, total monotone increase above which it is called growing, and the
#: jitter allowed when judging monotonicity
BOUNDED_SPREAD = 2.0
GROWTH_TOTAL = 1.2
GROWTH_JITTER = 0.98
#: growth between successive time-limit distances still called non-increasing
DISTANCE_JITTER = 1.1

EVIDENCE_NOTE = (
    "finite family of dilated bumps on a truncated window: ratios are "
    "evidence about L^p behavior, not a proof"
)


class WaveOpError(RuntimeError):
    """Base class for wave-operator failures."""


class GridMismatch(WaveOpError):
    """Fields or kernels sampled on incompatible grids."""


class DomainMismatch(WaveOpError):
    """A field on the wrong domain for the operator."""


class WindowTooSmall(WaveOpError):
    """Too much field mass near the window edge for a nonlocal transform."""


class SchurUnbounded(WaveOpError):
    """Kernel row/column integrals exceed the configured ceiling."""


class HypothesisViolated(WaveOpError):
    """The four-term convolution form needs S(0) = S_infinity = I."""

    def __init__(self, s0_defect: float, sinf_defect: float):
        self.s0_defect = float(s0_defect)
        self.sinf_defect = float(sinf_defect)
        super().__init__(
            "the four-term form requires S(0) and the high-energy limit to be "
            f"the identity: defects {s0_defect:.3e} (S(0)), {sinf_defect:.3e} "
            "(S_infinity)"
        )


class DomainReflection(WaveOpError):
    """Evolved mass reached the far edge of the evolution domain."""


# --------------------------------------------------------------------------
# tagged fields
# --------------------------------------------------------------------------


def _check_uniform(x: np.ndarray, label: str) -> None:
    steps = np.diff(x)
    if x.size < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise GridMismatch(f"{label} grid must be uniform")


@dataclass(frozen=True)
class _Field:
    """Samples of a C^n-valued function on a uniform grid; the subclasses
    fix and check which grid.  Immutable: ``values`` is a read-only view,
    and the constructor copies the caller's grid and samples, the grid
    read-only too."""

    x: np.ndarray
    values: np.ndarray

    #: the grid's name in error messages
    kind = "uniform"

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        x.flags.writeable = False
        self._adopt(x, np.array(self.values, dtype=complex))
        _check_finite(self.values, "field values")
        _check_uniform(self.x, self.kind)
        self._check_grid()

    def _adopt(self, x: np.ndarray, values: np.ndarray) -> None:
        values = _as_field(values).view()
        values.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        if self.values.shape[0] != self.x.size:
            raise GridMismatch("field values do not match the grid length")

    def _check_grid(self) -> None:
        """Raise ``GridMismatch`` unless ``x`` is this kind of field's grid;
        uniformity is checked apart."""

    @classmethod
    def _derived(cls, x: np.ndarray, values: np.ndarray):
        """A field on ``x``, a grid taken, sliced or reflected from a field
        that passed its checks, or ``grid.x_sym``: valid by construction, so
        only the length is checked.  Fields on a caller's grid are built by
        the constructor, which runs every check."""
        field = object.__new__(cls)
        field._adopt(x, values)
        return field

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.x)

    def norm(self, p: float = 2) -> float:
        return _lp_norm(self.values, self.weights, p)

    def replace_values(self, values: np.ndarray):
        """The same kind of field on the same grid with new samples."""
        return self._derived(self.x, values)

    @cached_property
    def _kept(self) -> dict:
        """The sign-free intermediates this field keeps, by kind."""
        return {}

    def _keep(self, kind: str, source: object, build: Callable[[], object]):
        """The intermediate ``kind`` of this field built from ``source`` (a
        table or a grid, compared by identity): ``build()`` at the first
        call, kept in the kind's one slot with ``source`` itself, its arrays
        read-only, and built again when ``source`` changes."""
        slot = self._kept.get(kind)
        if slot is None or slot[0] is not source:
            value = build()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            slot = self._kept[kind] = (source, value)
        return slot[1]


class FieldRplus(_Field):
    """Samples of a C^n-valued function on a uniform half-line grid.

    Keeps its even extension (:func:`extend_even`), and the sign-free parts
    of :func:`wave_op_decomposed` and :func:`wave_op_stationary`, for the
    last table and grid they read."""

    kind = "half-line"

    def _check_grid(self) -> None:
        if abs(self.x[0]) > 1e-12:
            raise GridMismatch("half-line grid must start at 0")


class FieldR(_Field):
    """Samples of a C^n-valued function on a uniform grid symmetric about 0
    whose centre node is 0, so that its right half is a half-line grid.

    Keeps its FFT on the circle of every kernel on its grid, which each
    symbol convolution reads (:func:`_convolve`)."""

    kind = "symmetric"

    def _check_grid(self) -> None:
        if self.x.size % 2 == 0 or np.abs(self.x + self.x[::-1]).max() > 1e-9:
            raise GridMismatch("full-line grid must be symmetric about 0")
        if abs(self.x[self.center]) > 1e-12:
            raise GridMismatch("full-line grid must have its centre node at 0")

    @property
    def center(self) -> int:
        return self.x.size // 2


def _lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    point = np.sqrt(np.sum(np.abs(values) ** 2, axis=1))  # euclidean in C^n
    if p == np.inf:
        return float(point.max(initial=0.0))
    return float(np.sum(weights * point**p) ** (1.0 / p))


def _same_grid(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.size != b.size or np.abs(a - b).max() > 1e-9:
        raise GridMismatch(f"{what} must share one grid")


# --------------------------------------------------------------------------
# extension / restriction and their exact discrete adjoints
# --------------------------------------------------------------------------


def extend_even(f: FieldRplus) -> FieldR:
    """Even reflection onto the symmetric grid: value at -x equals value at x.
    Built once per field and kept on it."""

    def build() -> FieldR:
        xs = np.concatenate([-f.x[:0:-1], f.x])
        return FieldR._derived(xs, np.concatenate([f.values[:0:-1], f.values]))

    return f._keep("even", None, build)


def restrict(f: FieldR) -> FieldRplus:
    """Forget the negative half-line."""
    c = f.center
    return FieldRplus._derived(f.x[c:], f.values[c:])


def extend_even_adjoint(f: FieldR) -> FieldRplus:
    """Adjoint of the even extension: ``x -> Y(x) + Y(-x)`` on the half
    line (the origin node receives twice its value).  Exact for the trapezoid
    inner products on both grids."""
    c = f.center
    vals = f.values[c:] + f.values[c::-1]
    return FieldRplus._derived(f.x[c:], vals)


def restrict_adjoint(f: FieldRplus) -> FieldR:
    """Adjoint of the restriction: extend by zero to the left.  The origin
    node carries half its value so that the trapezoid inner products pair
    exactly (its half-line weight is half its full-line weight)."""
    xs = np.concatenate([-f.x[:0:-1], f.x])
    vals = np.zeros((xs.size, f.n), dtype=complex)
    vals[f.x.size - 1 :] = f.values
    vals[f.x.size - 1] *= 0.5
    return FieldR._derived(xs, vals)


# --------------------------------------------------------------------------
# Hilbert transform
# --------------------------------------------------------------------------


def _edge_mass_fraction(f: FieldR, outer_fraction: float = 0.1) -> float:
    point = np.sum(np.abs(f.values) ** 2, axis=1)  # squared-norm mass density
    total = float(np.sum(f.weights * point))
    if total <= NEGLIGIBLE_MASS:
        return 0.0
    edge = np.abs(f.x) > (1.0 - outer_fraction) * f.x[-1]
    return float(np.sum(f.weights[edge] * point[edge]) / total)


def hilbert(f: FieldR) -> FieldR:
    """Discrete Hilbert transform ``(1/pi) PV integral Y(y)/(x-y) dy`` as the
    linear convolution of the samples with the lattice Hilbert kernel,
    ``(H Y)_j = sum_l h[j - l] Y_l`` with ``h[m] = 2/(pi m)`` for odd ``m`` and
    0 for even ``m``.

    ``h[m]`` is the transform of a unit sample's sinc interpolant, read ``m``
    nodes away: the infinite-padding limit of the momentum multiplier
    ``-i sign(k)``.  So the result is exact for band-limited samples.  As
    :func:`_hilbert_from` node 0 on, the kernel's lags ``|m| < N`` on a
    circle of ``next_fast_len(2N - 1)`` points make it one FFT product that
    cannot wrap around.

    Raises
    ------
    WindowTooSmall
        If more than ``OUTER_MASS_FRACTION`` of the field's mass sits in the
        outer tenth of the window: the field is cut off at the window edge,
        and the transform's 1/x tail misses what lies beyond it.
    """
    return f.replace_values(_hilbert_from(f, 0))


def _hilbert_from(f: FieldR, first: int) -> np.ndarray:
    """:func:`hilbert` at the nodes ``j >= first`` alone, checked on the whole
    field: their lags ``first + 1 - N .. N - 1`` fit once on a circle of
    ``next_fast_len(2N - 1 - first)`` points (:func:`_hilbert_spectrum`)."""
    frac = _edge_mass_fraction(f)
    if frac > OUTER_MASS_FRACTION:
        raise WindowTooSmall(
            f"{frac:.1%} of the field mass lies in the outer tenth of the "
            "window; enlarge it before applying a nonlocal transform"
        )
    return circular_convolve(_hilbert_spectrum(f.x.size, first), f.values)[: f.x.size - first]


@lru_cache(maxsize=SPECTRUM_CACHE)
def _hilbert_spectrum(nx: int, first: int) -> np.ndarray:
    """The lattice Hilbert kernel's spectrum for the outputs ``j >= first`` of
    ``nx`` samples: each lag ``m = first + 1 - nx .. nx - 1`` they read sits at
    index ``(m - first) mod size``, so output ``j - first`` is ``(H Y)_j``."""
    size = next_fast_len(2 * nx - 1 - first)
    m = np.arange(first + 1 - nx, nx)
    odd = m[m % 2 == 1]
    circle = np.zeros(size)
    circle[(odd - first) % size] = 2.0 / (np.pi * odd)
    spectrum = np.fft.fft(circle)
    spectrum.flags.writeable = False
    return spectrum


# --------------------------------------------------------------------------
# convolution and kernel application, with exact discrete adjoints
# --------------------------------------------------------------------------


def _matrix_kernel(G: FieldR, f: FieldR) -> np.ndarray:
    """The kernel samples as an ``(x, n, n)`` array, checked against the
    field's grid and channel count."""
    _same_grid(G.x, f.x, "convolution kernel and field")
    g = G.values if G.values.ndim == 3 else G.values[:, :, None]
    if g.shape[1] != f.n or g.shape[2] != f.n:
        raise GridMismatch("kernel channel count does not match the field")
    return g


def _convolve(spectrum: np.ndarray, f: FieldR, adjoint: bool, keep: bool) -> FieldR:
    """``Q(G) f``, or with ``adjoint`` its exact discrete adjoint, from the
    :func:`~.grids.convolution_spectrum` of a kernel ``G`` on ``f``'s grid:
    one FFT product.  Every such kernel fills one circle, which depends on
    the grid alone.  The adjoint's kernel ``G(-l)^dagger`` fills it too, so
    its spectrum is ``G``'s conjugate-transposed; the trapezoid weights of
    ``f`` enter on both sides.  Forward, with ``keep``, ``f`` keeps its own
    spectrum on the circle (:meth:`_Field._keep`), built at the first call."""
    if adjoint:
        w = f.weights[:, None]
        out = circular_convolve(spectrum.conj().swapaxes(-1, -2), w * f.values)
        return f.replace_values(out * (f.dx / w))
    build = partial(fft, f.values, spectrum.shape[0], axis=0)
    vk = f._keep("circle", None, build) if keep else build()
    return f.replace_values(_circle_product(spectrum, vk, f.x.size) * f.dx)


def convolve(G: FieldR, f: FieldR) -> FieldR:
    """``(Q(G)Y)(x) = integral G(x-y) Y(y) dy`` with matrix-valued samples of
    ``G`` on the same symmetric grid (trapezoid-in-physical-space, evaluated
    as an exact linear convolution), its lag 0 at the centre node."""
    g = _matrix_kernel(G, f)
    return _convolve(convolution_spectrum(g, g.shape[0] // 2, g.shape[0]), f, False, False)


def convolve_adjoint(G: FieldR, f: FieldR) -> FieldR:
    """Exact discrete adjoint of :func:`convolve`: convolution by the
    reversed conjugate-transposed kernel, with the endpoint trapezoid weights
    folded in so the duality pairing closes to rounding."""
    g = _matrix_kernel(G, f)
    return _convolve(convolution_spectrum(g, g.shape[0] // 2, g.shape[0]), f, True, False)


def _kernel_gate(kt: KernelTable) -> None:
    worst = max(kt.schur_row, kt.schur_col)
    if worst > SCHUR_BOUND:
        raise SchurUnbounded(
            f"kernel row/column integrals {kt.schur_row:.3e}/{kt.schur_col:.3e} "
            f"exceed the ceiling {SCHUR_BOUND:.3e}"
        )


def _kernel_grid_check(kt: KernelTable, f: FieldRplus) -> None:
    if not isinstance(f, FieldRplus):
        raise DomainMismatch(
            f"the kernel acts on half-line fields, got a {type(f).__name__}"
        )
    if abs(f.dx - (kt.y[1] - kt.y[0])) > 1e-9 * f.dx:
        raise GridMismatch("field and kernel columns use different spacings")
    if f.x.size < kt.y.size:
        raise GridMismatch("field window ends before the kernel columns do")


def kernel_apply(kt: KernelTable, f: FieldRplus) -> FieldRplus:
    """``integral_x^inf K(x, y) Y(y) dy`` by the trapezoid rule over the
    kernel's columns: ``kt.values`` is zero for ``y < x`` and holds half the
    jump at ``y = x``, so each row's sum starts at its diagonal.

    Raises
    ------
    SchurUnbounded
        If either Schur integral of the kernel exceeds ``SCHUR_BOUND``.
    DomainMismatch
        If the field is not a half-line field.
    GridMismatch
        If the field grid is not a superset of the kernel columns.
    """
    _kernel_gate(kt)
    _kernel_grid_check(kt, f)
    out = np.zeros_like(f.values)
    weighted = kt.wy[:, None] * f.values[: kt.y.size]
    out[: kt.x.size] = (kt.matrix @ weighted.ravel()).reshape(kt.x.size, -1)
    return f.replace_values(out)


def kernel_apply_adjoint(kt: KernelTable, f: FieldRplus) -> FieldRplus:
    """Exact discrete adjoint of :func:`kernel_apply` (the conjugate
    transpose acting from rows to columns, ``integral_0^x K(y,x)^dagger Y(y)
    dy`` in the continuum)."""
    _kernel_gate(kt)
    _kernel_grid_check(kt, f)
    wg, nxk, ny = f.weights, kt.x.size, kt.y.size
    out = np.zeros_like(f.values)
    weighted = np.conj(wg[:nxk, None] * f.values[:nxk])
    out[:ny] = np.conj(weighted.ravel() @ kt.matrix).reshape(ny, -1)
    out[:ny] *= (kt.wy / wg[:ny])[:, None]
    return f.replace_values(out)


# --------------------------------------------------------------------------
# the three wave-operator routes
# --------------------------------------------------------------------------


def wave_op_stationary(pt: PhysicalSolutionTable, f: FieldRplus, sign: int = +1) -> FieldRplus:
    """Stationary route: adjoint generalized Fourier map applied to the free
    cosine transform of the field.  The cosine data ``F_0 f`` do not depend
    on the sign: the field keeps them for the table's grid, so ``W_+`` and
    ``W_-`` of one field take one cosine transform."""
    _same_grid(pt.grid.x, f.x, "field and solution table")
    grid = pt.grid
    cosine = f._keep("cosine", grid, lambda: f0_transform(grid, f.values))
    return f.replace_values(fourier_maps_adjoint(pt, cosine, sign))


def wave_op_decomposed(
    st: ScatteringTable, kt: KernelTable, f: FieldRplus, sign: int = +1
) -> FieldRplus:
    """Operator-algebra route ``(I + K) R [P_+- E f + P_-+ S_inf E f +
    P_-+ (F_s * E f)]`` with the half-momentum projections
    ``P_+- = (1 +- i sign H) / 2``: the plain even extension, the one twisted
    by the high-energy limit of S, and the one twisted by convolution with
    the transform of ``S - S_infinity``.  ``H`` is linear, so with
    ``t = S_inf E f + F_s * E f`` the bracket is ``(E f + t) / 2 +
    (i sign / 2) H(E f - t)``: one convolution, one Hilbert transform and one
    kernel pass.  ``R`` keeps the last ``c + 1`` of the ``N = 2c + 1`` nodes,
    the only ones transformed, on ``next_fast_len(N + c)`` points.  The
    halves ``a = R (E f + t) / 2`` and ``b = (i / 2) R H(E f - t)`` do not
    depend on the sign: the field keeps them for the table ``st``, so
    ``W_+`` and ``W_-`` of one field share them and differ by the kernel
    pass on ``a + sign b`` alone.

    Raises
    ------
    SpectralError
        If ``sign`` is not +1 or -1.
    WindowTooSmall
        If ``E f - t``, the one field that is Hilbert transformed, has too
        much mass near the window edge, where the transform cuts it off.
        Under ``S_inf = I`` and ``F_s = 0`` (free Neumann) that field
        vanishes to rounding, so the gate passes and the route returns ``f``
        whatever the field's support.
    """
    _check_sign(sign)
    a, b = f._keep("bracket", st, lambda: _bracket_halves(st, f))
    u = f.replace_values(a + b if sign > 0 else a - b)
    return u.replace_values(u.values + kernel_apply(kt, u).values)


def _bracket_halves(st: ScatteringTable, f: FieldRplus) -> tuple[np.ndarray, np.ndarray]:
    """The sign-free halves ``(a, b)`` of the decomposed route's bracket on
    the half line (see :func:`wave_op_decomposed`)."""
    g = extend_even(f)
    t = g.values @ st.S_infinity.T + _symbol_convolve(st, "Fs", g).values
    c = g.center
    h = _hilbert_from(g.replace_values(g.values - t), c)
    return 0.5 * (g.values[c:] + t[c:]), 0.5j * h


def _identity_gate(st: ScatteringTable) -> None:
    eye = np.eye(st.n)
    s0_defect = float(np.linalg.norm(st.S0 - eye, 2))
    sinf_defect = float(np.linalg.norm(st.S_infinity - eye, 2))
    if max(s0_defect, sinf_defect) > IDENTITY_TOL:
        raise HypothesisViolated(s0_defect, sinf_defect)


def _symbol_field(st: ScatteringTable, name: str) -> FieldR:
    """The symbol ``"Fs"``, ``"Pplus"`` or ``"Pminus"`` as a field on ``grid.x_sym``."""
    if st.Fs is None:
        raise WaveOpError("attach the symbols of S - S_infinity (fs_symbol) first")
    return FieldR._derived(st.grid.x_sym, getattr(st, name))


def _symbol_convolve(st: ScatteringTable, name: str, f: FieldR, adjoint: bool = False) -> FieldR:
    """:func:`convolve` by the symbol ``name`` (with ``adjoint``,
    :func:`convolve_adjoint`) from the spectrum the table keeps
    (:meth:`~.scattering.ScatteringTable.symbol_spectrum`), after the same
    checks; forward, the field keeps its own spectrum (:func:`_convolve`)."""
    _matrix_kernel(_symbol_field(st, name), f)
    return _convolve(st.symbol_spectrum(name), f, adjoint, True)


def wave_op_l1_form(
    st: ScatteringTable, kt: KernelTable, f: FieldRplus, sign: int = +1
) -> FieldRplus:
    """Four-term convolution route, valid when both S(0) and the high-energy
    limit equal the identity: field, kernel image, restricted convolution of
    the even extension by the half-momentum symbol, and the kernel image of
    that.  By linearity this is ``(I + K)(I + R Q E) f`` with ``Q`` the
    convolution by the symbol: one convolution and one kernel pass.

    Raises
    ------
    SpectralError
        If ``sign`` is not +1 or -1.
    HypothesisViolated
        If either limit of S differs from the identity by more than the
        configured tolerance.
    """
    _check_sign(sign)
    _identity_gate(st)
    name = "Pplus" if sign > 0 else "Pminus"
    u = f.replace_values(f.values + restrict(_symbol_convolve(st, name, extend_even(f))).values)
    return u.replace_values(u.values + kernel_apply(kt, u).values)


def wave_op_adjoint(
    st: ScatteringTable, kt: KernelTable, f: FieldRplus, sign: int = +1
) -> FieldRplus:
    """Adjoint of the four-term route, ``(I + E^* Q^* R^*)(I + K^*) f`` with
    ``Q`` the half-momentum symbol's convolution: each factor's exact discrete
    adjoint, in reverse order, one pass each; it raises as the route does."""
    _check_sign(sign)
    _identity_gate(st)
    name = "Pplus" if sign > 0 else "Pminus"
    v = f.replace_values(f.values + kernel_apply_adjoint(kt, f).values)
    tail = extend_even_adjoint(_symbol_convolve(st, name, restrict_adjoint(v), adjoint=True))
    return v.replace_values(v.values + tail.values)


# --------------------------------------------------------------------------
# time limits and L^p probes
# --------------------------------------------------------------------------


def wave_op_time_limit(
    pt: PhysicalSolutionTable,
    f: FieldRplus,
    sign: int = +1,
    tschedule: Sequence[float] = (25.0, 50.0, 100.0, 200.0),
) -> dict:
    """Distances between the finite-time products ``e^{itH} e^{-itH0} Y`` and
    the stationary route, over a schedule of times pushed toward the
    ``sign``-infinity; ``nonincreasing`` allows each distance to exceed the
    one before by the factor ``DISTANCE_JITTER``.

    Raises
    ------
    WaveOpError
        If the schedule holds no time.
    DomainReflection
        If the evolution's outer-mass monitor trips (window too small for the
        largest time).
    """
    if len(tschedule) == 0:
        raise WaveOpError("tschedule must hold at least one time")
    stationary = wave_op_stationary(pt, f, sign)
    base = stationary.norm(2)
    times = [sign * abs(t) for t in tschedule]
    distances = []
    for t in times:
        try:
            theta = interacting_after_free(pt, f.values, t, sign)
        except WindowOverflow as exc:
            raise DomainReflection(str(exc)) from exc
        distances.append(f.replace_values(theta - stationary.values).norm(2))
    distances = np.asarray(distances)
    nonincreasing = bool(np.all(distances[1:] <= DISTANCE_JITTER * distances[:-1]))
    return {
        "t": np.asarray(times),
        "distance": distances,
        "relative": distances / base if base > 0 else distances,
        "nonincreasing": nonincreasing,
        "final_distance": float(distances[-1]),
    }


def bump_family(
    x: np.ndarray,
    scales: int = 7,
    center: float = 8.0,
    base_width: float = 2.0,
    n: int = 1,
) -> list[FieldRplus]:
    """Gaussian bumps at one location with dyadically shrinking widths.

    Each field has unit sup norm in the Euclidean ``C^n`` norm of
    ``FieldRplus.norm``: every one of the ``n`` channels carries
    ``bump / sqrt(n)``."""
    x = np.asarray(x, dtype=float)
    family = []
    for m in range(scales):
        w = base_width * 2.0**-m
        bump = np.exp(-(((x - center) / w) ** 2)) / np.sqrt(n)
        family.append(FieldRplus(x, np.repeat(bump[:, None], n, axis=1)))
    return family


def lp_probe(
    op_factory: Callable[[np.ndarray], Callable[[FieldRplus], FieldRplus]],
    x: np.ndarray,
    p: float,
    scales: int = 7,
    center: float = 8.0,
    base_width: float = 2.0,
    n: int = 1,
) -> dict:
    """Ratio table ``|W Y_s|_p / |Y_s|_p`` over a dyadic bump family.

    ``op_factory`` receives a half-line grid and returns the operator on it;
    the probe repeats the sweep on a doubled window and reports the ratio
    drift, since norms on a truncated window only give evidence about L^p
    behavior.  The ratios are those of a linear operator, so they do not
    depend on the scale of the bump family.

    Classification: ``bounded`` when the ratio spread stays below a factor of
    2; ``growing`` when the ratios increase monotonically (2% jitter) by more
    than 20% overall across the dyadic sweep; ``inconclusive`` otherwise.
    """
    x = np.asarray(x, dtype=float)

    def sweep(xg: np.ndarray) -> np.ndarray:
        op = op_factory(xg)
        family = bump_family(xg, scales, center, base_width, n)
        return np.array([op(fm).norm(p) / fm.norm(p) for fm in family])

    ratios = sweep(x)
    dx = float(x[1] - x[0])
    xd = np.arange(0.0, 2.0 * x[-1] + 0.5 * dx, dx)
    wide = sweep(xd)
    sensitivity = float(np.max(np.abs(wide - ratios) / np.maximum(ratios, 1e-300)))

    spread = float(ratios.max() / ratios.min()) if ratios.min() > 0 else np.inf
    monotone = bool(np.all(ratios[1:] >= GROWTH_JITTER * ratios[:-1]))
    total = float(ratios[-1] / ratios[0]) if ratios[0] > 0 else np.inf
    if spread < BOUNDED_SPREAD:
        label = "bounded"
    elif monotone and total > GROWTH_TOTAL:
        label = "growing"
    else:
        label = "inconclusive"
    widths = base_width * 2.0 ** -np.arange(scales)
    return {
        "widths": widths,
        "ratios": ratios,
        "ratios_doubled_window": wide,
        "window_sensitivity": sensitivity,
        "classification": label,
        "evidence": EVIDENCE_NOTE,
    }
