"""Scattering matrix, its limits, and the Fourier symbols built from it.

The scattering matrix on the momentum grid is assembled from the Jost matrix
by batched linear solves.  Its limits are exact: ``S_inf`` depends on the
boundary pair alone, and ``S(0) = -I + 2P`` with ``P`` the orthogonal
projector onto ``Ker J(0)^dagger``.  The table's outer samples are checked
against ``S_inf``.  The wave-operator symbols live on ``grid.x_sym``, the
nodes the routes convolve on: the half-line transforms ``P_+-`` of ``S -
S_inf`` are one tapered synthesis each, and the full-line ``F_s`` is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .boundary import diagonalize_boundary, predicted_s_infinity
from .grids import KXGrid, UniformSpline, convolution_spectrum, fourier_sum, trapezoid_weights
from .jost import JostTable
from .potentials import _spectral_norms

__all__ = [
    "ScatteringError",
    "SingularJost",
    "NoPlateau",
    "ScatteringTable",
    "smatrix",
    "s_limits",
    "fs_symbol",
    "p_symbols",
    "h1_membership",
    "scattering_table",
]

OUTER_PLATEAU_FRACTION = 0.10
PLATEAU_TOL = 1e-2
UNITARITY_GUARD = 1e-3


class ScatteringError(RuntimeError):
    """Base class for scattering-matrix failures."""


class SingularJost(ScatteringError):
    """The Jost matrix is numerically singular at a real grid momentum."""

    def __init__(self, k: float, min_sv: float):
        self.k = float(k)
        self.min_sv = float(min_sv)
        super().__init__(
            f"Jost matrix singular at k={k:.6g} (min singular value {min_sv:.3e}); "
            "exclude a neighborhood of k=0 in the exceptional case"
        )


class NoPlateau(ScatteringError):
    """The outer samples of S(k) have not reached S_inf inside the window."""


@dataclass(frozen=True)
class ScatteringTable:
    """Scattering data on the momentum grid.

    Attributes
    ----------
    k : ndarray
        Momentum nodes (symmetric, half-offset).
    S : ndarray
        ``S(k) = -J(-k) J(k)^{-1}``, shape ``(len(k), n, n)``.
    S0, S_infinity : ndarray
        The exact zero- and high-energy limits (see smatrix).
    plateau_deviation : float or None
        Gap between the outer samples and ``S_infinity`` (see s_limits).
    Fs, Pplus, Pminus : ndarray or None
        The transform of ``S - S_inf`` on ``grid.x_sym`` and its two half-line
        pieces, ``Fs = Pplus + Pminus``; fs_symbol (alias p_symbols) attaches
        them with ``fs_l1`` and ``p_conjugation_defect``.  The routes
        convolve by them through their spectra, which the table builds at
        first use and keeps (see symbol_spectrum).
    h1norm : float or None
        Sobolev norm of ``S - S_inf`` (see h1_membership).
    """

    k: np.ndarray
    S: np.ndarray
    n: int
    exceptional: bool
    unitarity_defect: float
    symmetry_defect: float
    S0: np.ndarray
    S_infinity: np.ndarray
    grid: KXGrid
    boundary: object = None
    plateau_deviation: float | None = None
    Fs: np.ndarray | None = None
    fs_l1: float | None = None
    Pplus: np.ndarray | None = None
    Pminus: np.ndarray | None = None
    p_conjugation_defect: float | None = None
    h1norm: float | None = None

    def s_at(self, k_query: np.ndarray) -> np.ndarray:
        """S at arbitrary momenta: the not-a-knot :class:`~.grids.UniformSpline`
        through the grid samples, entrywise."""
        return UniformSpline(self.k, self.S)(k_query)

    def symbol_spectrum(self, name: str) -> np.ndarray:
        """The :func:`~.grids.convolution_spectrum` of the symbol ``name``
        (``"Fs"``, ``"Pplus"`` or ``"Pminus"``) for fields on ``grid.x_sym``,
        its lag 0 at the centre node.  Built at its first use, not by
        :func:`fs_symbol`, and kept on this table (read-only); a table made
        by ``dataclasses.replace`` builds its own."""
        spectra = self._symbol_spectra
        if name not in spectra:
            g = getattr(self, name)
            spectra[name] = convolution_spectrum(g, g.shape[0] // 2, g.shape[0])
            spectra[name].flags.writeable = False
        return spectra[name]

    @cached_property
    def _symbol_spectra(self) -> dict[str, np.ndarray]:
        return {}


def smatrix(jt: JostTable) -> ScatteringTable:
    """Scattering matrix ``S(k) = -J(-k) J(k)^{-1}`` on the grid, and its
    exact limits.

    Solves ``S(k) J(k) = -J(-k)`` as one batched linear system per momentum;
    the symmetric half-offset grid never contains ``k = 0``, so the
    exceptional case needs no special-casing here.  ``S_inf`` is
    ``predicted_s_infinity`` of the boundary pair, and ``S(0) = 2 P - I``
    with ``P`` the projector onto the Jost matrix's ``zero_modes``.

    Raises
    ------
    SingularJost
        If some ``J(k)`` is numerically singular (relative to the table's
        largest singular value).
    ScatteringError
        If the computed matrix fails unitarity beyond a loose sanity guard.
        The Jost tables are exact per cell, so this means round-off amplified
        by an ill-conditioned ``J(k)`` or an input that is not self-adjoint.
    """
    jm = jt.jmatrix
    if jm is None:
        raise ScatteringError("attach a Jost matrix (jost_matrix) before smatrix")
    J, sv = jm.J, jm.sv
    smallest = sv[:, -1]  # singular values come in descending order
    worst = int(np.argmin(smallest))
    if smallest[worst] < 1e-12 * sv.max():
        raise SingularJost(jt.k[worst], smallest[worst])
    Jm = J[::-1]  # J(-k), exact node map
    # S J = -J(-k)  <=>  J^T S^T = -J(-k)^T
    S = -np.linalg.solve(J.transpose(0, 2, 1), Jm.transpose(0, 2, 1)).transpose(0, 2, 1)
    eye = np.eye(jt.n)
    defects = np.abs(S.conj().swapaxes(-1, -2) @ S - eye).max(axis=(1, 2))
    unit = float(defects.max())
    symm = float(np.abs(S[::-1] - S.conj().swapaxes(-1, -2)).max())
    if unit > UNITARITY_GUARD:
        bad = int(np.argmax(defects))
        raise ScatteringError(
            f"unitarity defect {unit:.2e} exceeds the sanity guard at k={jt.k[bad]:g}, where "
            f"J(k) has condition number {sv[bad].max() / sv[bad].min():.1e}: the Jost tables are "
            "exact per cell, so round-off in an ill-conditioned J(k) or an input that is not "
            "self-adjoint is to blame"
        )
    u0 = jm.zero_modes
    return ScatteringTable(
        k=jt.k,
        S=S,
        n=jt.n,
        exceptional=jm.exceptional,
        unitarity_defect=unit,
        symmetry_defect=symm,
        S0=2.0 * (u0 @ u0.conj().T) - eye,
        S_infinity=predicted_s_infinity(diagonalize_boundary(jm.boundary)),
        grid=jt.grid,
        boundary=jm.boundary,
    )


def s_limits(st: ScatteringTable) -> ScatteringTable:
    """Attach ``plateau_deviation``, the largest gap between the exact
    ``S_inf`` and the Hermitian-symmetrized samples ``(S(k) + S(-k))/2`` over
    the outer ``OUTER_PLATEAU_FRACTION`` of nodes; the symmetrization cancels
    the anti-Hermitian ``O(1/k)`` leading tail, leaving an ``O(1/k^2)`` gap.

    Raises
    ------
    NoPlateau
        If the gap exceeds ``PLATEAU_TOL``: the momentum window ends before
        the plateau forms.
    """
    k, S = st.k, st.S
    sym = 0.5 * (S + S[::-1])  # S(-k) = S(k)^dagger: Hermitian part, pairwise
    m = max(2, int(round(OUTER_PLATEAU_FRACTION * k.size / 2)))
    outer = np.concatenate([sym[:m], sym[-m:]], axis=0)
    deviation = float(np.abs(outer - st.S_infinity).max())
    if deviation > PLATEAU_TOL:
        raise NoPlateau(
            f"high-energy plateau deviation {deviation:.2e} exceeds {PLATEAU_TOL:.1e}; "
            "increase the momentum window"
        )
    return replace(st, plateau_deviation=deviation)


def _require_sinf(st: ScatteringTable) -> ScatteringTable:
    return st if st.plateau_deviation is not None else s_limits(st)


def fs_symbol(st: ScatteringTable) -> ScatteringTable:
    """The symbols of ``S - S_inf`` on the nodes ``grid.x_sym``, in one step:

    ``P_plus(x)  = (1/2pi) integral_0^inf e^{-ikx} (S(-k) - S_inf) dk``
    ``P_minus(x) = (1/2pi) integral_0^inf e^{+ikx} (S(k) - S_inf) dk``

    each one tapered midpoint sum over the positive momenta, and their sum
    ``F_s``, the full-line transform ``(1/2pi) integral (S(k) - S_inf) e^{ikx}
    dk``.  Attaches ``Fs``, its integrated spectral norm ``fs_l1`` (finite for
    Hermitian potentials with a first moment), ``Pplus``, ``Pminus`` and the
    gap ``p_conjugation_defect`` in ``P_minus(x) = P_plus(x)^dagger``.
    ``p_symbols`` names the same step; a table that holds the symbols already
    is returned unchanged.
    """
    if st.Fs is not None:
        return st
    st = _require_sinf(st)
    x = st.grid.x_sym
    pos = st.k > 0
    kp = st.k[pos]
    taper = st.grid.taper_pos
    gp = (st.S[pos] - st.S_infinity) * taper[:, None, None]
    gm = (st.S[::-1][pos] - st.S_infinity) * taper[:, None, None]  # S(-k), k > 0
    dk = st.grid.dk
    Pminus = (dk / (2.0 * np.pi)) * fourier_sum(gp, kp[0], dk, x, +1)
    Pplus = (dk / (2.0 * np.pi)) * fourier_sum(gm, kp[0], dk, x, -1)
    Fs = Pplus + Pminus
    # exact when the table has exact momentum-reflection symmetry; of the
    # order of the solver's symmetry defect otherwise
    mismatch = float(np.abs(Pminus - Pplus.conj().swapaxes(-1, -2)).max())
    l1 = float(_spectral_norms(Fs) @ trapezoid_weights(x))
    return replace(
        st, Fs=Fs, fs_l1=l1, Pplus=Pplus, Pminus=Pminus, p_conjugation_defect=mismatch
    )


p_symbols = fs_symbol


def h1_membership(st: ScatteringTable) -> ScatteringTable:
    """Discrete first-order Sobolev norm of ``S - S_inf`` over the window:
    ``integral (|S - S_inf|_F^2 + |S'|_F^2) dk``, with trapezoid weights on
    the nodes for ``|S - S_inf|^2`` and a plain sum over the interior nodes
    for the central-difference ``|S'|^2``.  Finite and grid-stable for
    Hermitian first-moment potentials; attach the value to the table."""
    st = _require_sinf(st)
    S = st.S
    dk = st.grid.dk
    diff2 = np.abs(S - st.S_infinity) ** 2
    sdot2 = np.abs((S[2:] - S[:-2]) / (2.0 * dk)) ** 2
    total = dk * (
        diff2.sum() - 0.5 * (diff2[0].sum() + diff2[-1].sum()) + sdot2.sum()
    )
    return replace(st, h1norm=float(total))


def scattering_table(jt: JostTable) -> ScatteringTable:
    """One-call pipeline: S, its limits, the symbols, and the Sobolev norm."""
    return h1_membership(fs_symbol(s_limits(smatrix(jt))))
