"""Matrix potentials as step functions and their decay functionals.

A potential is stored as a list of *cells*: disjoint intervals ``(a, b)``
carrying a constant Hermitian ``n x n`` matrix.  The representation is exact
for the step potentials used throughout, makes every moment integral a
closed-form sum over cells, and turns sampled potentials into step functions
at the sampling resolution.

The decay functionals govern all kernel estimates downstream:

* ``sigma(x)  = integral_x^inf |V(y)| dy``
* ``sigma1(x) = integral_x^inf  y |V(y)| dy``

with ``|.|`` the spectral (largest singular value) norm, so that
``integral_0^inf sigma(x) dx == sigma1(0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10

#: tail mass below which the support is considered truncated exactly
SUPPORT_TAIL_TOL = 1e-10


class PotentialError(ValueError):
    """Base class for potential validation failures."""


class NonHermitian(PotentialError):
    """A cell matrix fails Hermiticity beyond tolerance."""

    def __init__(self, x: float, defect: float):
        self.x = float(x)
        self.defect = float(defect)
        super().__init__(f"potential is not Hermitian at x={x}: defect {defect:.3e}")


class EmptySupport(PotentialError):
    """The cell list is empty: the potential carries no data at all."""


def _as_matrix(value, n: int) -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.shape == () and n == 1:
        m = m.reshape(1, 1)
    if m.shape != (n, n):
        raise PotentialError(f"cell matrix has shape {m.shape}, expected {(n, n)}")
    return m


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of ``n x n`` matrices: ``|a|`` when ``n = 1``,
    otherwise the square root of the top Gram eigenvalue, in closed form
    ``(a + d)/2 + hypot((a - d)/2, |b|)`` from the Gram entries
    ``[[a, b], [b*, d]]`` when ``n = 2``."""
    n = mats.shape[-1]
    if n == 1:
        return np.abs(mats[..., 0, 0])
    if n == 2:
        p, q = mats[..., 0], mats[..., 1]  # the two columns
        a = (p.real**2 + p.imag**2).sum(axis=-1)
        d = (q.real**2 + q.imag**2).sum(axis=-1)
        b = np.abs((p.conj() * q).sum(axis=-1))
        return np.sqrt(0.5 * (a + d) + np.hypot(0.5 * (a - d), b))
    gram = mats.conj().swapaxes(-1, -2) @ mats
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None))


@dataclass(frozen=True)
class PotentialSpec:
    """Step-cell matrix potential.

    Attributes
    ----------
    n : int
        Channel count (matrix dimension).
    breaks : ndarray
        Sorted cell boundaries, length ``m + 1``.
    values : ndarray
        Cell matrices, shape ``(m, n, n)``; the potential is ``values[i]`` on
        ``[breaks[i], breaks[i+1])`` and zero elsewhere.
    domain : str
        ``"half_line"`` (support in ``x >= 0``) or ``"line"``.
    """

    n: int
    breaks: np.ndarray
    values: np.ndarray
    domain: str = "half_line"

    @classmethod
    def from_cells(
        cls,
        n: int,
        cells: Iterable[tuple[float, float, object]],
        domain: str = "half_line",
    ) -> "PotentialSpec":
        """Build from ``(a, b, matrix)`` triples; cells may be unsorted but
        must not overlap.  Gaps between cells mean ``V = 0`` there."""
        cells = sorted(cells, key=lambda c: c[0])
        if not cells:
            raise EmptySupport("potential needs at least one cell")
        edges = [float(cells[0][0])]
        vals: list[np.ndarray] = []
        prev_end = edges[0]
        for a, b, mat in cells:
            a, b = float(a), float(b)
            if not b > a:
                raise PotentialError(f"cell ({a}, {b}) has non-positive length")
            if a < prev_end - 1e-12:
                raise PotentialError(f"cell ({a}, {b}) overlaps the previous cell")
            if a > prev_end + 1e-12:  # fill the gap with an explicit zero cell
                edges.append(a)
                vals.append(np.zeros((n, n), dtype=complex))
            edges.append(b)
            vals.append(_as_matrix(mat, n))
            prev_end = b
        spec = cls(
            n=n,
            breaks=np.asarray(edges, dtype=float),
            values=np.asarray(vals, dtype=complex),
            domain=domain,
        )
        if domain == "half_line" and spec.breaks[0] < -1e-12:
            raise PotentialError("half-line potential has a cell at negative x")
        return spec

    @classmethod
    def from_samples(
        cls,
        x: Sequence[float],
        samples: Sequence[object],
        domain: str = "half_line",
    ) -> "PotentialSpec":
        """Turn uniform samples into a step potential (midpoint cells).

        ``samples[i]`` is taken as the constant value on the cell centred at
        ``x[i]`` with the sampling step as width.
        """
        x = np.asarray(x, dtype=float)
        if x.size < 2:
            raise PotentialError("need at least two sample points")
        if len(samples) != x.size:
            raise PotentialError(f"{len(samples)} samples for {x.size} positions")
        h = x[1] - x[0]
        if not np.allclose(np.diff(x), h, rtol=0, atol=1e-12 * max(1.0, abs(h))):
            raise PotentialError("samples must be on a uniform grid")
        mats = [np.atleast_2d(np.asarray(s, dtype=complex)) for s in samples]
        n = mats[0].shape[0]
        cells = [(xi - h / 2, xi + h / 2, m) for xi, m in zip(x, mats)]
        if domain == "half_line" and cells[0][0] < 0:
            a, b, m = cells[0]
            cells[0] = (0.0, b, m)
        return cls.from_cells(n, cells, domain=domain)

    # -- evaluation -------------------------------------------------------------

    @cached_property
    def cell_norms(self) -> np.ndarray:
        """Spectral norm of each cell matrix."""
        return _spectral_norms(self.values)

    @cached_property
    def support_radius(self) -> float:
        """``X_V``: end of the last cell with a nonzero matrix (0 if V == 0).

        For line potentials this is ``max(|a|, |b|)`` over nonzero cells.
        """
        nz = self.cell_norms > SUPPORT_TAIL_TOL
        if not nz.any():
            return 0.0
        lo = self.breaks[:-1][nz]
        hi = self.breaks[1:][nz]
        if self.domain == "line":
            return float(max(hi.max(), -lo.min(), 0.0))
        return float(hi.max())

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """Potential matrices at the given positions, shape ``(len(x), n, n)``.

        Positions on a cell boundary take the right-hand cell (half-open
        cells ``[a, b)``).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        out = np.zeros((x.size, self.n, self.n), dtype=complex)
        inside = (idx >= 0) & (idx < self.values.shape[0])
        out[inside] = self.values[idx[inside]]
        return out

    def segment_values(self, edges: np.ndarray) -> np.ndarray:
        """Cell matrices on each interval of a segmentation that refines the
        cell boundaries (evaluated at segment midpoints)."""
        mids = 0.5 * (edges[:-1] + edges[1:])
        return self.value_at(mids)


@dataclass(frozen=True)
class Moments:
    """Decay functionals of a potential sampled on a grid.

    Attributes
    ----------
    x : ndarray
        Sample positions.
    sigma : ndarray
        ``integral_x^inf |V|`` at each sample.
    sigma1 : ndarray
        ``integral_x^inf y |V|`` at each sample.
    """

    x: np.ndarray
    sigma: np.ndarray
    sigma1: np.ndarray


def validate_potential(spec: PotentialSpec) -> dict:
    """Check Hermiticity cell by cell and report summary data.

    Returns
    -------
    dict
        ``{"n", "cells", "support_radius", "max_hermiticity_defect"}``.

    Raises
    ------
    NonHermitian
        If any cell matrix has ``|V - V^dagger| > 1e-10`` (spectral norm),
        reporting the left edge of the offending cell.
    EmptySupport
        If the potential has no cells.
    PotentialError
        If a cell boundary or a cell matrix entry is not finite.
    """
    if spec.values.shape[0] == 0:
        raise EmptySupport("potential has no cells")
    if not (np.isfinite(spec.breaks).all() and np.isfinite(spec.values).all()):
        raise PotentialError("potential cell boundaries and matrices must be finite")
    defects = _spectral_norms(spec.values - spec.values.conj().swapaxes(-1, -2))
    bad = np.flatnonzero(defects > HERMITICITY_TOL * np.maximum(1.0, spec.cell_norms))
    if bad.size:
        raise NonHermitian(spec.breaks[bad[0]], defects[bad[0]])
    return {
        "n": spec.n,
        "cells": int(spec.values.shape[0]),
        "support_radius": spec.support_radius,
        "max_hermiticity_defect": float(defects.max()),
    }


def _tail_cells(spec: PotentialSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends ``(a, b)`` of each cell's part in ``[x, inf)``, shape ``(len(x), cells)``."""
    x = np.asarray(x, dtype=float)[:, None]
    return np.maximum(spec.breaks[:-1], x), np.maximum(spec.breaks[1:], x)


def moments(spec: PotentialSpec, x: np.ndarray) -> Moments:
    """Tail moments ``sigma`` and ``sigma1`` evaluated exactly at the given
    positions (closed-form integration over the step cells)."""
    x = np.asarray(x, dtype=float)
    a, b = _tail_cells(spec, x)
    norms = spec.cell_norms[None, :]
    sigma = (norms * (b - a)).sum(axis=1)
    sigma1 = (norms * 0.5 * np.clip(b * b - a * a, 0.0, None)).sum(axis=1)
    return Moments(x=x, sigma=sigma, sigma1=sigma1)


def tail_integral(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """``integral_x^inf V(y) dy`` at each position, exact over the cells;
    shape ``(len(x), n, n)``."""
    a, b = _tail_cells(spec, x)
    return np.tensordot(b - a, spec.values, axes=1)


def l1gamma_norm(spec: PotentialSpec, gamma: float) -> float:
    """Weighted norm ``integral (1 + |x|)^gamma |V(x)| dx``, exact on cells
    through the odd antiderivative ``sign(x) ((1 + |x|)^(gamma + 1) - 1) /
    (gamma + 1)`` of the weight."""
    if gamma < 0:
        raise PotentialError("gamma must be non-negative")
    g1 = gamma + 1.0
    antiderivative = np.sign(spec.breaks) * ((1.0 + np.abs(spec.breaks)) ** g1 - 1.0) / g1
    return float(spec.cell_norms @ np.diff(antiderivative))


def _half_line(n: int, cells) -> PotentialSpec:
    """The ``x >= 0`` parts of ``(a, b, matrix)`` cells as a half-line spec
    (one zero cell if none is left)."""
    kept = [(max(a, 0.0), b, v) for a, b, v in cells if b > 0]
    return PotentialSpec.from_cells(n, kept or [(0.0, 1.0, np.zeros((n, n)))])


def reflect_potential(spec: PotentialSpec) -> PotentialSpec:
    """The potential ``x -> V(-x)`` restricted to the half line."""
    # cell (a, b) reflects onto (-b, -a)
    return _half_line(spec.n, zip(-spec.breaks[1:], -spec.breaks[:-1], spec.values))


def restrict_positive(spec: PotentialSpec) -> PotentialSpec:
    """The potential restricted to ``x >= 0`` as a half-line spec."""
    return _half_line(spec.n, zip(spec.breaks[:-1], spec.breaks[1:], spec.values))


def fold_line_potential(spec: PotentialSpec) -> tuple[PotentialSpec, PotentialSpec, PotentialSpec]:
    """Fold a line potential onto the half line.

    Returns
    -------
    (vplus, vminus, vfolded)
        ``vplus(x) = V(x)``, ``vminus(x) = V(-x)`` for ``x >= 0``, and the
        block-diagonal ``2n x 2n`` half-line potential
        ``diag(vplus, vminus)`` on the merged cell structure.
    """
    if spec.domain != "line":
        raise PotentialError("fold_line_potential expects a line potential")
    vplus, vminus = restrict_positive(spec), reflect_potential(spec)
    # both are half-line specs, so the merged edges start at or after 0
    edges = np.unique(np.concatenate([vplus.breaks, vminus.breaks]))
    n = spec.n
    big = np.zeros((edges.size - 1, 2 * n, 2 * n), dtype=complex)
    big[:, :n, :n] = vplus.segment_values(edges)
    big[:, n:, n:] = vminus.segment_values(edges)
    vfolded = PotentialSpec.from_cells(2 * n, zip(edges[:-1], edges[1:], big))
    return vplus, vminus, vfolded


def zero_potential(n: int, width: float = 1.0) -> PotentialSpec:
    """The zero potential (one explicit zero cell so the spec is non-empty)."""
    return PotentialSpec.from_cells(n, [(0.0, width, np.zeros((n, n)))])


def box_potential(height: object, a: float, b: float, n: int | None = None) -> PotentialSpec:
    """Constant matrix ``height`` on ``(a, b)``, zero elsewhere."""
    m = np.atleast_2d(np.asarray(height, dtype=complex))
    n = n or m.shape[0]
    if m.shape == (1, 1) and n > 1:
        m = m[0, 0] * np.eye(n)
    domain = "half_line" if a >= 0 else "line"
    return PotentialSpec.from_cells(n, [(a, b, m)], domain=domain)
