"""Stationary scattering for matrix Schrodinger operators on the half line.

The package computes, for -d^2/dx^2 + V(x) on x >= 0 with a general
self-adjoint boundary condition at the origin:

* Jost (Faddeev) solutions, the Jost matrix and the bound states, the
  roots of ``J(i kappa)``,
* the scattering matrix, its exact zero/infinite-energy limits and Fourier
  symbols,
* the Marchenko integral kernel of the Jost-solution representation,
* generalized Fourier maps and spectral time evolution,
* wave operators in three equivalent forms (spectral, three-term
  Hilbert-transform decomposition, four-term convolution form),
* fold helpers that turn a full-line problem with a point interaction into a
  half-line system of doubled size (``fold_line_potential``,
  ``line_interaction_matrices``, ``transmission_boundary``).

Everything is table-driven: build a :class:`~scatterkit.grids.KXGrid`, solve
for the Faddeev table, then derive scattering/spectral/wave-operator objects
from it.  The table holds ``f(k, x)`` on the near field as its cell
factors (per cell, real ``cos(qs)`` and ``-sin(qs)/q`` of each ``|k|`` and
node, and coefficients of each momentum), which the Fourier maps contract
with, and the wall values from which the Jost matrix, ``S`` and the
boundary values of the physical solutions follow; the Marchenko kernel is
solved from the potential on the table's spatial nodes.
"""

from .grids import KXGrid, GridError, GridTooCoarse
from .potentials import (
    PotentialSpec,
    Moments,
    NonHermitian,
    EmptySupport,
    validate_potential,
    moments,
    l1gamma_norm,
    fold_line_potential,
)
from .boundary import (
    BoundaryPair,
    DiagonalForm,
    NotSelfAdjointPair,
    DegeneratePair,
    NonHermitianCoupling,
    validate_boundary,
    diagonalize_boundary,
    line_interaction_matrices,
    predicted_s_infinity_identity,
)
from .jost import (
    JostTable,
    NearField,
    JostMatrix,
    KernelTable,
    JostError,
    JostOverflow,
    KernelTooCoarse,
    solve_faddeev,
    jost_matrix,
    bound_states,
    marchenko_kernel,
)

from . import scattering, spectral, waveop

__version__ = "0.1.0"
