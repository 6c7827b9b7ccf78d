"""The benchmark's workloads and the seeded probe fields they are applied to.

Each workload fixes a potential, a boundary pair and a grid; only the probe
fields depend on the seed.  Importing this module imports ``scatterkit``
with its ``scattering``, ``spectral`` and ``waveop`` modules, which is part
of what ``setup_s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import scatterkit  # noqa: F401  (the package import is part of set-up)
from scatterkit import scattering, spectral, waveop  # noqa: F401
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.potentials import PotentialSpec, box_potential, zero_potential

#: arctan(coth 1): the Robin angle that makes J(0) = 0 for the unit step
GOLDEN_THETA = float(np.arctan(1.0 / np.tanh(1.0)))

#: probe fields per run; field 0 has no carrier
N_FIELDS = 3
#: share of a probe field's mass allowed in the outer tenth of the window
OUTER_MASS_LIMIT = 0.01


def _matrix_potential() -> PotentialSpec:
    """The 2x2 complex two-cell potential of the test suite's fixtures."""
    cells = [
        (0.0, 1.0, np.array([[1.0, 0.5j], [-0.5j, 2.0]])),
        (1.0, 2.0, np.array([[-0.3, 0.0], [0.0, 0.4]])),
    ]
    return PotentialSpec.from_cells(2, cells)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: what is solved, on which grid, and what to expect.

    ``s_oracle`` names the independent reference for ``S``; ``l1_applies``
    says whether the four-term route's hypothesis ``S(0) = S_inf = I`` holds,
    so a ``HypothesisViolated`` refusal is the expected outcome when it is
    False and a failure when it is True.
    """

    name: str
    grid: dict
    potential: object
    boundary: object
    s_oracle: str
    l1_applies: bool

    def build(self) -> tuple[KXGrid, PotentialSpec, BoundaryPair]:
        return KXGrid.build(**self.grid), self.potential(), self.boundary()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="step_golden",
            grid=dict(kmax=40.0, nk=2048, dx=1.0 / 128.0, xmax=16.0),
            potential=lambda: box_potential(1.0, 0.0, 1.0),
            boundary=lambda: BoundaryPair.robin(GOLDEN_THETA),
            s_oracle="step_closed",
            l1_applies=True,
        ),
        Workload(
            name="matrix2x2",
            grid=dict(kmax=20.0, nk=1024, dx=1.0 / 64.0, xmax=16.0),
            potential=_matrix_potential,
            boundary=lambda: BoundaryPair.robin(np.array([np.pi, 0.9]), n=2),
            s_oracle="ode",
            l1_applies=False,
        ),
        Workload(
            name="free_neumann_wide",
            grid={},  # KXGrid.build defaults: kmax 40, nk 4096, dx 1/256, xmax 40
            potential=lambda: zero_potential(1),
            boundary=lambda: BoundaryPair.neumann(1),
            s_oracle="identity",
            l1_applies=True,
        ),
    )
}


@dataclass(frozen=True)
class ProbeField:
    """A Gaussian packet ``a exp(i k0 x) exp(-(x - c)^2 / (2 sigma^2))``."""

    centre: float
    width: float
    carrier: float
    values: np.ndarray


def probe_fields(x: np.ndarray, n: int, seed: int) -> list[ProbeField]:
    """Seeded Gaussian packets on the half-line grid ``x``.

    Centres sit in ``[0.35, 0.45]`` of the window, widths in ``[0.5, 0.65]``
    and carriers in ``1 <= |k0| <= 2.5``.  With ``centre / width >= 8.6`` on
    the 16-wide windows a packet is zero at the wall to round-off, so its
    spectrum is the Gaussian's alone: a packet cut off at ``x = 0`` instead
    has a ``1/k`` tail that pushes the band edge of ``evolve_spectral`` to
    the window edge and multiplies its dense grid by up to 40.  Field 0 is
    real with no carrier, so the closed-form Neumann evolution applies to it.
    For ``n > 1`` each packet points along a seeded unit vector of C^n.

    Raises
    ------
    ValueError
        If a packet keeps 1% or more of its mass in the outer tenth of the
        window, where the Hilbert transform's window check would refuse it.
    """
    rng = np.random.default_rng(seed)
    xmax = float(x[-1])
    fields = []
    for i in range(N_FIELDS):
        centre = float(rng.uniform(0.35, 0.45) * xmax)
        width = float(rng.uniform(0.5, 0.65))
        carrier = 0.0 if i == 0 else float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.5))
        if n == 1:
            direction = np.ones(1, dtype=complex)
        else:
            direction = rng.normal(size=n) + 1j * rng.normal(size=n)
            direction /= np.linalg.norm(direction)
        packet = np.exp(1j * carrier * x - (x - centre) ** 2 / (2.0 * width**2))
        values = packet[:, None] * direction[None, :]
        mass = np.abs(packet) ** 2
        outer = float(mass[x > 0.9 * xmax].sum() / mass.sum())
        if outer >= OUTER_MASS_LIMIT:
            raise ValueError(f"probe field {i} keeps {outer:.1%} of its mass in the outer tenth")
        fields.append(ProbeField(centre, width, carrier, values))
    return fields
