"""Correctness gates and accuracy figures for one pipeline iteration.

The oracles come from the test suite's ``tests/oracles.py``, loaded read-only.
Every gate uses the tolerance a tier-1 test already applies to the same
quantity; quantities no test covers are measured and reported, not gated.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scatterkit.boundary import diagonalize_boundary, predicted_s_infinity
from scatterkit.spectral import boundary_residual, field_norm, fourier_maps, fourier_maps_adjoint
from scatterkit.waveop import FieldRplus

from pipeline import ROUTES, EVOLVE_T
from workloads import GOLDEN_THETA

#: accuracy below this reads as round-off; ``*_digits`` figures are capped here
ROUNDOFF = 1e-13

#: tier-1 tolerances, by workload.  A pair ``(lo, hi)`` is an open interval.
LIMITS = {
    "step_golden": {
        # tests/test_scattering.py: closed-form S, defects, limits, H^1 norm
        "s_error": 2e-7,
        "exceptional": True,
        "unitarity": 1e-12,
        "symmetry": 1e-12,
        "s0_identity": 1e-4,
        "sinf_identity": 3e-4,
        "plateau": 1e-3,
        "h1norm": (1.7, 2.3),
        # tests/test_spectral.py: boundary residual, duality, norm conservation
        "boundary_residual": 1e-6,
        "duality": 1e-8,
        "norm_defect": 5e-6,
        # tests/test_waveop.py::test_routes_agree_pairwise
        "route_gap": 2e-3,
    },
    "matrix2x2": {
        # tests/test_scattering.py::test_matrix_potential_pipeline
        "unitarity": 1e-5,
        "symmetry": 1e-5,
        "p_conjugation": 5e-6,
        "sinf_predicted": 5e-3,
        "h1norm": (0.0, math.inf),
        # no tier-1 test covers this potential's S against the ODE oracle
        # (1.8e-6), its route gap (3.2e-3), boundary residual (2.0e-6),
        # duality or evolution: those are reported, not gated
    },
    "free_neumann_wide": {
        # tests/test_scattering.py::test_free_neumann_is_identity
        "s_error": 1e-12,
        "s0_identity": 1e-12,
        "sinf_identity": 1e-12,
        "fs_l1": 1e-10,
        "h1norm": (-math.inf, 1e-12),
        "p_minus": 1e-12,
        # tests/test_spectral.py: free Neumann solution and evolution
        "boundary_residual": 1e-12,
        "duality": 1e-8,
        "norm_defect": 5e-6,
        "evolution_error": 2e-3,
        # tests/test_waveop.py::test_free_neumann_routes_are_identity
        "identity_stationary": 1e-8,
        "identity_decomposed": 1e-12,
        "identity_l1_form": 1e-12,
    },
}

#: the call whose output each gate checks
GATE_OP = {
    "s_error": "scattering.smatrix",
    "unitarity": "scattering.smatrix",
    "symmetry": "scattering.smatrix",
    "exceptional": "jost.jost_matrix",
    "s0_identity": "scattering.s_limits",
    "sinf_identity": "scattering.s_limits",
    "sinf_predicted": "scattering.s_limits",
    "plateau": "scattering.s_limits",
    "fs_l1": "scattering.fs_symbol",
    "p_conjugation": "scattering.p_symbols",
    "p_minus": "scattering.p_symbols",
    "h1norm": "scattering.h1_membership",
    "boundary_residual": "spectral.physical_solution",
    "duality": "spectral.physical_solution",
    "norm_defect": "spectral.evolve_spectral",
    "evolution_error": "spectral.evolve_spectral",
    "identity_stationary": "waveop.wave_op_stationary",
    "identity_decomposed": "waveop.wave_op_decomposed",
    "identity_l1_form": "waveop.wave_op_l1_form",
    "l1_refusal": "waveop.wave_op_l1_form",
}


def digits(error: float) -> float:
    """``-log10`` of an error, capped at the round-off floor."""
    return -math.log10(max(float(error), ROUNDOFF))


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` from the checkout without touching it."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("scatterkit_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def s_reference(kind: str, grid, potential, boundary, oracles) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and independent ``S`` values there, shape ``(m, n, n)``."""
    if kind == "identity":
        idx = np.arange(grid.k.size)
        return idx, np.broadcast_to(np.eye(potential.n), (idx.size, potential.n, potential.n))
    if kind == "step_closed":
        idx = np.arange(16, grid.k.size, 64)
        ref = [oracles.step_smatrix_closed(float(k), GOLDEN_THETA) for k in grid.k[idx]]
        return idx, np.asarray(ref, dtype=complex).reshape(-1, 1, 1)
    if kind == "ode":
        # J(k) = f(-k, 0)^dagger B - f'(-k, 0)^dagger A, S(k) = -J(-k) J(k)^{-1}
        def jost(k):
            f, fp = oracles.ode_jost(potential, -k)
            return f[0].conj().T @ boundary.B - fp[0].conj().T @ boundary.A

        idx = np.arange(8, grid.k.size, 128)
        ref = [-jost(-k) @ np.linalg.inv(jost(k)) for k in grid.k[idx]]
        return idx, np.asarray(ref)
    raise ValueError(f"unknown S oracle {kind!r}")


@dataclass
class Gate:
    name: str
    op: str
    key: tuple
    value: float
    limit: object
    ok: bool


class Checker:
    """Applies one workload's gates and collects its accuracy figures."""

    def __init__(self, workload, inputs, oracles):
        self.workload = workload
        self.limits = LIMITS[workload.name]
        self.grid, self.potential, self.boundary = inputs
        self.oracles = oracles
        self.s_idx, self.s_ref = s_reference(
            workload.s_oracle, self.grid, self.potential, self.boundary, oracles
        )
        self.gates: list[Gate] = []

    def _gate(self, name: str, value, key=(), limit=None, op=None):
        limit = self.limits.get(name) if limit is None else limit
        if limit is None:
            return
        if isinstance(limit, tuple):
            ok = limit[0] < value < limit[1]
        elif isinstance(limit, bool):
            ok = value is limit
        else:
            ok = value < limit
        self.gates.append(Gate(name, op or GATE_OP[name], key, value, limit, bool(ok)))

    def tables(self, iteration: int, tables) -> dict:
        """Gate the tables of one iteration; return their accuracy figures."""
        st, pt = tables.scatter, tables.physical
        eye = np.eye(st.n)
        s_error = float(np.abs(st.S[self.s_idx] - self.s_ref).max())
        residual = boundary_residual(pt)
        key = (iteration,)
        self._gate("s_error", s_error, key)
        self._gate("unitarity", st.unitarity_defect, key)
        self._gate("symmetry", st.symmetry_defect, key)
        self._gate("exceptional", st.exceptional, key)
        self._gate("s0_identity", float(np.abs(st.S0 - eye).max()), key)
        self._gate("sinf_identity", float(np.abs(st.S_infinity - eye).max()), key)
        predicted = predicted_s_infinity(diagonalize_boundary(self.boundary))
        self._gate("sinf_predicted", float(np.abs(st.S_infinity - predicted).max()), key)
        self._gate("plateau", st.plateau_deviation, key)
        self._gate("fs_l1", st.fs_l1, key)
        self._gate("p_conjugation", st.p_conjugation_defect, key)
        self._gate("p_minus", float(np.abs(st.Pminus).max()), key)
        self._gate("h1norm", st.h1norm, key)
        self._gate("boundary_residual", residual, key)
        return {
            "s_error": s_error,
            "unitarity_defect": st.unitarity_defect,
            "symmetry_defect": st.symmetry_defect,
            "plateau_deviation": st.plateau_deviation,
            "p_conjugation_defect": st.p_conjugation_defect,
            "boundary_residual": residual,
            "min_sv0": tables.jost.jmatrix.min_sv0,
            "tail_fraction": tables.kernel.tail_fraction,
        }

    def duality(self, iteration: int, tables, fields) -> float:
        """Relative defect of ``<F Y, Z> = <Y, F^dagger Z>`` for both signs,
        with ``Y`` the first probe field and ``Z`` the map of the second."""
        pt = tables.physical
        grid = pt.grid
        y = fields[0].values
        worst = 0.0
        for sign in (+1, -1):
            z = fourier_maps(pt, fields[1].values, sign)
            lhs = np.sum(grid.dk * np.conj(fourier_maps(pt, y, sign)) * z)
            rhs = np.sum(grid.wx[:, None] * np.conj(y) * fourier_maps_adjoint(pt, z, sign))
            scale = field_norm(y, grid.wx) * field_norm(z, np.full(z.shape[0], grid.dk))
            worst = max(worst, float(abs(lhs - rhs) / scale))
        self._gate("duality", worst, (iteration,))
        return worst

    def applied(self, iteration: int, applied, fields) -> dict:
        """Gate the apply phase of one iteration; return its accuracy figures."""
        gaps, norm_defects, refused = [], [], 0
        evolution_error = None
        for i, (out, pf) in enumerate(zip(applied, fields)):
            f = out.field
            scale = f.norm(2)
            for sign, routes in out.routes.items():
                key = (iteration, i, sign)
                ran = [r for r in ROUTES if routes[r] is not None]
                refused += len(ROUTES) - len(ran)
                self._gate("l1_refusal", routes["l1_form"] is None, key,
                           limit=not self.workload.l1_applies)
                for a_i, a in enumerate(ran):
                    for b in ran[a_i + 1:]:
                        gap = FieldRplus(f.x, routes[a] - routes[b]).norm(2) / scale
                        gaps.append(gap)
                        self._gate("route_gap", gap, key, op=f"waveop.wave_op_{b}")
                for r in ran:
                    self._gate(f"identity_{r}", float(np.abs(routes[r] - f.values).max()), key)
            xo = np.arange(out.evolved.shape[0]) * self.grid.dx
            norm_defect = abs(FieldRplus(xo, out.evolved).norm(2) - scale) / scale
            norm_defects.append(norm_defect)
            self._gate("norm_defect", norm_defect, (iteration, i))
            # the closed-form image propagator exists for the free Neumann
            # workload only, the one that gates it; it needs the real field
            if "evolution_error" in self.limits and pf.carrier == 0.0:
                exact = self.oracles.free_neumann_evolution(xo, EVOLVE_T, x0=pf.centre, sigma=pf.width)
                evolution_error = float(np.abs(out.evolved[:, 0] - exact).max())
                self._gate("evolution_error", evolution_error, (iteration, i))
        return {
            "route_gap": max(gaps) if gaps else 0.0,
            "refused": refused,
            # the workload's exact evolution oracle: the closed-form image
            # propagator where one exists, norm conservation elsewhere
            "evolution_error": evolution_error if evolution_error is not None else max(norm_defects),
        }

    def failures(self) -> list[Gate]:
        return [g for g in self.gates if not g.ok]
