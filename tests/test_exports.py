"""Every name a ``scatterkit`` module exports in ``__all__`` exists, and
neither the package import nor a whole run loads any scipy module."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import scatterkit

MODULES = ["scatterkit"] + [
    f"scatterkit.{info.name}" for info in pkgutil.iter_modules(scatterkit.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


# the package import, then tables for the unit step, its bound states, all
# three routes and the evolution, in one process; prints the scipy modules loaded after each
WHOLE_RUN = """
import sys
import scatterkit
print("import:", *(m for m in sys.modules if m.split(".")[0] == "scipy"))
import numpy as np
from scatterkit.boundary import BoundaryPair
from scatterkit.grids import KXGrid
from scatterkit.jost import bound_states, jost_matrix, marchenko_kernel, solve_faddeev
from scatterkit.potentials import box_potential
from scatterkit.scattering import scattering_table
from scatterkit.spectral import evolve_spectral, physical_solution
from scatterkit.waveop import FieldRplus, wave_op_decomposed, wave_op_l1_form, wave_op_stationary

grid = KXGrid.build(kmax=40.0, nk=1024, dx=1 / 128, xmax=12.0)
potential = box_potential(1.0, 0.0, 1.0)
bp = BoundaryPair.robin(0.9199161587718891)
jt = jost_matrix(solve_faddeev(potential, grid), bp)
st, kt = scattering_table(jt), marchenko_kernel(jt)
bound_states(potential, bp)
pt = physical_solution(jt, st)
st.s_at(np.array([0.5, 50.0]))
f = FieldRplus(grid.x, np.exp(-((grid.x - 5.0) ** 2)))
for sign in (+1, -1):
    wave_op_stationary(pt, f, sign)
    wave_op_decomposed(st, kt, f, sign)
    wave_op_l1_form(st, kt, f, sign)
    evolve_spectral(pt, f.values, 1.0, sign)
print("run:", *(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_whole_run_loads_no_scipy():
    src = str(Path(scatterkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", WHOLE_RUN],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["import:", "run:"]
