"""The timed pipeline: the tables phase and the apply phase.

Every step is one call of a public ``scatterkit`` function, made through a
:class:`Tracer`, so each layer is timed from outside the package.  An
untraced tracer only runs the call; a traced one keeps a span (name, start,
end, parent, workload, iteration) and the ``tracemalloc`` peak of the call in
memory until the run writes them out.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from scatterkit.jost import jost_matrix, marchenko_kernel, solve_faddeev
from scatterkit.scattering import fs_symbol, h1_membership, p_symbols, s_limits, smatrix
from scatterkit.spectral import evolve_spectral, physical_solution
from scatterkit.waveop import (
    FieldRplus,
    HypothesisViolated,
    wave_op_decomposed,
    wave_op_l1_form,
    wave_op_stationary,
)

from speed import SpeedProbe

#: the three wave-operator routes, in the order they run
ROUTES = ("stationary", "decomposed", "l1_form")
#: evolution time of the apply phase
EVOLVE_T = 1.0
#: the evolution output reaches this multiple of the window, so the evolved
#: packet stays inside it and its norm can be checked
EVOLVE_REACH = 2.0


class OpFailed(RuntimeError):
    """A public call raised an error the workload does not expect."""

    def __init__(self, op: str, exc: BaseException):
        self.op = op
        super().__init__(f"{op}: {type(exc).__name__}: {exc}")


@dataclass
class Tracer:
    """Runs the pipeline's calls and, when ``traced``, records their spans."""

    workload: str
    traced: bool
    spans: list = field(default_factory=list)
    calls: int = 0
    iteration: int = 0
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, measure_memory: bool = False):
        if not self.traced:
            yield {}
            return
        record = {
            "name": name,
            "workload": self.workload,
            "iteration": self.iteration,
            "parent": self._stack[-1] if self._stack else None,
        }
        if measure_memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if measure_memory:
                record["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20

    def call(self, op: str, fn, *args, expected: type | None = None, **kwargs):
        """Run one public call; errors other than ``expected`` become
        :class:`OpFailed` naming the call."""
        self.calls += 1
        with self.span(op, measure_memory=True) as record:
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if expected is not None and isinstance(exc, expected):
                    record["refused"] = True
                    raise
                raise OpFailed(op, exc) from exc


@dataclass
class Tables:
    jost: object
    scatter: object
    kernel: object
    physical: object


def build_tables(tracer: Tracer, grid, potential, boundary) -> Tables:
    jt = tracer.call("jost.solve_faddeev", solve_faddeev, potential, grid)
    jt = tracer.call("jost.jost_matrix", jost_matrix, jt, boundary)
    st = tracer.call("scattering.smatrix", smatrix, jt)
    st = tracer.call("scattering.s_limits", s_limits, st)
    st = tracer.call("scattering.fs_symbol", fs_symbol, st)
    st = tracer.call("scattering.p_symbols", p_symbols, st)
    st = tracer.call("scattering.h1_membership", h1_membership, st)
    kt = tracer.call("jost.marchenko_kernel", marchenko_kernel, jt)
    pt = tracer.call("spectral.physical_solution", physical_solution, jt, st)
    return Tables(jt, st, kt, pt)


@dataclass
class Applied:
    """Outputs of the apply phase for one probe field: ``routes[sign][route]``
    holds the route's values, or None when the route refused."""

    field: FieldRplus
    routes: dict
    evolved: object


def apply_field(tracer: Tracer, tables: Tables, values, l1_applies: bool) -> Applied:
    grid = tables.physical.grid
    f = FieldRplus(grid.x, values)
    routes = {}
    for sign in (+1, -1):
        out = {
            "stationary": tracer.call(
                "waveop.wave_op_stationary", wave_op_stationary, tables.physical, f, sign
            ).values,
            "decomposed": tracer.call(
                "waveop.wave_op_decomposed",
                wave_op_decomposed, tables.scatter, tables.kernel, f, sign,
            ).values,
        }
        try:
            out["l1_form"] = tracer.call(
                "waveop.wave_op_l1_form",
                wave_op_l1_form, tables.scatter, tables.kernel, f, sign,
                expected=None if l1_applies else HypothesisViolated,
            ).values
        except HypothesisViolated:
            out["l1_form"] = None
        routes[sign] = out
    evolved = tracer.call(
        "spectral.evolve_spectral",
        evolve_spectral, tables.physical, f.values, EVOLVE_T, xmax_out=EVOLVE_REACH * grid.xmax,
    )
    return Applied(f, routes, evolved)


def run_iteration(tracer: Tracer, probe: SpeedProbe, inputs, fields, l1_applies: bool):
    """One pass of both phases.  Returns ``(tables, applied, tables_phase,
    field_phases)``: the outputs, and the :class:`~speed.Phase` of the tables
    phase and of the apply phase of each probe field, as ``probe`` saw them."""
    grid, potential, boundary = inputs
    with tracer.span("tables"):
        opened = probe.mark()
        tables = build_tables(tracer, grid, potential, boundary)
        tables_phase = probe.phase(opened, probe.mark())
    applied, field_phases = [], []
    with tracer.span("apply"):
        for pf in fields:
            opened = probe.mark()
            applied.append(apply_field(tracer, tables, pf.values, l1_applies))
            field_phases.append(probe.phase(opened, probe.mark()))
    return tables, applied, tables_phase, field_phases
