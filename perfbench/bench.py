"""Measure one workload: set-up time, the timed loop, the gates, the metrics.

The caller (``run.py``) pins the BLAS threads and puts the checkout's
``src`` and this directory on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import checks
import pipeline
import speed
from workloads import probe_fields

HERE = Path(__file__).resolve().parent

#: end-to-end metrics, reported with ``--trace 0``: name -> unit
END_TO_END = {
    "setup_s": "s",
    "tables_s": "s",
    "apply_s": "s",
    "peak_rss_mb": "MB",
    "s_digits": "digits",
    "route_digits": "digits",
    "unitarity_digits": "digits",
}

#: public calls timed as layers, in pipeline order: the phase each runs in,
#: and whether its ``tracemalloc`` peak is reported
LAYERS = {
    "jost.solve_faddeev": ("tables", True),
    "jost.jost_matrix": ("tables", False),
    "scattering.smatrix": ("tables", False),
    "scattering.s_limits": ("tables", False),
    "scattering.fs_symbol": ("tables", True),
    "scattering.p_symbols": ("tables", True),
    "scattering.h1_membership": ("tables", False),
    "jost.marchenko_kernel": ("tables", True),
    "spectral.physical_solution": ("tables", False),
    "waveop.wave_op_stationary": ("apply", True),
    "waveop.wave_op_decomposed": ("apply", True),
    "waveop.wave_op_l1_form": ("apply", True),
    "spectral.evolve_spectral": ("apply", True),
}

#: per-layer metrics, reported with ``--trace 1``: name -> unit
PER_LAYER = {}
for _layer, (_, _memory) in LAYERS.items():
    PER_LAYER[f"{_layer}.s"] = "s"
    if _memory:
        PER_LAYER[f"{_layer}.peak_mb"] = "MB"
PER_LAYER.update({
    "jost.solve_faddeev.entries": "count",
    "scattering.fs_symbol.entries": "count",
    "jost.min_sv0": "1",
    "jost.marchenko_kernel.tail_fraction": "1",
    "scattering.symmetry_defect": "1",
    "scattering.plateau_deviation": "1",
    "scattering.p_conjugation_defect": "1",
    "spectral.boundary_residual": "1",
    "spectral.evolve_spectral.err": "1",
    "spectral.fourier_maps.duality_defect": "1",
    "waveop.wave_op_l1_form.refused": "count",
    "tables.s": "s",
    "tables.self_s": "s",
    "tables.coverage": "1",
    "apply.s": "s",
    "apply.self_s": "s",
    "apply.coverage": "1",
    "trace.overhead": "1",
})


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """What the numbers depend on besides the code."""
    blas = {}
    for module in (np, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "machine": platform.machine(),
    }


def setup_times(workload: str, repeats: int) -> list[tuple[float, float]]:
    """Set-up time of ``repeats`` fresh processes, as each one reports it:
    wall time, and own time at the nominal machine speed."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=60, check=True,
        )
        wall, normalised = map(float, done.stdout.split()[-2:])
        times.append((wall, normalised))
    return times


def _median(values):
    return statistics.median(values) if values else None


class Run:
    """State of one benchmark run: inputs, counters, timings and accuracy."""

    def __init__(self, workload, seed: int, root: Path):
        self.workload = workload
        self.inputs = workload.build()
        grid, potential, _ = self.inputs
        self.fields = probe_fields(grid.x, potential.n, seed)
        self.checker = checks.Checker(workload, self.inputs, checks.load_oracles(root))
        self.attempted = 0
        self.errors: list[str] = []
        #: samples the machine's speed; started only for untraced passes
        self.probe = speed.SpeedProbe()
        #: iteration -> (tables phase, apply phase of each field)
        self.phases: dict[int, tuple[speed.Phase, list[speed.Phase]]] = {}
        #: worst reading of each accuracy figure over the iterations
        self.accuracy: dict = {}

    def warm_up(self) -> None:
        """Build the tables once, untimed.  A fresh process's first pass also
        pays for first touching its memory: on the 2-vCPU VM the benchmark
        was built on, ``free_neumann_wide``'s first tables pass took 7.0 s,
        2.4 s of it in the kernel, and the next ones 4.6 s, 0.9 s of it in
        the kernel."""
        tracer = pipeline.Tracer(self.workload.name, traced=False)
        try:
            pipeline.build_tables(tracer, *self.inputs)
        except pipeline.OpFailed as exc:
            self.errors.append(str(exc))
            traceback.print_exc(file=sys.stderr)
        self.attempted += tracer.calls

    def iterate(self, tracer: pipeline.Tracer, iteration: int) -> bool:
        """Run, time and check one iteration; False if a call failed."""
        tracer.iteration = iteration
        calls = tracer.calls
        try:
            tables, applied, tables_phase, field_phases = pipeline.run_iteration(
                tracer, self.probe, self.inputs, self.fields, self.workload.l1_applies
            )
        except pipeline.OpFailed as exc:
            self.attempted += tracer.calls - calls
            self.errors.append(str(exc))
            traceback.print_exc(file=sys.stderr)
            return False
        self.attempted += tracer.calls - calls
        self.phases[iteration] = (tables_phase, field_phases)
        figures = self.checker.tables(iteration, tables)
        figures.update(self.checker.applied(iteration, applied, self.fields))
        if iteration == 0:
            figures["duality"] = self.checker.duality(iteration, tables, self.fields)
            figures["solve_faddeev_entries"] = sum(
                a.size for a in (tables.jost.m, tables.jost.mprime, tables.jost.m0, tables.jost.m0prime)
            )
            figures["fs_symbol_entries"] = tables.scatter.Fs.size
        for name, value in figures.items():
            worst = min if name == "min_sv0" else max
            self.accuracy[name] = worst(value, self.accuracy.get(name, value))
        return True

    def loop(self, tracer: pipeline.Tracer, seconds: float, first: int = 0) -> None:
        """Iterate while the next iteration is expected to end within
        ``seconds``; at least once, and never past a failed call."""
        start = time.perf_counter()
        iteration = first
        while True:
            t0 = time.perf_counter()
            ok = self.iterate(tracer, iteration)
            iteration += 1
            now = time.perf_counter()
            if not ok or (now - start) + (now - t0) > seconds:
                return

    @property
    def failed(self) -> int:
        """Failed calls: each unexpected error, and each checked call output
        that missed a gate."""
        missed = {(g.op, g.key) for g in self.checker.failures()}
        return min(self.attempted, len(self.errors) + len(missed))

    def iteration_s(self, iteration: int) -> float:
        """Wall time of one pass."""
        tables, fields = self.phases[iteration]
        return tables.wall_s + sum(f.wall_s for f in fields)

    def tables_s(self) -> float | None:
        """Tables-phase time at the nominal machine speed, median over
        iterations."""
        return _median([t.normalised_s for t, _ in self.phases.values()])

    def apply_s(self) -> float | None:
        """Apply-phase time per probe field at the nominal machine speed,
        median over iterations."""
        return _median([sum(f.normalised_s for f in fs) / len(fs)
                        for _, fs in self.phases.values()])


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    acc = run.accuracy
    return {
        "setup_s": statistics.median(normalised for _, normalised in setup),
        "tables_s": run.tables_s(),
        "apply_s": run.apply_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "s_digits": checks.digits(acc["s_error"]) if "s_error" in acc else None,
        "route_digits": checks.digits(acc["route_gap"]) if "route_gap" in acc else None,
        "unitarity_digits": checks.digits(acc["unitarity_defect"]) if "unitarity_defect" in acc else None,
    }


def _phase(spans: list[dict], iteration: int, name: str, per: int) -> dict:
    """One phase of one iteration: its duration, the time its child calls
    cover and each layer's share of that, all divided by ``per``."""
    index = next(i for i, s in enumerate(spans) if s["name"] == name and s["iteration"] == iteration)
    layers: dict = {}
    for s in spans:
        if s["parent"] == index:
            layers[s["name"]] = layers.get(s["name"], 0.0) + (s["end"] - s["start"]) / per
    whole = (spans[index]["end"] - spans[index]["start"]) / per
    return {"s": whole, "children": sum(layers.values()), "layers": layers}


def per_layer(run: Run, spans: list[dict], traced: list[int]) -> dict:
    """Per-layer metrics from the spans of the traced iterations: tables
    layers per pass, apply layers per probe field."""
    nfields = len(run.fields)
    phases = {
        "tables": [_phase(spans, it, "tables", 1) for it in traced],
        "apply": [_phase(spans, it, "apply", nfields) for it in traced],
    }
    values = {}
    for layer, (phase, memory) in LAYERS.items():
        values[f"{layer}.s"] = statistics.median(r["layers"].get(layer, 0.0) for r in phases[phase])
        if memory:
            peaks = [s.get("peak_mb", 0.0) for s in spans if s["name"] == layer]
            values[f"{layer}.peak_mb"] = max(peaks, default=0.0)
    acc = run.accuracy
    values.update({
        "jost.solve_faddeev.entries": acc.get("solve_faddeev_entries"),
        "scattering.fs_symbol.entries": acc.get("fs_symbol_entries"),
        "jost.min_sv0": acc.get("min_sv0"),
        "jost.marchenko_kernel.tail_fraction": acc.get("tail_fraction"),
        "scattering.symmetry_defect": acc.get("symmetry_defect"),
        "scattering.plateau_deviation": acc.get("plateau_deviation"),
        "scattering.p_conjugation_defect": acc.get("p_conjugation_defect"),
        "spectral.boundary_residual": acc.get("boundary_residual"),
        "spectral.evolve_spectral.err": acc.get("evolution_error"),
        "spectral.fourier_maps.duality_defect": acc.get("duality"),
        "waveop.wave_op_l1_form.refused": acc.get("refused"),
        "trace.overhead": statistics.median(run.iteration_s(it) for it in traced)
        / run.iteration_s(0) - 1.0,
    })
    for name, rows in phases.items():
        values[f"{name}.s"] = statistics.median(r["s"] for r in rows)
        values[f"{name}.self_s"] = statistics.median(r["s"] - r["children"] for r in rows)
        values[f"{name}.coverage"] = statistics.median(r["children"] / r["s"] for r in rows)
    return values


def measure(workload, seed: int, seconds: float, trace: int, root: Path,
            setup_repeats: int = 5) -> dict:
    """Run one workload and return its result record.

    Both modes first build the tables once, untimed, within ``seconds``.
    With ``trace`` 0 the loop runs untraced, with the machine's speed
    sampled, and the record carries the end-to-end metrics.  With ``trace``
    1 one untraced iteration is timed as the reference for the tracing
    overhead, then traced iterations fill the rest of ``seconds`` and the
    record carries the per-layer metrics and the spans.
    """
    record = {"environment": environment(workload.name, seed, seconds, trace)}
    run = Run(workload, seed, root)
    if not trace:
        # set-up processes before and after the loop, so a slow stretch of
        # the machine at either end weighs on fewer of them
        setup = setup_times(workload.name, (setup_repeats + 1) // 2)
        start = time.perf_counter()
        run.warm_up()
        run.probe.start()
        try:
            run.loop(pipeline.Tracer(workload.name, traced=False),
                     seconds - (time.perf_counter() - start))
        finally:
            run.probe.stop()
        for tables, fields in run.phases.values():
            for phase in (tables, *fields):
                run.probe.settle(phase)
        setup += setup_times(workload.name, setup_repeats // 2)
        values, units = end_to_end(run, setup), END_TO_END
        record["setup_s"] = setup
    else:
        start = time.perf_counter()
        run.warm_up()
        run.loop(pipeline.Tracer(workload.name, traced=False), 0.0)
        tracer = pipeline.Tracer(workload.name, traced=True)
        if run.phases:
            tracemalloc.start()
            try:
                run.loop(tracer, seconds - (time.perf_counter() - start), first=1)
            finally:
                tracemalloc.stop()
        traced = [it for it in run.phases if it > 0]
        values = per_layer(run, tracer.spans, traced) if traced else dict.fromkeys(PER_LAYER)
        units = PER_LAYER
        record["spans"] = _relative_spans(tracer.spans)
    record["phases"] = {it: {"tables": vars(t), "fields": [vars(f) for f in fs]}
                        for it, (t, fs) in run.phases.items()}
    record["reference_s"] = {"nominal": speed.NOMINAL_S, "samples": run.probe.times}
    record["accuracy"] = run.accuracy
    record["errors"] = run.errors
    record["gate_misses"] = [vars(g) for g in run.checker.failures()]
    correct = not run.errors and not record["gate_misses"] and None not in values.values()
    record["result"] = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _plain(values[name]), "unit": unit} for name, unit in units.items()},
    }
    return record


def _relative_spans(spans: list[dict]) -> list[dict]:
    """Spans with times from the first span's start, and each phase's self
    time: its duration minus the time its child calls cover."""
    t_ref = min((s["start"] for s in spans), default=0.0)
    out = [dict(s, start=s["start"] - t_ref, end=s["end"] - t_ref) for s in spans]
    for index, s in enumerate(out):
        if s["parent"] is None:
            children = sum(c["end"] - c["start"] for c in out if c["parent"] == index)
            s["self_s"] = s["end"] - s["start"] - children
    return out


def _plain(value):
    """JSON-ready number: numpy scalars become Python numbers."""
    if value is None:
        return None
    return int(value) if isinstance(value, (int, np.integer)) else float(value)
