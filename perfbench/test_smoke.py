"""Smoke test of the benchmark itself: tiny grids, a few seconds in all.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py

It checks that the metrics a run reports, with their units, are exactly the
ones ``BENCHMARK.json`` declares, that a phase's time is divided by the
machine's sampled slowdown, and that the benchmark refuses to run without
the program.  Accuracy gates are not asserted: on a tiny grid they
are expected to miss.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: small grids on which every workload still runs to the end
TINY = {
    "step_golden": dict(kmax=40.0, nk=1024, dx=1.0 / 64.0, xmax=16.0),
    "matrix2x2": dict(kmax=20.0, nk=256, dx=1.0 / 32.0, xmax=16.0),
    "free_neumann_wide": dict(kmax=20.0, nk=256, dx=1.0 / 32.0, xmax=16.0),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_and_units_match_benchmark_json(name, trace):
    workload = dataclasses.replace(WORKLOADS[name], grid=TINY[name])
    record = bench.measure(workload, seed=0, seconds=0.0, trace=trace, root=ROOT, setup_repeats=1)
    result = json.loads(json.dumps(record["result"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert record["environment"]["seed"] == 0
    if trace:
        phases = [s for s in record["spans"] if s["parent"] is None]
        assert {s["name"] for s in phases} == {"tables", "apply"}
        assert all(s["self_s"] >= 0.0 for s in phases)


def test_phase_time_is_divided_by_the_sampled_slowdown():
    probe = speed.SpeedProbe()
    probe.times = [2.0 * speed.NOMINAL_S] * 10
    phase = probe.phase((0.0, 4), (1.0, 6))
    probe.settle(phase)  # widened to every sample, fewer than MIN_SAMPLES
    assert phase.slowdown == pytest.approx(2.0)
    assert phase.normalised_s == pytest.approx((1.0 - 4.0 * speed.NOMINAL_S) / 2.0)
    unsampled = speed.SpeedProbe()
    phase = unsampled.phase((0.0, 0), (1.0, 0))
    unsampled.settle(phase)
    assert phase.normalised_s == 1.0


def test_refuses_to_run_without_the_program():
    bare = HERE / "results" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "step_golden",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
