"""Benchmark of the scatterkit pipeline, timed layer by layer from outside.

One workload, one process:

    python3 perfbench/run.py --workload step_golden --seed 1 --seconds 30 --trace 0

prints the run's record path, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits with 1 if a correctness gate failed.

Every workload, each in its own process, one after another:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

prints every metric of every workload with its unit and exits with 1 if any
workload failed a gate.  Run from the root of a checkout; the benchmark
imports ``scatterkit`` from its ``src`` and the oracles from
``tests/oracles.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: BLAS threads.  One caller drives the pipeline and most of its time is
#: single-threaded numpy; on a 2-vCPU machine a second OpenBLAS thread left
#: the tables and apply times unchanged but made set-up, where the thread
#: pool starts, 8% slower and four times noisier.
BLAS_THREADS = 1


def _json_default(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    import scatterkit
    from workloads import WORKLOADS

    package = Path(scatterkit.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"scatterkit was imported from {package}, not from this checkout", file=sys.stderr)
        return 2
    record = bench.measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, ROOT)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=_json_default))
    result = record["result"]
    for miss in record["gate_misses"]:
        print(f"gate missed: {miss['name']} = {miss['value']} (limit {miss['limit']})", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result, default=_json_default))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines:
            print(f"{name}: no result (exit {done.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']!s:>24} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them if omitted")
    parser.add_argument("--seed", type=int, default=0, help="seed of the probe fields")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "scatterkit" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"not a scatterkit checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
