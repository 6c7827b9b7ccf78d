"""Print the set-up time of a fresh process for one workload.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  The time runs from
the start of this script through importing ``scatterkit`` with its
``scattering``, ``spectral`` and ``waveop`` modules and building the
workload's grid, potential and boundary pair.  Prints two numbers: the wall
time, and the set-up's own time at the nominal machine speed (see
``speed.py``), sampled from just after the numpy import on.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import speed

    probe = speed.SpeedProbe()
    probe.start()
    try:
        import workloads

        workloads.WORKLOADS[sys.argv[1]].build()
        closed = probe.mark()
    finally:
        probe.stop()
    phase = probe.phase((START, 0), closed)
    probe.settle(phase)
    print(phase.wall_s, phase.normalised_s)


if __name__ == "__main__":
    main()
