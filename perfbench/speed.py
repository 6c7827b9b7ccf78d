"""The machine's speed, sampled while the benchmark runs.

On a shared host the same code runs up to a third slower for stretches of
seconds to minutes, in CPU time as much as in wall time, as other tenants
load the cores and memory.  A median over the passes of one run cannot
absorb a stretch that covers the whole run.  So while a timed phase runs, a
wall-clock timer interrupts it every :data:`INTERVAL` seconds and times
:func:`reference_kernel`, a fixed piece of numpy work that does not touch
``scatterkit``.  The kernel's mean time over a phase, against its nominal
time :data:`NOMINAL_S`, is the machine's slowdown over that phase;
:meth:`SpeedProbe.phase` divides the phase's own time by it.  A change to
the program moves only the phase's own time, never the kernel's.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

#: seconds of wall time between two reference samples
INTERVAL = 0.05
#: time of one :func:`reference_kernel` sample on a quiet machine: on the
#: 2-vCPU x86_64 VM (Intel Xeon, OpenBLAS with one thread) the benchmark was
#: built on, the mean sample of a run ranged from 1.08 to 1.53 ms over ten
#: runs, 1.27 ms in the median
NOMINAL_S = 1.2e-3
#: a phase's slowdown is the mean of at least this many samples (1 s of
#: sampling): its own, and as many of the nearest ones before and after it
#: as it lacks.  A phase spent in long numpy calls gets few samples of its
#: own, since a sample waits for the call to return
MIN_SAMPLES = 20

_K = np.linspace(-20.0, 20.0, 256)
_P = 0.01 * np.array([[1.0, 0.5j], [-0.5j, 2.0]])
_X = np.linspace(0.0, 16.0, 64)


def reference_kernel() -> np.ndarray:
    """A small fixed mix of what the pipeline does: a few steps of a batched
    2x2 propagation over k-nodes, then a dense Fourier sum."""
    m = np.broadcast_to(np.eye(2, dtype=complex), (_K.size, 2, 2)).copy()
    for j in range(6):
        m = m + (_P @ m) * np.exp(1j * (0.01 * j) * _K)[:, None, None]
    return np.exp(1j * np.outer(_K, _X)) @ _X + m[:, 0, 0].sum()


@dataclass
class Phase:
    """One timed phase: its wall time, the part of it the reference samples
    took, the range ``[first, last)`` of those samples, and the machine's
    slowdown over it, which :meth:`SpeedProbe.settle` sets."""

    wall_s: float
    probe_s: float
    first: int
    last: int
    slowdown: float = 1.0

    @property
    def own_s(self) -> float:
        """The phase's own time, reference samples excluded."""
        return self.wall_s - self.probe_s

    @property
    def normalised_s(self) -> float:
        """The phase's own time at the nominal machine speed."""
        return self.own_s / self.slowdown


class SpeedProbe:
    """Samples :func:`reference_kernel` every :data:`INTERVAL` seconds of
    wall time between :meth:`start` and :meth:`stop`.

    Samples run in a ``SIGALRM`` handler, so in the main thread between two
    Python bytecodes: a long numpy call delays the next sample to its end.
    """

    def __init__(self):
        self.times: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        reference_kernel()  # warm: the first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, int]:
        """Wall clock and sample count, to open or close a phase."""
        return time.perf_counter(), len(self.times)

    def phase(self, opened: tuple[float, int], closed: tuple[float, int]) -> Phase:
        """The phase between two :meth:`mark` calls, not yet settled."""
        (t0, first), (t1, last) = opened, closed
        return Phase(t1 - t0, float(sum(self.times[first:last])), first, last)

    def settle(self, phase: Phase) -> None:
        """Set ``phase.slowdown`` from its samples, widened on both sides to
        :data:`MIN_SAMPLES`; a phase run without samples keeps 1."""
        first, last = phase.first, phase.last
        while last - first < MIN_SAMPLES and (first > 0 or last < len(self.times)):
            if last < len(self.times):
                last += 1
            if first > 0 and last - first < MIN_SAMPLES:
                first -= 1
        if last > first:
            phase.slowdown = float(np.mean(self.times[first:last])) / NOMINAL_S
