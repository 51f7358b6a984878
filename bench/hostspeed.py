"""Host-speed calibration for the timed loop and the set-up samples.

The benchmark runs on shared hosts whose speed drifts by up to about 1.5x
over seconds. A fixed calibration kernel (interpreter work plus LAPACK work,
independent of genresolvent) is timed before every command, after the last
one, and every PROBE_PERIOD_S from a SIGALRM timer while commands run; a
set-up sample is bracketed by a probe before its process starts and one
after its first command. Each command's wall time, less the time the
timer's probes took inside it, is divided by the mean kernel time of the
probes from just before it to just after it, and multiplied by REFERENCE_S:
the result reads as the command's wall time at the reference speed. Host
drift divides out; a change to the program's own work does not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

KERNEL_LOOP = 20000
KERNEL_SVDS = 2
KERNEL_MATRIX = np.random.default_rng(0).standard_normal((48, 96)).view(np.complex128)
# The kernel's fastest time on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31, 1 thread).
REFERENCE_S = 0.0022
PROBE_PERIOD_S = 0.1


def kernel() -> float:
    """Wall time of one run of the calibration kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOP):
        total += i * i
    for _ in range(KERNEL_SVDS):
        np.linalg.svd(KERNEL_MATRIX)
    return time.perf_counter() - started


class HostProbe:
    """Kernel samples, taken on request and from a periodic timer while armed.

    ``spent`` is the wall time the timer's probes have taken in total, so a
    caller can take it out of an interval it measured around them.
    """

    def __init__(self, period_s: float = PROBE_PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> int:
        """Take one probe now; return its index in ``samples``."""
        self._busy = True
        try:
            self.samples.append(kernel())
        finally:
            self._busy = False
        return len(self.samples) - 1

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        started = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - started

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference(seconds: float, probes: list[float]) -> float:
    """A wall time measured while the kernel took ``probes``, at the reference speed."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)


def calibrated(durations: list[float], marks: list[int], samples: list[float]) -> list[float]:
    """Each duration at the reference speed.

    Command i ran between the probes ``marks[i]`` and ``marks[i + 1]``
    (both included); the last mark is the probe after the last command.
    """
    return [at_reference(duration, samples[marks[i]:marks[i + 1] + 1])
            for i, duration in enumerate(durations)]
