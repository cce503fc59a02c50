"""Machine-speed probe: a fixed reference kernel sampled 10 times a second.

On a shared host the speed of one core changes by up to 2x within seconds,
with other tenants' load. While a SpeedProbe is active, a timer signal runs
a short reference kernel every PERIOD_S in the benchmark's own thread (the
program waits, as for any other interruption). A timed span is then
reported at reference speed: its duration without the probe's own time,
scaled by the mean of REFERENCE_S / kernel time over the samples taken
inside it. This is a control variate for machine speed: the kernel imitates
the program's cost profile (small numpy matmuls and elementwise ops on
1 x 16..48 rows, plus a Python object per op) but calls no program code,
so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

# Kernel time on the 2-core x86-64 VM the benchmark was built on (numpy 2.4,
# OpenBLAS, one BLAS thread) when it ran fast. Normalised figures read as
# if the machine always ran at that speed.
REFERENCE_S = 0.0003
PERIOD_S = 0.1

_RNG = np.random.default_rng(0)
_W = _RNG.normal(size=(32, 48)) * 0.1
_U = _RNG.normal(size=(16, 48)) * 0.1


class _Node:
    __slots__ = ("data", "inputs")

    def __init__(self, data, inputs=()):
        self.data = data
        self.inputs = inputs


def reference_kernel() -> float:
    """Seconds taken by a fixed 30-step GRU-like loop: the fastest of five runs.

    The first run after the program was interrupted finds cold caches; the
    fastest of five does not, so the figure tracks the machine rather than
    what the program was doing. The cyclic garbage collector is paused
    meanwhile, so that a collection of the program's heap is not charged to
    the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop() for _ in range(5))
    finally:
        if enabled:
            gc.enable()


def _loop() -> float:
    t0 = time.perf_counter()
    h = np.zeros((1, 16))
    nodes = []
    for i in range(30):
        x = _Node(np.full((1, 32), 0.01 * (i % 7)))
        g = x.data @ _W + h @ _U
        z = 1.0 / (1.0 + np.exp(-g[:, :16]))
        h = (1.0 - z) * h + z * np.tanh(g[:, 32:])
        nodes.append(_Node(np.concatenate([h, z], axis=1), (x,)))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples (start, end, kernel seconds) from a timer signal while active."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        seconds = reference_kernel()
        self.samples.append((t0, time.perf_counter(), seconds))

    def normalise(self, start: float, end: float) -> tuple[float, float]:
        """(duration less probe time, that duration at reference speed) of [start, end]."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        inside = self.samples[lo:hi]
        busy = sum(min(b, end) - a for a, b, _ in inside)
        near = inside or self.samples[max(0, lo - 1):lo + 1]
        if not near:
            return end - start, end - start
        factor = sum(REFERENCE_S / k for _, _, k in near) / len(near)
        return end - start - busy, (end - start - busy) * factor
