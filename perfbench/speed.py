"""Wall time normalised to a fixed CPU speed.

The virtual CPUs this benchmark was built on change speed by up to a
factor of two over seconds to minutes as other tenants load the host, and
a command's wall time follows them.  Timing a fixed loop between commands
does not correct for that: a command of 30 s sees speeds that a sample
before and after it does not.  So while a command runs, an interval timer
interrupts the main thread every ``INTERVAL_S`` of wall time and times a
fixed loop there.  The samples come from the same thread, on whatever CPU
it runs on at that moment, spread evenly over the command.

A command's normalised time is its wall time, less the time spent in the
samples, times ``REFERENCE_S`` over the mean sample: the seconds the
command would have taken at the speed at which the loop takes
``REFERENCE_S``.  A change to the program moves it as it moves wall time;
a change of machine speed during the run moves it much less.  The
samples add about 1.5% to the wall time.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# About the loop's time on the reference machine described in README.md,
# so that normalised seconds read close to wall seconds there.
REFERENCE_S = 7.5e-4

_POINTS = np.random.default_rng(0).normal(size=(12, 3))


def _calibration() -> float:
    """A fixed mix of the kinds of work the commands do: Python objects,
    integer arithmetic and small-array NumPy.  A loop of one kind alone
    tracked the commands' wall time less closely."""
    values = []
    for i in range(200):
        item = {"k": i, "x": i * 0.5, "pair": [i, i + 1]}
        values.append(math.sqrt(item["x"] + 1.0) * len(item["pair"]))
    values.sort()
    total = 0
    for i in range(2500):
        total += i * i
    p = _POINTS
    for _ in range(12):
        d = p[:, None, :] - p[None, :, :]
        r = np.einsum("ijk,ijk->ij", d, d) + 1.0
        p = p + 1e-6 * (d / r[:, :, None]).sum(axis=1)
    return values[-1] + total + float(p[0, 0])


class SpeedSampler:
    """Samples the loop's time while active; use in the main thread.

    Entering takes one sample at once, so even a command shorter than the
    interval has one; the timer's samples follow.  ``overhead_s`` is the
    time the timer's samples took, which the caller subtracts from its
    wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self.active = False

    def _sample(self) -> float:
        # A garbage collection started inside the loop would cost in
        # proportion to the program's heap, not to the CPU's speed.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _calibration()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        return took

    def _on_timer(self, signum, frame) -> None:
        if self.active:
            self.overhead_s += self._sample()

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.overhead_s = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        self._sample()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # A signal still pending must not add a sample after the caller's
        # timed region has ended.
        self.active = False


def normalised(seconds: float, samples: list[float]) -> float:
    """Seconds at the reference speed, given the samples taken meanwhile."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)
