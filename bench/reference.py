"""Reference kernel: the yardstick that takes machine speed out of the timings.

On a shared 2-vCPU Xeon VM, interpreter-bound code ran up to 1.6x slower
for seconds to minutes at a time. This fixed pure-Python RK4, which keeps
every state as a named tuple like the package's scalar path does, slows by
about the same factor. Timed next to a 1500-step codrift integration for
90 s, the job alone spread 46% (IQR over median of 5-s buckets) and the
job/kernel ratio spread 1.9%.

``Yardstick`` times the kernel before and after a job and, through
``SIGALRM``, every ``INTERVAL_S`` while it runs. The job time net of those
samples, scaled by ``NOMINAL_S / mean kernel time``, is the job's time at
the kernel speed of a quiet period on that VM. Samples taken only at job
boundaries missed slow spells inside multi-second jobs, and sampling every
0.1 s left short NumPy-heavy jobs under-sampled: the ``sheet`` spread over
ten seeds was 11%, against 2.6% at this interval. The kernel is benchmark code,
so no change to the package can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from collections import namedtuple

# Kernel time (s) that defines the nominal speed: about the median sample
# taken inside jobs in a quiet period on the VM described above.
NOMINAL_S = 0.0023

REPEATS = 3
STEPS = 1000
INTERVAL_S = 0.025

_State = namedtuple("_State", "angle rate t")


def _kernel() -> int:
    def f(y):
        return y[1], -math.sin(y[0]) - 0.1 * y[1] * math.sqrt(1.0 + y[1] * y[1])

    h = 1e-3
    y = (1.0, 0.0)
    states = []
    for i in range(STEPS):
        a = f(y)
        b = f((y[0] + h / 2 * a[0], y[1] + h / 2 * a[1]))
        c = f((y[0] + h / 2 * b[0], y[1] + h / 2 * b[1]))
        d = f((y[0] + h * c[0], y[1] + h * c[1]))
        y = (
            y[0] + h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0]),
            y[1] + h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1]),
        )
        states.append(_State(y[0], y[1], i * h))
    return len(states)


def kernel_time() -> float:
    """Median time of ``REPEATS`` kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Yardstick:
    """Kernel samples around and during one timed region (main thread only)."""

    def __enter__(self):
        self.samples = [kernel_time()]
        self._ticks = []  # (start, seconds) of the in-region samples
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self._ticks.append((start, elapsed))

    def spent_before(self, end: float) -> float:
        """Seconds of samples that started before ``end``: subtract them from a region ending there."""
        return sum(elapsed for start, elapsed in self._ticks if start < end)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel_time())
        return False

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal kernel speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
