"""The machine's momentary speed, sampled inside a pass.

On a shared host, other tenants slow a pass by up to about 1.8 times, in
bursts from a fraction of a second to minutes.  The slow-down scales
allocation-heavy Python code alike, so a fixed calibration kernel (exact
Gauss-Jordan elimination over `Fraction`, the arithmetic the scheduler
does) timed every INTERVAL_S of CPU time tracks it.  `Probe.end` rescales
a stretch of CPU time to the speed at which the kernel takes REF_S: an
operation that takes T seconds while the kernel takes k_i seconds in its
samples takes T * mean(REF_S / k_i) reference seconds.  The samples are
spread evenly over CPU time, so this is the stretch's time at reference
speed whatever the slow-down was at each moment.

Samples are taken in a SIGPROF handler, so the pass needs no thread.  Time
spent in the handler is kept out of every measured stretch: `now()` is the
thread's CPU clock minus that time.  The thread clock stays exact while a
process CPU timer is armed; the process clock then ticks in whole jiffies.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

#: CPU seconds between samples.
INTERVAL_S = 0.05

#: Kernel time at reference speed: a round figure near its fastest time on
#: a 2-vCPU Intel Xeon VM under Python 3.11.7, so that reference seconds
#: stay close to that machine's CPU seconds when it is idle.
REF_S = 0.004

_N = 10
_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(_N + 1)]
           for _ in range(_N)]


def kernel() -> list:
    """Reduce the fixed augmented matrix to reduced row echelon form."""
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        p = next((r for r in range(c, _N) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Probe:
    """Kernel times, in the order they were sampled."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._busy = False

    def now(self) -> float:
        """CPU seconds of this thread, without the time spent sampling."""
        return time.thread_time() - self.spent

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired while sampling
            return
        self._busy = True
        t0 = time.thread_time()
        enabled = gc.isenabled()
        gc.disable()  # the kernel makes no cycles; keep the heap out of it
        try:
            kernel()
            self.kernel_s.append(time.thread_time() - t0)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.thread_time() - t0
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def begin(self) -> tuple[int, float]:
        """Start a stretch: one sample, then the clock."""
        self.sample()
        return len(self.kernel_s) - 1, self.now()

    def end(self, mark: tuple[int, float]) -> tuple[float, float]:
        """CPU seconds and reference seconds of the stretch since `mark`,
        scaled by the samples taken within it and one more at its end."""
        cpu = self.now() - mark[1]
        self.sample()
        return cpu, cpu * statistics.fmean(REF_S / k for k in self.kernel_s[mark[0]:])


class Unscaled:
    """`Probe`'s clock without sampling: reference seconds are CPU seconds."""

    def now(self) -> float:
        return time.thread_time()

    def begin(self) -> tuple[int, float]:
        return 0, self.now()

    def end(self, mark: tuple[int, float]) -> tuple[float, float]:
        cpu = self.now() - mark[1]
        return cpu, cpu
