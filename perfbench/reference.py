"""Machine-speed reference: a fixed kernel timed between the operations of a pass.

On a shared host the other tenants slow every process down in phases that
last from seconds to minutes, by up to a factor of two, in CPU time as well
as in wall time.  A fixed kernel, independent of dra_sim and written in the
same style as its hot path (small numpy calls at n = 50 plus Python
bookkeeping), slows down with it.  Each operation's time is scaled by
``NOMINAL_S`` over the mean of the kernel times sampled just before and just
after it, which gives the operation's time on a machine where the kernel
takes ``NOMINAL_S``.  The kernel's code never changes with the program, so a
change to dra_sim moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import threading
import time

import numpy as np

# The kernel's time on the machine the benchmark was written on (a 2-core
# x86-64 virtual machine, Python 3.11, numpy 2.4), about its 10th
# percentile there: scaled seconds equal wall seconds on that machine when
# it runs that fast.
NOMINAL_S = 0.0045
KERNEL_ITERATIONS = 150
# Take a sample at an operation boundary only this long after the last one.
SAMPLE_GAP_S = 0.1
# An operation is scaled by the samples within this many seconds of it: a
# single sample is itself noisy, the slow phases last longer.
WINDOW_S = 0.4

_RNG = np.random.default_rng(0x5EED)
_X = _RNG.random(50)
_I = _RNG.integers(0, 50, 250)
_J = _RNG.integers(0, 50, 250)
_W = _RNG.random(250)


def kernel() -> float:
    """Seconds taken by one fixed batch of small array operations."""
    x = _X.copy()
    t = time.perf_counter()
    acc = 0.0
    for _ in range(KERNEL_ITERATIONS):
        g = 0.02 * (x - 1.0) ** 3 + np.where(x > 0.9, x - 0.9, 0.0)
        d = g[_I] - g[_J]
        phi = _W * np.sign(d) * np.exp(0.125 * np.round(np.log(np.abs(d) + 1e-9) / 0.125))
        x = x + 1e-3 * (np.bincount(_J, phi, 50) - np.bincount(_I, phi, 50))
        acc += float(np.linalg.norm(g - g.mean())) + sum(x.tolist())
    elapsed = time.perf_counter() - t
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


class Sampler:
    """Kernel samples of one pass, taken at operation boundaries."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    @property
    def spent(self) -> float:
        return sum(self.took)

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= SAMPLE_GAP_S:
            self.at.append(now)
            self.took.append(kernel())

    @contextlib.contextmanager
    def during(self):
        """Keep sampling from a second thread while the caller waits on other processes."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(SAMPLE_GAP_S):
                self.sample(force=True)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time around [start, end].

        The samples used are those within WINDOW_S of the interval, and
        always the last one before it and the first one after it.
        """
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S), bisect.bisect_right(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S), bisect.bisect_left(self.at, end) + 1)
        near = self.took[max(lo, 0):min(hi, len(self.took))]
        return NOMINAL_S * len(near) / sum(near)

    def mean_factor(self) -> float:
        return NOMINAL_S * len(self.took) / sum(self.took)
