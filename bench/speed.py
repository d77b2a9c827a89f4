"""Machine-speed calibration for timings taken on shared cores.

On a shared two-core x86_64 virtual machine the same call's wall time was
measured to drift by up to 1.8x over tens of seconds, and its CPU time
drifts with it: the core itself slows, the process is not descheduled.
So call times are reported in *reference seconds*: measured seconds x
REF_SECONDS / (the time a fixed kernel takes at that moment).  A background
thread times the kernel every INTERVAL_S while calls run; each call is
scaled by the median kernel reading around it.  The kernel calls nothing in
the library, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REF_SECONDS = 0.0015  # nominal kernel time: the unit of every reported time
INTERVAL_S = 0.05
WINDOW_S = 0.25

_SMALL = np.full((3, 3), 0.5)
_WIDE = np.add.outer(np.arange(24.0), np.arange(24.0)) % 7 + 1.0


def kernel() -> float:
    """Thread CPU seconds of fixed work shaped like the library's costs: the
    interpreter, small numpy calls, PRF generator construction and 24 x 24
    LAPACK QR."""
    t0 = time.thread_time()
    s = 0
    for i in range(4000):
        s += i * i
    u = np.ones(3)
    for _ in range(100):
        u = _SMALL @ u
        u /= np.linalg.norm(u)
    for i in range(10):
        key = np.random.SeedSequence([1, 0, i]).generate_state(2, np.uint64)
        np.random.Generator(np.random.Philox(key=key)).uniform(0.5, 2.0, (3, 3))
    q = _WIDE
    for _ in range(6):
        q, _ = np.linalg.qr(_WIDE @ q)
    return time.thread_time() - t0


def scale_now(samples=20) -> float:
    """Reference seconds per measured second, read on the calling thread."""
    return REF_SECONDS / statistics.median(kernel() for _ in range(samples))


class Sampler:
    """Times the kernel every INTERVAL_S on a background thread while open."""

    def __init__(self):
        self.readings = []  # (perf_counter time, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            self.readings.append((time.perf_counter(), kernel()))

    def scale(self, t0, t1) -> float:
        """Reference seconds per measured second over [t0, t1]: from the
        median kernel reading within WINDOW_S of that interval."""
        near = [k for t, k in self.readings if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return REF_SECONDS / statistics.median(near)
