"""Fixed reference computation that rescales wall times to a reference machine speed.

Raw wall times on a shared machine drift between processes by far more than
the differences the benchmark has to resolve, and within one process the
speed changes in phases of a second or so.  Each timed operation is
therefore paired with timings of this computation taken in the same process
right before, during and right after it, and reported as

    time x REFERENCE_S / mean calibration time over those samples.

:class:`SpeedProbe` takes the samples during an operation from a timer
signal and keeps a clock that leaves them out.

The computation mirrors the work that dominates tacnode without calling it:
a Python-level loop over element-wise numpy arithmetic on small arrays, the
shape of the double-double Airy series, plus one LAPACK LU factorisation and
solve of an 80 x 80 system, the shape of one resolvent build.  The LU part
is kept small: with OpenBLAS threads its time scatters far more than the
loop's (coefficients of variation 0.22 to 0.28 against 0.13 around
operations), and the loop alone tracks the operations' times better.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

# Typical seconds of one calibration_work() pass on the reference machine (see README.md).
REFERENCE_S = 0.0135

_N = 80
_idx = np.arange(_N)
_MATRIX = np.eye(_N) - 0.4 * np.exp(-np.abs(_idx[:, None] - _idx[None, :]) / 3.0) / _N
_RHS = np.cos(0.1 * np.arange(_N * 4, dtype=float)).reshape(_N, 4)
_X = np.linspace(-7.5, 7.5, 96)
_SPLIT = 134217729.0


def calibration_work() -> float:
    """One pass of the fixed computation; returns a checksum so nothing is skipped."""
    hi = np.ones_like(_X)
    lo = np.zeros_like(_X)
    for k in range(470):
        # a compensated multiply-add step, as in the double-double series
        p = hi * _X
        c = _SPLIT * hi
        ah = c - (c - hi)
        c = _SPLIT * _X
        bh = c - (c - _X)
        err = ((ah * bh - p) + ah * (_X - bh) + (hi - ah) * bh) + (hi - ah) * (_X - bh)
        lo = err + lo * _X
        s = p + lo
        hi, lo = s * (1.0 / (k + 1)), (lo - (s - p)) * (1.0 / (k + 1))
    lu = scipy.linalg.lu_factor(_MATRIX, check_finite=False)
    return float(hi.sum() + lo.sum() + scipy.linalg.lu_solve(lu, _RHS, check_finite=False)[0, 0])


def calibration_time(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` passes of :func:`calibration_work`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


class SpeedProbe:
    """Calibration samples every ``interval`` seconds from a SIGALRM handler.

    The handler runs one pass of :func:`calibration_work` in the main
    thread, between two bytecodes of whatever is running.  :meth:`now` is a
    clock that excludes the time spent in the handler, so operations timed
    with it do not include the samples taken inside them.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []  # seconds per calibration pass, in the order taken
        self.paused = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        calibration_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, passes: int = 1) -> None:
        """Explicit samples, taken between operations."""
        for _ in range(passes):
            t0 = time.perf_counter()
            calibration_work()
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
