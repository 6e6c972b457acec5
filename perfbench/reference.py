"""Reference kernels: how fast the machine runs at the moment of a sample.

A shared machine does not run at one speed.  Its CPUs flip between a
fast and a slow state many times a second, and how much of a minute
they spend in the slow state drifts from one minute to the next; a
whole minute can be slow.  So every timed sample of the benchmark is
taken between two runs of a fixed reference kernel, and scaled by how
much slower than nominal those ran:

    scaled = sample * NOMINAL_S[kind] / mean(reference before, after)

The scaled time is what the sample would have taken with the machine at
its nominal speed.  The slow state slows interpreter-bound and
array-bound code by different factors, so there are two kernels, and
each sample is scaled by the one of its own kind: ``interp`` (a Python
loop of scalar work on tiny arrays, like a scalar Luxemburg bisection
or a greedy net) and ``array`` (elementwise passes over a few thousand
floats, like a batched bisection).  The kernels do not call smoothnorm,
so traced counters do not see them, and they never change with the
program measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_ARRAY = np.arange(2048.0)
_ROW = np.linspace(0.1, 1.0, 64)


def _interp():
    x, s = 0.5, 0.0
    for _ in range(300):
        s += float(np.sum(np.abs(_ROW * x)))
        x = 0.5 * (x + 1.0 / (1.0 + s * 1e-3))
    return s


def _array():
    a = _ARRAY
    for _ in range(120):
        a = np.sqrt(a * a + 1.0)
    return a


KERNELS = {"interp": _interp, "array": _array}
# each kernel's time at the nominal speed, about its time on a free CPU
# of a 2-core x86-64 cloud VM
NOMINAL_S = {"interp": 1.5e-3, "array": 0.8e-3}


class Scaler:
    """Times samples between reference runs and scales them.

    Consecutive samples of one kind share the reference run between
    them.  ``speed`` collects, per kind, nominal over measured reference
    time: 1.0 at nominal speed, 0.6 when the machine runs 1.67 times
    slower.
    """

    def __init__(self):
        self._last = None            # (kind, seconds) of the last reference
        self.speed = {kind: [] for kind in KERNELS}

    def _reference(self, kind, repeats):
        kernel, clock = KERNELS[kind], time.perf_counter
        times = []
        for _ in range(repeats):
            t0 = clock()
            kernel()
            times.append(clock() - t0)
        return statistics.fmean(times)

    def reset(self):
        """Forget the last reference: other work ran since."""
        self._last = None

    def time(self, kind, fn, *args, repeats=1):
        """(seconds, scaled seconds, result) of ``fn(*args)``.

        ``repeats`` reference runs on each side average over the flips
        around a long sample.
        """
        if self._last is None or self._last[0] != kind or repeats > 1:
            before = self._reference(kind, repeats)
        else:
            before = self._last[1]
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        after = self._reference(kind, repeats)
        self._last = (kind, after)
        ref = 0.5 * (before + after)
        self.speed[kind].append(NOMINAL_S[kind] / ref)
        return seconds, seconds * NOMINAL_S[kind] / ref, out
