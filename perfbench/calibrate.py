"""A fixed calibration load that tracks the host's speed during a run.

On a shared host the speed a single process gets drifts by up to ~40%
over tens of seconds to minutes, so the wall time of one 30-s run says as
much about the neighbours as about the program.  The benchmark therefore
takes a calibration sample for every EVERY_S seconds that pass (between
operations, outside their timing; up to BURST at once after a long
operation, so that runs of few long operations still get many samples)
and scales its times by REF_S / median(samples):
a time is reported as the seconds it would have taken on a host where
one sample takes REF_S.  The load is frozen here, so the parent and a
change are scaled by the same yardstick; a change that halves the
program's work still halves every scaled time.

A sample is the geometric mean of three single-threaded numpy kernels,
each the best of three: a matrix product (BLAS), a product of 4,096
points with 512 hyperplanes followed by a feasibility test, as in the
bound program (memory), and a sort.  Candidate kernels were timed between
operations of the workloads over several minutes; pure-Python kernels
swing more than any workload does, so scaling by them over-corrects the
array-heavy cut-n12, while these three tracked the slowdowns of all the
workloads.
"""

import math
import statistics
import time

import numpy as np

REF_S = 4.0e-3  # seconds of one sample at the reference speed
EVERY_S = 0.75  # seconds of the measured loop per sample
BURST = 8  # most samples taken at one gap between operations
REPS = 3

_rng = np.random.default_rng(0)
_M = _rng.random((512, 256))
_POINTS, _ROWS = _rng.random((4096, 16)), _rng.random((512, 16))
_RHS = np.full(512, 4.0)
_KEYS = _rng.random(500_000)


def _blas():
    return float((_M @ _M.T).sum())


def _bound():
    return int(np.count_nonzero(((_POINTS @ _ROWS.T) <= _RHS).all(axis=1)))


def _sort():
    return float(np.sort(_KEYS)[0])


def _best(fn):
    best = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Samples of the calibration load over a run, and the time they took."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._last = -math.inf

    def take(self):
        t0 = time.perf_counter()
        self.samples.append((_best(_blas) * _best(_bound) * _best(_sort)) ** (1 / 3))
        self._last = time.perf_counter()
        self.spent_s += self._last - t0

    def due(self):
        """Take one sample per EVERY_S seconds passed since the last one."""
        for _ in range(min(BURST, int((time.perf_counter() - self._last) / EVERY_S))):
            self.take()

    def scale(self):
        """Factor that turns this run's seconds into reference seconds."""
        return REF_S / statistics.median(self.samples)
