"""How fast the host runs right now, from a fixed mix of Python and numpy work.

The benchmark gets a few cores of a shared host whose speed drifts by up to
2x over minutes as the load of other tenants comes and goes.  The process's
CPU time drifts with its wall time, so the slowdown is contention for the
core, not waiting, and a longer run cannot average it away.  Timing this mix
just before and just after a run tells how fast the host was during the
run; the run's wall time divided by that factor is its time at the
reference speed.

The mix uses no spectral_transfer code, so a change to the program moves
the normalised times as it moves the raw ones.  Its parts are the
kinds of work the program does: interpreted Python, a LAPACK
eigendecomposition, BLAS matrix products, vectorised elementwise maths and
chains of small mat-vecs, where numpy's per-call overhead dominates.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds each part took on the reference host (2-core Xeon KVM guest, one
# BLAS thread) in a quiet period.  They only fix the unit: a factor of 1
# means the host runs the mix as fast as it did then.
REFERENCE_S = {
    "python": 0.0351,
    "eigh": 0.0287,
    "matmul": 0.0365,
    "elementwise": 0.0329,
    "small": 0.0354,
}


class HostSpeed:
    """Times the calibration mix; ``factor()`` is now / reference."""

    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        square = rng.standard_normal((200, 200))
        self._symmetric = square + square.T
        self._square = rng.standard_normal((300, 300))
        self._vector = rng.standard_normal(400_000)
        self._small = rng.standard_normal((144, 144)) / 12.0
        self._clock = clock
        # The factor after the last timed call, reused before the next one.
        self._last = None
        self.parts = {
            "python": self._python,
            "eigh": self._eigh,
            "matmul": self._matmul,
            "elementwise": self._elementwise,
            "small": self._small_matvecs,
        }

    def _python(self):
        total = 0
        for i in range(600_000):
            total += i * i
        return total

    def _eigh(self):
        for _ in range(8):
            np.linalg.eigh(self._symmetric)

    def _matmul(self):
        for _ in range(36):
            self._square @ self._square

    def _elementwise(self):
        for _ in range(4):
            np.exp(np.cos(self._vector) * self._vector).sum()

    def _small_matvecs(self):
        x = self._small[0]
        for _ in range(6000):
            x = np.tanh(self._small @ x) + 0.5 * self._small[1]

    def times(self) -> dict:
        out = {}
        for name, part in self.parts.items():
            start = self._clock()
            part()
            out[name] = self._clock() - start
        return out

    def factor(self) -> float:
        """Geometric mean over the parts of time now over reference time."""
        logs = [math.log(t / REFERENCE_S[name]) for name, t in self.times().items()]
        return math.exp(sum(logs) / len(logs))

    def timed(self, call):
        """Run ``call()`` between two calibrations.

        Returns its result, its wall time as measured, and the host factor
        during it: the geometric mean of the factors before and after.
        """
        before = self._last or self.factor()
        start = self._clock()
        result = call()
        seconds = self._clock() - start
        self._last = self.factor()
        return result, seconds, math.sqrt(before * self._last)
