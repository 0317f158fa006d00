"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same code runs up to a third slower for minutes at a
time, and timings of the pipeline drift with it.  The probe times three small
fixed kernels that resemble the pipeline's work: a Python loop (marching
squares, CSV handling), memory-bound numpy array arithmetic (the batched
scan) and a LAPACK SVD (factorizations).  Its result is their geometric mean.

A stage time is *scaled* by ``NOMINAL_S / probe``, with the probe measured
just before and just after the stage.  Scaled seconds are the seconds the
stage would take at the speed where the probe takes ``NOMINAL_S``.  The probe
is part of the benchmark, not of the program, so a change to the program
moves scaled and raw seconds alike.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the fastest geometric mean of the three kernel times seen on a shared
# 2-core Intel Xeon (OpenBLAS 0.3.31 on one thread, numpy 2.4); slow phases
# there read up to 0.031
NOMINAL_S = 0.02


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((160, 160))
        self._wide = rng.standard_normal((2, 64, 8000))

    def _python(self):
        acc = 0.0
        for i in range(300_000):
            acc += (i % 7) * 0.5
        return acc

    def _numpy(self):
        a, b = self._wide
        for _ in range(8):
            np.einsum("ij,ij->j", a, b)
            np.sqrt(a * a + b * b)

    def _lapack(self):
        for _ in range(3):
            np.linalg.svd(self._square)

    def measure(self):
        """Geometric mean of the three kernel times, in seconds."""
        log_sum = 0.0
        for kernel in (self._python, self._numpy, self._lapack):
            start = time.perf_counter()
            kernel()
            log_sum += math.log(time.perf_counter() - start)
        return math.exp(log_sum / 3.0)

    def speed(self, before, after):
        """Scale factor for work timed between two probe readings."""
        return NOMINAL_S / (0.5 * (before + after))
