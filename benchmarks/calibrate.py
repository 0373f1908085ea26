"""Machine-speed calibration interleaved with the measured operations.

On a shared machine the single-thread speed of one core can drift by a factor
of two over a few seconds while other tenants come and go. A fixed kernel
that the program cannot change (plane rotations over the rows of a 32x64
matrix: a Python loop over small numpy operations) runs in short slices
between operations and takes CAL_SHARE of the run. Each timing is then
scaled by (kernel rate / NOMINAL_KERNELS_PER_S) ** ELASTICITY, to a machine
on which the kernel runs NOMINAL_KERNELS_PER_S times a second. Drift in
machine speed cancels; a change in the program does not, because the
kernel does not use it.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

NOMINAL_KERNELS_PER_S = 200.0
# How closely svdlab's speed follows the kernel's. Over every operation of ten
# runs per workload on a 2-vCPU x86-64 VM, a log-log fit of operation time on
# kernel speed gave slopes of 0.67 to 0.72 on all four workloads: the
# interpreter-bound kernel swings more than svdlab's mix of Python and numpy.
ELASTICITY = 0.7
CAL_SHARE = 0.1  # calibration time per unit of operation time
MIN_SLICE_S = 0.01

_C, _S = math.cos(0.1), math.sin(0.1)


def kernel(x: np.ndarray) -> None:
    """Rotate every pair of rows of `x` in place (norm-preserving, so the
    kernel can run forever on the same matrix)."""
    for i in range(x.shape[0] - 1):
        for j in range(i + 1, x.shape[0]):
            xi = x[i].copy()
            xj = x[j]
            if float(xi @ xj) >= 0.0:
                x[i] = _C * xi + _S * xj
                x[j] = -_S * xi + _C * xj
            else:
                x[i] = _C * xi - _S * xj
                x[j] = _S * xi + _C * xj


class Calibrator:
    """Runs calibration slices and records them as [after_op, kernels,
    seconds], where after_op is the index of the operation the slice follows
    (-1 before the first)."""

    def __init__(self):
        self.x = np.random.default_rng(0).normal(size=(32, 64))
        self.slices: list[list] = []
        self._owed = 0.0

    def slice(self, after_op: int, seconds: float) -> float:
        """Run the kernel for about `seconds`; returns kernels per second."""
        n = 0
        start = time.perf_counter()
        while True:
            kernel(self.x)
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.slices.append([after_op, n, elapsed])
        return n / elapsed

    def after(self, op: int, op_seconds: float) -> None:
        """Account for one operation; calibrate once enough time is owed."""
        self._owed += CAL_SHARE * op_seconds
        if self._owed >= MIN_SLICE_S:
            self.slice(op, self._owed)
            self._owed = 0.0

    def finish(self, last_op: int) -> None:
        self.slice(last_op, max(self._owed, MIN_SLICE_S))
        self._owed = 0.0


def nominal_seconds(records: list[dict], slices: list[list]) -> None:
    """Set each record's "nominal_s": its seconds scaled by `speed` of the
    kernel rate over the slices that bracket it (the last slice before it,
    and the first slice after it)."""
    after_ops = [s[0] for s in slices]  # ascending: slices run in order
    for i, r in enumerate(records):
        k = bisect.bisect_left(after_ops, i)
        chosen = slices[max(k - 1, 0) : k + 1]
        kps = sum(s[1] for s in chosen) / sum(s[2] for s in chosen)
        r["nominal_s"] = None if r["seconds"] is None else r["seconds"] * speed(kps)


def speed(kps: float) -> float:
    """Factor that scales a time measured while the kernel ran `kps` times
    a second to the nominal machine."""
    return (kps / NOMINAL_KERNELS_PER_S) ** ELASTICITY
