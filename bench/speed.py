"""Machine speed, tracked with fixed reference kernels that do not use clext.

A shared 2-vCPU x86-64 VM changes speed by tens of percent over seconds to
minutes: a fixed numpy matmul timed in 2-s buckets there ranged from 14 to
24 ms within 90 s, and whole 30-s runs differed by up to 30%.  Such drift
swamps program changes in raw wall times, so each run times a reference
kernel every REF_EVERY_S and scales every measured time by the kernel's
nominal time over its median time within REF_WINDOW_S of the measurement.
A scaled time is the time the measurement would have taken at the nominal
speed.  Code of different kinds speeds up differently in the same phase, so
each workload is scaled by the kernel parts that resemble its own work; on
that VM, over ten seeds per workload, this cut the spread (interquartile
range over median) of the time metrics from 6-24% to 3-11%, and of the
set-up time from 10-29% to 10-16%.
"""

import bisect
import json
import statistics
import time

import numpy as np

REF_EVERY_S = 0.5
REF_WINDOW_S = 2.0

#: Median time of each kernel part on that VM.
NOMINAL_S = {"clongdouble": 0.00136, "blas": 0.00149, "python": 0.00150, "small": 0.00065}

#: The kernel parts each measurement is scaled by.
PARTS = {
    "pssqm-sweep": ("clongdouble",),
    "verify-sweep": ("blas", "python", "small"),
    "cli-mix": ("clongdouble", "blas", "python"),
    "setup": ("clongdouble", "blas", "python"),
}


class MachineSpeed:
    """Times the kernel parts every REF_EVERY_S: numpy's own complex long
    double loops (as in pssqm), a complex128 BLAS matmul (as in verify's
    large cases), many small numpy calls (as in its small cases) and
    interpreter work (as in the CLI)."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        ext = rng.random((48, 48)).astype(np.clongdouble)
        blas = rng.random((192, 192)) + 0j
        doc = {str(i): [i, i / 3, (i, "x")] for i in range(600)}
        small = rng.random((24, 24)) + 0j

        def small_calls():
            for _ in range(40):
                np.max(np.abs(small @ small - small))

        work = {
            "clongdouble": lambda: ext @ ext,
            "blas": lambda: blas @ blas,
            "python": lambda: json.dumps(doc),
            "small": small_calls,
        }
        self._work = [work[part] for part in PARTS[kind]]
        self.nominal_s = sum(NOMINAL_S[part] for part in PARTS[kind])
        self.at: list[float] = []
        self.took: list[float] = []

    def sample_if_due(self):
        now = time.perf_counter()
        if self.at and now - self.at[-1] < REF_EVERY_S:
            return
        for run in self._work:
            run()
        self.at.append(now)
        self.took.append(time.perf_counter() - now)

    def scale(self, start: float, end: float) -> float:
        """Nominal over the kernel's median time within REF_WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        return self.nominal_s / statistics.median(self.took[lo:hi])
