"""The host reference kernel that normalises every timed op.

Why normalise: two runs of the same code on this 2-CPU host moved
``bc-rmat11`` op medians by +10.7% and CPU seconds per op by +8.9%, and
raw op medians drift 20-40% across fresh interpreters.  The host drifts and
CPU time drifts with it, so no raw-seconds bound can separate a regression
from the host.  An op's time divided by a fixed kernel timed right after it
stays within a few percent, because both slow down together.

The kernel is pure NumPy, imports nothing from ``repro`` and runs on
fixed-seed inputs.  It is memory-bound the way the masked-SpGEMM kernels
are: a stable ``argsort`` of ``REF_KEYS`` int64 keys, a gather of keys and
float64 values by that order, and an ``add.reduceat`` over the runs of
equal keys, ``REF_PASSES`` times.  One pass is too short: the ratio to a
single short pass spread wider than the raw op time did.

An op's normalised time is ``t_raw * REF_NOMINAL_S / ref_s``, with
``ref_s`` the kernel time measured next to that op.  ``REF_NOMINAL_S`` is
the kernel's median time on the 2-CPU host the benchmark was calibrated
on, so normalised seconds read as that host's seconds.  Changing anything
in this file is a change of the benchmark, not of the program.
"""

from __future__ import annotations

import time

import numpy as np

REF_KEYS = 400_000
REF_PASSES = 2
REF_SEED = 20220829
REF_NOMINAL_S = 0.17


class ReferenceKernel:
    """Fixed inputs, allocated once; :meth:`time` runs the kernel once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(REF_SEED)
        self.keys = rng.integers(0, REF_KEYS // 4, size=REF_KEYS, dtype=np.int64)
        self.vals = rng.random(REF_KEYS)
        self.checksum = self._run()

    def _run(self) -> float:
        total = 0.0
        for _ in range(REF_PASSES):
            order = np.argsort(self.keys, kind="stable")
            k = self.keys[order]
            v = self.vals[order]
            starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
            total += float(np.add.reduceat(v, starts).sum())
        return total

    def time(self) -> float:
        """Seconds for one run of the kernel (the result is checked, so the
        work cannot be skipped)."""
        t0 = time.perf_counter()
        out = self._run()
        dt = time.perf_counter() - t0
        if out != self.checksum:
            raise RuntimeError("reference kernel result changed between runs")
        return dt


def normalise(raw_s: float, ref_s: float) -> float:
    """Seconds of ``raw_s`` rescaled to the nominal reference speed."""
    return raw_s * REF_NOMINAL_S / ref_s
