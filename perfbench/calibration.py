"""A fixed reference computation that tracks the host's current speed.

On a shared virtual machine the same call can take 20-40% more CPU time for
seconds or minutes at a stretch (on a 2-vCPU VM, with no steal time and
nothing else running in the VM), and this reference slows down with it.
The worker runs the reference between timed calls and
scales each call's CPU time to the speed at which the reference takes
REFERENCE_MS ("reference-speed ms").  The reference mixes what the program
spends its time on: products of sparse polynomials keyed by exponent tuples
in pure Python, dense SVDs and small eigenproblems.  It belongs to the
benchmark, not to the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

import workloads

REFERENCE_MS = 40.0  # its CPU time at the speed the metrics are scaled to
INTERVAL_S = 0.5  # wall time between reference samples during a pass
# a call is scaled by the samples taken from WINDOW_S before it starts to
# WINDOW_S after it ends: several samples, to average out their own noise,
# but close enough to follow the host's swings
WINDOW_S = 1.0


class Reference:
    """The reference work and its inputs, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(20110506)
        monos = workloads.exponent_table((2, 2, 2), (2, 1, 1))
        self.poly = dict(zip(monos, rng.normal(size=len(monos)).tolist()))
        self.dense = rng.normal(size=(240, 160))
        self.small = rng.normal(size=(24, 24))

    def work(self) -> int:
        out: dict = {}
        for a, ca in self.poly.items():
            for b, cb in self.poly.items():
                key = tuple(
                    tuple(x + y for x, y in zip(ga, gb)) for ga, gb in zip(a, b)
                )
                out[key] = out.get(key, 0.0) + ca * cb
        for _ in range(3):
            np.linalg.svd(self.dense, full_matrices=False)
        for _ in range(20):
            np.linalg.eig(self.small)
        return len(out)

    def sample_ms(self) -> float:
        """CPU ms of one run of the reference work.

        The cyclic collector is off while it runs: the reference's garbage is
        acyclic and freed by reference counting, and a collection it set off
        would scan the program's heap, so its time would depend on the
        program."""
        gc.disable()
        try:
            start = time.process_time()
            self.work()
            return 1000.0 * (time.process_time() - start)
        finally:
            gc.enable()


def scale(reference_samples_ms) -> float:
    """Factor that turns CPU time measured beside these reference samples
    into reference-speed time."""
    return REFERENCE_MS / statistics.fmean(reference_samples_ms)
