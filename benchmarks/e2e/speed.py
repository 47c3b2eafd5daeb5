"""Speed index of the machine, sampled while a workload runs.

This sandbox is shared: besides short bursts it has spells of minutes in
which everything — interpreter, NumPy, SciPy — runs 1.3-1.5x slower, and a
per-index best-of-R cannot see through a spell that covers every repeat.
So each pass keeps timing a fixed *reference kernel* (this file's own code,
never the program's: many small SciPy/NumPy calls under an interpreter loop,
the mix the simulation is made of) and divides every host-wall interval by
the speed index around it::

    speed index = reference kernel seconds now / REF_NOMINAL_S

``REF_NOMINAL_S`` is the kernel's time on a quiet machine of the class the
benchmark was defined on, so there the index is 1 and calibrated seconds are
wall seconds; in a slow spell the index rises and cancels the spell.  Raw
wall values are stored beside the calibrated ones.  Results from another
machine class are on that class's scale: compare like with like.
"""

from __future__ import annotations

import statistics
import time

#: Quiet-machine seconds of one ``reference_kernel()`` call (2-core sandbox,
#: Xeon 2.1 GHz, python 3.11, numpy/scipy as recorded in the result file).
REF_NOMINAL_S = 0.0095

#: Reference samples this close (seconds) to an interval vote on its index.
WINDOW_S = 2.0

clock = time.perf_counter


def make_reference_kernel():
    """The fixed kernel; returns a function timing one call of it."""
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(20210715)
    n, per_row = 4000, 7
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n, rows.size)
    A = sparse.csr_matrix((rng.random(rows.size), (rows, cols)), shape=(n, n))
    x = rng.random(n)

    def kernel() -> float:
        t = clock()
        y = x
        acc: dict[int, float] = {}
        for i in range(300):
            y = A @ y
            y = y / (np.abs(y).max() + 1.0)
            for j in range(20):
                acc[j] = acc.get(j, 0.0) + i * j
        return clock() - t

    return kernel


class SpeedMeter:
    """Reference samples ``(time, seconds)`` and the index of an interval."""

    def __init__(self, min_gap_s: float = 0.5) -> None:
        self.kernel = make_reference_kernel()
        self.kernel()  # first call pays one-off dispatch set-up
        self.min_gap_s = min_gap_s
        self.samples: list[tuple[float, float]] = []

    def sample(self, force: bool = True) -> None:
        """Time the kernel now (unless one ran less than ``min_gap_s`` ago)."""
        if force or not self.samples or (
            clock() - self.samples[-1][0] >= self.min_gap_s
        ):
            dt = self.kernel()
            self.samples.append((clock(), dt))

    def index(self, start: float, end: float) -> float:
        """Speed index of ``[start, end]``: median of the samples nearby."""
        near = [
            dt
            for t, dt in self.samples
            if start - WINDOW_S <= t <= end + WINDOW_S
        ]
        if len(near) < 3:
            mid = 0.5 * (start + end)
            near = [
                dt
                for _t, dt in sorted(
                    self.samples, key=lambda s: abs(s[0] - mid)
                )[:3]
            ]
        return statistics.median(near) / REF_NOMINAL_S
