"""A machine-speed probe that runs no ``repro`` code.

The shared 2-core hosts this benchmark runs on change speed by 10-40 %
within minutes, and process CPU time drifts with wall time, so the
slowdown is not scheduling that CPU time could factor out.  The probe
times a fixed mix of the operations the workloads spend their time in:
scatter-adds and gathers over arrays the size of the workloads' own, a
sort, interpreter work and JSON.  It touches no ``repro`` code, so a change to the
program cannot move it; timings divided by it are timings at a fixed
machine speed.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: Probe time of one round on the machine the reference numbers come
#: from (a 2-core Xeon); on a machine this fast timings are unscaled.
REFERENCE_ROUND_S = 0.02


class SpeedProbe:
    """Fixed inputs built once; :meth:`measure` times the fixed work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.size = 640_000
        self.keys = rng.integers(0, self.size, 600_000)
        self.gather = rng.integers(0, self.size, 600_000)
        self.table = rng.random(self.size)
        self.document = {"rows": [[i, i * 0.5, str(i)] for i in range(3000)]}

    def once(self) -> float:
        t0 = perf_counter()
        np.bincount(self.keys, minlength=self.size)
        self.table[self.gather].sum()
        np.sort(self.keys)
        total = 0
        for i in range(50_000):
            total += i & 7
        json.loads(json.dumps(self.document))
        return perf_counter() - t0

    def slowdown(self, rounds: int = 5) -> float:
        """How many times slower than the reference machine this one runs now.

        The median of ``rounds`` probe rounds over :data:`REFERENCE_ROUND_S`.
        """
        return statistics.median(self.once() for _ in range(rounds)) / REFERENCE_ROUND_S
