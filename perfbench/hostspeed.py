"""Host-speed reference: a fixed kernel that runs no project code.

The benchmark's host is shared, and its speed drifts with the neighbours'
load: whole 25-second runs of identical work differ by up to 40%, and
every phase of a run moves together.  The pass therefore times this
kernel (a small NumPy message-passing step plus Python object churn, the
same kinds of work as the program's) twice between every two phases.
``host_factor`` is the nominal kernel time over the median measured one,
and timed figures are reported at the nominal host speed: each duration
is multiplied by the factor measured around its own phase.  The kernel runs no
project code, but it runs in the measured process: a program change that
slows the allocator, the garbage collector or the CPU caches for
everything after it also slows the kernel, and scaling hides that part.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Reference-kernel time on a quiet host; it only sets the scale.
NOMINAL_PROBE_S = 0.00125
#: Kernel runs per ``HostProbe.sample`` call.
PROBE_REPEATS = 2


class HostProbe:
    """Samples the reference kernel's wall time on demand."""

    def __init__(self):
        rng = np.random.default_rng(0)
        nodes, edges, dim = 112, 420, 32
        self._h = rng.standard_normal((nodes, dim))
        self._src = rng.integers(0, nodes, edges)
        self._dst = rng.integers(0, nodes, edges)
        self._w1 = rng.standard_normal((2 * dim, dim)) / 8
        self._w2 = rng.standard_normal((2 * dim, dim)) / 8
        self.samples: List[float] = []

    def _work(self) -> float:
        h = self._h
        for _ in range(3):
            m = np.concatenate([h[self._src], h[self._dst]], axis=1) @ self._w1
            agg = np.zeros_like(h)
            np.add.at(agg, self._dst, np.maximum(m, 0.0))
            h = np.tanh(np.concatenate([h, agg], axis=1) @ self._w2)
        rows = [{"index": i, "row": h[i % len(h)]} for i in range(300)]
        return float(h.sum()) + len(rows)

    def sample(self) -> None:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - start)


def host_factor(samples: List[float]) -> float:
    """Nominal over measured reference time: below 1 when the host ran slow."""
    return NOMINAL_PROBE_S / statistics.median(samples)
