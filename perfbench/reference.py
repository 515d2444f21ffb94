"""A fixed reference workload that measures how fast the host runs now.

On a shared host the same work can take up to twice as long from one
minute to the next, because other tenants contend for the cores and
caches. Every pass of a run times :func:`reference_work`, which does not
touch the program, twice outside its timed phases. The run reports its
host timings scaled by ``REFERENCE_S`` over the mean reference time: in
*reference seconds*, the seconds the work would take on a host that runs
the reference in ``REFERENCE_S``. The reference mixes what the simulator
spends its time on (an event heap, small objects, dict lookups, float
arithmetic and small numpy calls), so it slows with the host by about as
much.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

import numpy as np

#: Reference time, on either clock, that defines one reference second
#: per host second. The reference takes about this long on a 2-vCPU VM.
REFERENCE_S = 0.1


class _Job:
    __slots__ = ("left", "age")

    def __init__(self, size: float):
        self.left = size
        self.age = 0.0

    def step(self, dt: float) -> bool:
        self.left -= dt
        self.age += dt
        return self.left <= 0.0


def reference_work(n_jobs: int = 30_000, n_array_ops: int = 500) -> float:
    """Run a fixed, seeded job queue and a fixed set of small numpy
    operations; return a checksum so none of it can be skipped."""
    rng = np.random.default_rng(12345)
    sizes = rng.exponential(1.0, n_jobs).tolist()
    gaps = rng.exponential(0.2, n_jobs).tolist()
    heap: list = []
    live: dict = {}
    clock = total = 0.0
    for i in range(n_jobs):
        clock += gaps[i]
        heapq.heappush(heap, (clock, i))
        live[i] = _Job(sizes[i])
        while heap and heap[0][0] <= clock:
            t, j = heapq.heappop(heap)
            if live[j].step(0.3):
                total += math.sqrt(live.pop(j).age)
            else:
                heapq.heappush(heap, (t + 0.3, j))
    a = rng.random((32, 32))
    v = rng.random(512)
    for _ in range(n_array_ops):
        total += float(np.percentile(v, 90.0))
        total += float((a @ a[:, :1]).sum()) + float(np.cumsum(v)[-1])
    return total


def time_reference() -> tuple[float, float]:
    """Process CPU and wall seconds of one :func:`reference_work` call."""
    gc.collect()
    w, c = time.perf_counter(), time.process_time()
    reference_work()
    return time.process_time() - c, time.perf_counter() - w
