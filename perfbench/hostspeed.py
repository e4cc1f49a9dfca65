"""Host speed, measured next to every sample.

The benchmark's host is shared: other tenants slow everything on it, in
phases of tens of seconds, by up to a factor of two.  No statistic of
one run removes a phase that lasts the whole run.  So before every
sample the benchmark times a fixed interpreter-bound job of its own —
a heap, small objects, a dict and calls, the operations the simulator
is made of — and scales the sample to a reference speed of that job.
The job is in this file, not in the program, so no change to the
program can change it.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

#: Calibration iterations per second that define the reference host.
REFERENCE_SPEED = 1_000_000.0
ITERATIONS = 3000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _job() -> float:
    """Iterations per second of the calibration job, right now.

    Garbage collection is off while it runs, so the program's heap
    (which a change may grow) cannot slow the job down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(ITERATIONS):
            node = _Node((i * 7919) % 1009, i)
            heapq.heappush(heap, (node.key, i, node))
            table[i & 255] = node
        total = 0
        while heap:
            key, _, node = heapq.heappop(heap)
            total += key + table.get(node.value & 255, node).value
        return ITERATIONS / (time.perf_counter() - begin)
    finally:
        if enabled:
            gc.enable()


def measure(*, every_cpu: bool = False) -> float:
    """Host speed on this process's CPU, or with ``every_cpu`` the
    slowest of the CPUs it may run on.

    Shard workers run on every CPU and wait for each other every
    window, so the slowest CPU sets their pace.
    """
    if not every_cpu:
        return _job()
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds.append(_job())
    finally:
        os.sched_setaffinity(0, allowed)
    return min(speeds)
