"""Host-speed calibration for the implementation-plane figures.

The host this benchmark was tuned on (a shared virtual machine with 2
Intel Xeon vCPUs) switches between two speeds about 1.6x apart every
few seconds, and the share of slow time changes from
one minute to the next.  So a fixed piece of pure-Python work, timed
between slices of the simulation, measures the host's momentary speed.
Each slice's wall time is converted to *reference seconds*: the time the
slice would have taken on a host that runs the chunk in ``REF_CHUNK_S``.
"""

from __future__ import annotations

import heapq
import time
from typing import Tuple

#: Calibration chunk duration on the reference host, s.
REF_CHUNK_S = 1.0e-3

#: Events the simulation executes between two calibration chunks.
SLICE_EVENTS = 2000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibration_chunk() -> float:
    """A fixed piece of pure-Python work (object, dict and heap traffic,
    like the simulator's); returns how long it took."""
    start = time.perf_counter()
    table = {}
    heap: list = []
    total = 0
    for i in range(1000):
        item = _Item(i % 61, i)
        table[item.key] = item
        heapq.heappush(heap, (i * 7919 % 257, i, item))
        if len(heap) > 48:
            total += heapq.heappop(heap)[2].value
        found = table.get((i * 13) % 61)
        if found is not None:
            total += found.value
    return time.perf_counter() - start


def run_calibrated(cluster) -> Tuple[float, float]:
    """Run the started cluster to its horizon; returns (wall s, reference s).

    ``Scheduler.run(until=horizon, max_events=SLICE_EVENTS)`` in a loop
    executes exactly the events ``Cluster.run`` would, in the same order;
    between slices a calibration chunk measures the host's speed.  Each
    slice's wall time is scaled by ``REF_CHUNK_S`` over the mean of the
    chunks on either side of it.
    """
    scheduler = cluster.scheduler
    horizon = cluster.config.max_sim_time
    wall = ref = 0.0
    before = calibration_chunk()
    while True:
        done = scheduler.events_processed
        start = time.perf_counter()
        scheduler.run(until=horizon, max_events=SLICE_EVENTS)
        elapsed = time.perf_counter() - start
        after = calibration_chunk()
        wall += elapsed
        ref += elapsed * REF_CHUNK_S * 2.0 / (before + after)
        before = after
        if scheduler.events_processed - done < SLICE_EVENTS:
            return wall, ref
