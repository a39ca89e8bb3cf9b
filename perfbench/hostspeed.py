"""Host-speed reference: a fixed pure-Python kernel timed between rounds.

On a shared host the same simulator work takes up to twice as long from
one minute to the next (neighbours' load, frequency changes), which no
amount of repetition inside a 30-second run averages out.  The kernel
below -- an event-heap loop over small objects, the simulator's own mix
of calls, attribute reads, heap and bisect operations, but no code of
the repository -- is timed around every round, and each round's host
time is scaled by ``REFERENCE_S / kernel time``: seconds at the speed at
which the kernel takes :data:`REFERENCE_S`.  A change to the simulator
moves the scaled time exactly as it moves the raw time at a fixed host
speed; the raw seconds stay in the JSON report.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

#: Kernel time that defines the reference speed (a typical reading of
#: :func:`measure` on a 2-vCPU cloud host).
REFERENCE_S = 0.02


class _Event:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: int) -> None:
        self.t = t
        self.v = v

    def fire(self, k: float) -> float:
        return self.v * 0.5 + k


def kernel() -> float:
    """A fixed amount of event-loop-like work."""
    heap: list = []
    history: list = []
    latest: dict = {}
    acc = 0.0
    for i in range(12000):
        event = _Event(i * 1.5, (i * 7) % 13)
        heapq.heappush(heap, (event.t + (i % 17), i, event))
        if len(heap) > 64:
            t, _, due = heapq.heappop(heap)
            acc += due.fire(t)
            history.append(t)
            latest[i & 255] = acc
            bisect.bisect_right(history, t * 0.5)
    return acc


def measure(repeats: int = 3) -> float:
    """Median host seconds of :func:`kernel` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
