"""Reference loop that rescales host times to one fixed machine speed.

The benchmark shares its cores with other tenants, and the speed a single
Python thread gets drifts by a factor of up to 2 over tens of seconds. The
drift hits all interpreter-bound code alike, so the benchmark times this
fixed loop between consecutive runs and between the phases of each run, and
scales each phase time by

    REF_NOMINAL_S / mean(reference time before the run, reference time after)

which reports every time as seconds on a machine where the loop takes
REF_NOMINAL_S. The loop uses the simulator's instruction mix (a heap of
timed events, slotted objects, dict accumulation, float sums) but none of
its code, so a change to the simulator cannot move the reference.
"""

from __future__ import annotations

import heapq
import time

REF_NOMINAL_S = 0.1
_EVENTS = 80_000
_OBJECTS = 64


class _Node:
    __slots__ = ("state", "cursor", "totals")

    def __init__(self) -> None:
        self.state = 0
        self.cursor = 0
        self.totals: dict[int, int] = {}


def reference_seconds() -> float:
    """Host seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    nodes = [_Node() for _ in range(_OBJECTS)]
    heap = [(i * 7, i, i) for i in range(_OBJECTS)]
    seq = _OBJECTS
    for _ in range(_EVENTS):
        at, _, k = heapq.heappop(heap)
        node = nodes[k]
        node.totals[node.state] = node.totals.get(node.state, 0) + at - node.cursor
        node.cursor = at
        node.state = (node.state + 1) % 3
        sum(ticks * 0.5 for ticks in node.totals.values())
        seq += 1
        heapq.heappush(heap, (at + 28 + seq % 5, seq, k))
    return time.perf_counter() - start
