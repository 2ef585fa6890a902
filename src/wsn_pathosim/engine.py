"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams.

Virtual time is an integer count of microseconds so that every scheduling
decision is exact and a run is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator

US_PER_SECOND = 1_000_000
MASK64 = (1 << 64) - 1

Ticks = int


def ticks_from_seconds(seconds: float | int) -> Ticks:
    """Convert seconds to microsecond ticks (exact for multiples of 1 us)."""
    return round(seconds * US_PER_SECOND)


def has_finite_ticks(seconds: float) -> bool:
    """Whether seconds converts to ticks: its count of microseconds is a
    finite float. A duration past about 1.8e302 s is not, nor inf or nan."""
    return math.isfinite(seconds * US_PER_SECOND)


def seconds_from_ticks(ticks: Ticks) -> float:
    return ticks / US_PER_SECOND


class EventKind(Enum):
    # Hash by identity, not through Enum.__hash__ (a Python-level call): the
    # kinds key the dispatch tables, and no set of them is ever iterated.
    __hash__ = object.__hash__

    TIMER_FIRED = "timer_fired"
    FRAME_DELIVERED = "frame_delivered"
    POLL_WAKE = "poll_wake"
    EXTERNAL_WAKE = "external_wake"
    WARMUP_DONE = "warmup_done"
    TIMEOUT = "timeout"
    COMMAND_INJECTED = "command_injected"


@dataclass(slots=True)
class SimEvent:
    """A scheduled occurrence. seq is the insertion counter.

    payload is what the handler of the event's kind takes, or None. timer is
    the Timer the event was armed on, or None for an event that always runs."""

    at: Ticks
    seq: int
    kind: EventKind
    node: int | None = None
    payload: object = None
    timer: Timer | None = None

    @property
    def live(self) -> bool:
        """Whether the event will run: it is no timer's, or its timer's event."""
        return self.timer is None or self.timer.event is self


@dataclass(slots=True)
class Timer:
    """One owner's deadline: its live event, if any, run at rank among the
    ranked events of its tick (None: unranked). An event EventQueue.arm or
    disarm supersedes stays queued; len, pending, peek_time and pop_due skip it."""

    rank: int | None = None
    event: SimEvent | None = None


class SchedulingInPastError(ValueError):
    """Raised when an event is scheduled before the current virtual clock."""


class EventQueue:
    """Min-heap of SimEvents ordered by (at, rank, seq), with Timers.

    Within a tick, unranked events run first, in scheduling order. Events
    scheduled with a rank (a non-negative int) run after them, by rank and
    then in scheduling order. An unranked event scheduled at the current tick
    while its ranked events pop still runs before the ones left.
    """

    def __init__(self) -> None:
        self.now: Ticks = 0
        self._heap: list[tuple[Ticks, int, int, SimEvent]] = []
        self._next_seq = 0
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def schedule(self, at: Ticks, kind: EventKind, node: int | None = None,
                 payload: object = None, *, rank: int | None = None) -> SimEvent:
        """Schedule an event that runs whatever happens, and return it."""
        if at < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {kind.value} at {at} ticks; clock is {self.now}")
        if rank is None:
            rank = -1
        elif rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        seq = self._next_seq
        self._next_seq = seq + 1
        self._pending += 1
        event = SimEvent(at, seq, kind, node, payload)
        heappush(self._heap, (at, rank, seq, event))
        return event

    def arm(self, timer: Timer, at: Ticks, kind: EventKind, node: int | None = None,
            payload: object = None) -> SimEvent:
        """Make an event the timer's live one and return it. A live event that
        is already this one (same tick, kind, node and payload) stays, with its
        seq and its place in its tick; any other is superseded."""
        armed = timer.event
        if armed is not None:
            if (armed.at, armed.kind, armed.node, armed.payload) == (at, kind, node, payload):
                return armed
            self._pending -= 1
        event = timer.event = self.schedule(at, kind, node, payload, rank=timer.rank)
        event.timer = timer
        return event

    def disarm(self, timer: Timer | None) -> None:
        """Supersede the timer's event, if it has one that has not popped. A
        timer not built yet (None) has none."""
        if timer is not None and timer.event is not None:
            timer.event = None
            self._pending -= 1

    def peek_time(self) -> Ticks | None:
        """Time of the earliest pending event, or None when the queue is empty."""
        heap = self._heap
        while heap and not heap[0][3].live:
            heappop(heap)
        return heap[0][0] if heap else None

    def pending(self) -> Iterator[SimEvent]:
        """Live (not superseded) events, in no particular order."""
        return (entry[3] for entry in self._heap if entry[3].live)

    def pop_due(self, limit: Ticks) -> SimEvent | None:
        """Pop the earliest pending event with at <= limit, advancing the clock.

        Returns None (clock untouched) when nothing is due.
        """
        heap = self._heap
        while heap and heap[0][0] <= limit:
            event = heappop(heap)[3]
            if event.timer is not None:
                if event.timer.event is not event:
                    continue  # superseded
                event.timer.event = None
            self._pending -= 1
            self.now = event.at
            return event
        return None

    def pop_next(self) -> SimEvent | None:
        """Pop the earliest pending event regardless of time (single-step use)."""
        return self.pop_due(math.inf)


def derive_seed(root: int, *tags: object) -> int:
    """Stable 64-bit substream seed from a root seed and arbitrary tags.

    blake2b output depends only on the byte string, so derived streams are
    reproducible across platforms and processes.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(root & MASK64).encode())
    for tag in tags:
        digest.update(b"/")
        digest.update(str(tag).encode())
    return int.from_bytes(digest.digest(), "big")


class RngStream:
    """Seeded, portable pseudo-random stream.

    Uniforms come from random.Random.random() (Mersenne Twister), whose output
    sequence for a given seed is guaranteed stable by the Python documentation.
    Normal variates use an explicit Box-Muller transform over those uniforms so
    no unpinned library algorithm enters the stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64
        self._random = random.Random(self.seed).random

    def uniform(self) -> float:
        """Next uniform variate in [0, 1)."""
        return self._random()

    def normal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Next normal variate; consumes exactly two uniforms."""
        u1 = 1.0 - self._random()  # (0, 1], keeps log() finite
        u2 = self._random()
        return mean + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
