"""Duty-cycle arithmetic, piecewise-constant current integration, coulomb counting.

Current draw is modeled as a constant per radio state; battery charge is the
time integral of that draw. Durations are kept as integer microsecond ticks
per state so the conservation identity (consumed == sum over states of
duration x current) holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

from .engine import Ticks, has_finite_ticks, seconds_from_ticks, ticks_from_seconds

TICKS_PER_HOUR = 3_600 * 1_000_000


class PowerState(Enum):
    # Hash by identity, not through Enum.__hash__ (a Python-level call): the
    # states key every ledger's tick totals, and no set of them is iterated.
    __hash__ = object.__hash__

    SLEEPING = "sleeping"
    AWAKE_IDLE = "awake_idle"
    TRANSMITTING = "transmitting"
    DEAD = "dead"


# The states bound once. On CPython 3.10 and 3.11 the Enum metaclass defines
# __getattr__, which turns every PowerState.SLEEPING-style read into a generic
# attribute lookup of about 150 ns, against about 14 ns for a module global.
SLEEPING, AWAKE_IDLE, TRANSMITTING, DEAD = PowerState
_DRAWING = (SLEEPING, AWAKE_IDLE, TRANSMITTING)  # the states _consumed sums, in its order
_NO_TICKS = dict.fromkeys(PowerState, 0)  # copied per ledger: 25x cheaper than the Enum walk


@dataclass(frozen=True)
class ConsumptionProfile:
    """Measured module draw (mA) per state. Dead nodes draw nothing."""

    sleeping_ma: float = 21.10
    awake_idle_ma: float = 69.80
    transmitting_ma: float = 109.80

    def current_ma(self, state: PowerState) -> float:
        if state is SLEEPING:
            return self.sleeping_ma
        if state is AWAKE_IDLE:
            return self.awake_idle_ma
        if state is TRANSMITTING:
            return self.transmitting_ma
        return 0.0

    @cached_property
    def currents(self) -> dict[PowerState, float]:
        """current_ma of every state, computed once per profile and shared
        by the ledgers that use it."""
        return {state: self.current_ma(state) for state in PowerState}


class NonPositivePeriodError(ValueError):
    """A sleep or poll period that is zero or negative."""


class ActiveExceedsCycleError(ValueError):
    """Active time larger than the cycle it is supposed to fit in."""


class NonPositiveCurrentError(ValueError):
    """Average current must be > 0 for a lifetime to be finite."""


@dataclass(frozen=True)
class CyclicSleepConfig:
    """Resolved wake schedule for one End Device: it wakes every period_ticks,
    a whole number (multiplier) of its poll periods."""

    sample_period_s: float
    poll_period_s: float
    multiplier: int
    period_ticks: Ticks

    @property
    def effective_period_s(self) -> float:
        return seconds_from_ticks(self.period_ticks)

    @classmethod
    def from_periods(cls, sample_period_s: float, poll_period_s: float) -> "CyclicSleepConfig":
        """The radio can only wake on its poll grid, so the requested sample
        period quantizes to the closest whole number of polls, at least one,
        with ties rounded up. Both periods are rounded to ticks first, and the
        rule is applied in ticks."""
        if sample_period_s <= 0 or poll_period_s <= 0:
            raise NonPositivePeriodError(
                f"periods must be positive, got sample={sample_period_s} poll={poll_period_s}")
        for name, seconds in (("sample", sample_period_s), ("poll", poll_period_s)):
            if not has_finite_ticks(seconds):
                raise ValueError(f"{name} period {seconds} s is not a finite number of 1 us ticks")
        sample_ticks = ticks_from_seconds(sample_period_s)
        poll_ticks = ticks_from_seconds(poll_period_s)
        if poll_ticks == 0:
            raise ValueError(f"poll period {poll_period_s} s rounds to 0 ticks of 1 us")
        multiplier = max(1, (2 * sample_ticks + poll_ticks) // (2 * poll_ticks))
        return cls(sample_period_s, poll_period_s, multiplier, multiplier * poll_ticks)


def wake_timeline(config: CyclicSleepConfig, horizon_s: float) -> tuple[list[float], list[float]]:
    """(poll wake times, external wake times) in seconds, within the horizon.

    Polls land at k x poll ticks for k >= 1; every multiplier-th poll is also
    an external wake. t = 0 is not a wake. External wakes are a subset of the
    poll wakes by construction, and are the simulator's own wakes while no
    round overruns its period and no SET_PERIOD is committed.

    The simulator runs this grid without an event per poll: a poll that finds
    nothing buffered for the sleeping device, or the device awake, only books
    energy, and PowerLedger books it in closed form. Such polls leave no trace
    line; the run report counts them as poll_wakes_elided. Near a death, the
    first poll that PowerLedger.first_risky_poll cannot clear is an event.
    """
    poll_ticks = config.period_ticks // config.multiplier
    polls = range(poll_ticks, ticks_from_seconds(horizon_s) + 1, poll_ticks)
    return ([seconds_from_ticks(t) for t in polls],
            [seconds_from_ticks(t) for t in polls[config.multiplier - 1::config.multiplier]])


def average_current(profile: ConsumptionProfile, cycle_s: float, active_s: float,
                    active_state: PowerState) -> float:
    """Closed-form mean draw (mA) of a cycle spent sleeping except for one
    active stretch of `active_s` seconds in `active_state`."""
    if cycle_s <= 0:
        raise NonPositivePeriodError(f"cycle must be positive, got {cycle_s}")
    if not 0 <= active_s <= cycle_s:  # fails a nan active_s too
        raise ActiveExceedsCycleError(
            f"active time {active_s} s does not fit in a {cycle_s} s cycle")
    active_ma = profile.current_ma(active_state)
    sleep_ma = profile.sleeping_ma
    return (active_ma * active_s + sleep_ma * (cycle_s - active_s)) / cycle_s


def estimate_lifetime(capacity_mah: float, average_ma: float) -> float:
    """Hours until a battery of capacity_mah empties at a constant average_ma."""
    if average_ma <= 0:
        raise NonPositiveCurrentError(f"average current must be > 0, got {average_ma}")
    if capacity_mah < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity_mah}")
    return capacity_mah / average_ma


@dataclass
class PowerLedger:
    """Per-node energy account: current state, per-state tick totals, battery.

    The ledger has its own time cursor. advance() integrates the present state
    up to a later tick; charge_slice() books a transient excursion (a frame's
    airtime) without disturbing the base state. Overlapping excursions
    serialize: a slice starting before the cursor is shifted to it, which keeps
    every microsecond single-counted. A slice books its whole span at once, so
    the cursor may run a little ahead of the event clock when an excursion
    straddles a run horizon.

    An End Device's ledger also carries its poll grid: ticks k x poll_ticks
    for k >= 1, where the radio wakes for poll_window ticks to ask its parent
    for buffered frames. Every advance books the grid polls it crosses
    exactly as if each had been its own call at its own tick: the span up to
    the poll is integrated on its own (that split is where a death would be
    found), and a poll made while the base state is SLEEPING adds a
    poll_window slice of AWAKE_IDLE. `polls` counts the grid polls booked
    while the battery was alive. first_risky_poll says, booking nothing,
    which is the first poll that may find the battery empty. That one bound
    decides both which poll the simulator makes its first real poll near a
    death and how many polls book_polls books at once in closed form.

    durations holds a tick total for every state from construction, 0 at
    first, and the charge is summed over them in a fixed order (_consumed),
    so it depends on the totals alone, not on the order of the bookings.

    Mains-powered nodes pass battery capacity None and simply accumulate
    consumption. A ledger with neither a battery nor a poll grid has no
    death or poll to find in a span, so charge_slice books a slice on it in
    place, without advance or _integrate: two integer adds to durations
    (the gap from the cursor to the slice in the base state, then the
    slice) and the cursor moved past the slice. The totals are those the
    general path books, so the charge has the same bits. Battery nodes die
    the exact tick their charge crosses zero; from then on the state is
    DEAD and nothing accrues, polls included.
    """

    profile: ConsumptionProfile
    state: PowerState
    battery_capacity_mah: float | None = None
    battery_remaining_mah: float | None = None
    cursor: Ticks = 0
    dead_at: Ticks | None = field(init=False)
    durations: dict[PowerState, int] = field(init=False, default_factory=_NO_TICKS.copy)
    poll_ticks: Ticks = 0
    poll_window: Ticks = 0
    next_poll: Ticks | None = field(init=False)
    polls: int = field(init=False)

    def __post_init__(self) -> None:
        # Set on every ledger here, not left to class-level defaults, so that
        # all ledgers store one set of attributes in one order and share one
        # key table (instance attributes added in differing orders would not).
        self.dead_at = None
        self.next_poll = None
        self.polls = 0
        if self.battery_capacity_mah is not None and self.battery_remaining_mah is None:
            self.battery_remaining_mah = self.battery_capacity_mah
        self._initial_remaining_mah = self.battery_remaining_mah
        self._current = self.profile.currents
        if self.poll_ticks:
            if not 0 <= self.poll_window < self.poll_ticks:
                raise ValueError(f"poll window {self.poll_window} must fit in the poll period "
                                 f"{self.poll_ticks}")
            # first positive multiple of the period at or after the cursor
            self.next_poll = max(1, -(-self.cursor // self.poll_ticks)) * self.poll_ticks

    @property
    def consumed_mah(self) -> float:
        """Derived from the per-state tick totals; never accumulated separately."""
        return _consumed(self._current, self.durations)

    def advance(self, now: Ticks) -> None:
        """Book the grid polls before `now`, then integrate the current state
        up to `now` (no-op if now <= cursor)."""
        next_poll = self.next_poll
        if next_poll is not None and next_poll < now:
            self.book_polls(now)
        if now > self.cursor:
            self._integrate(now)

    def poll(self, now: Ticks) -> bool:
        """advance(now), and book the grid poll at `now` too if it is the next
        one. True when that poll found the battery alive."""
        self.advance(now)
        if self.next_poll != now:
            return False
        return self._poll_step(now)

    def book_polls(self, before: Ticks) -> None:
        """Book every grid poll at a tick < `before` that is not booked yet,
        leaving the cursor at the last of them.

        The polls before first_risky_poll() cannot find the battery empty;
        2 or more of them before `before` are booked in one add, and the
        bound is asked again of the new state. Each poll is one cycle: the
        base state up to the poll, then the window if the base state is
        SLEEPING. A poll before the cursor (a slice shifted it) books only
        its window, at the cursor, so lag ticks of shift cover
        (lag - 1) // (poll_ticks - window) + 1 polls. Tick totals are
        integers, so adding k cycles gives the totals of k steps, and the
        remaining charge re-derived from them has the same bits. Any other
        poll is stepped."""
        poll_ticks = self.poll_ticks
        durations = self.durations
        while (first := self.next_poll) is not None and first < before and self.dead_at is None:
            base = self.state
            window = self.poll_window if base is SLEEPING else 0
            lag = self.cursor - first
            count = (before - 1 - first) // poll_ticks + 1
            if lag > 0:
                shifted = (lag - 1) // (poll_ticks - window) + 1
                if shifted < count:
                    count = shifted
            if count > 1:  # the bound last: it is the dearest of the limits
                risky = self.first_risky_poll()
                if risky is not None and risky <= first + (count - 1) * poll_ticks:
                    count = (risky - 1 - first) // poll_ticks + 1  # the polls before it
            if count < 2:
                self._poll_step(first)
                continue
            last = first + (count - 1) * poll_ticks
            if lag > 0:
                self.cursor += count * window
            else:
                durations[base] += last - self.cursor - (count - 1) * window
                self.cursor = last + window
            if window:
                durations[AWAKE_IDLE] += count * window
            if self.battery_remaining_mah is not None:
                self.battery_remaining_mah = (self._initial_remaining_mah
                                              - _consumed(self._current, durations))
            self.next_poll = last + poll_ticks
            self.polls += count

    def first_risky_poll(self) -> Ticks | None:
        """The first grid poll not booked yet that may find the battery
        empty if the ledger is left alone: the next poll once it is dead,
        None if no poll can (no grid or battery, nothing drawn, or a reach
        past the largest float).

        No poll before it finds the battery empty: a lower bound on the
        death tick answers without booking anything. Left alone, the ledger
        draws only the base state's current and, in poll windows,
        AWAKE_IDLE's, so the bound lets every tick draw the larger of the
        two. A poll finds a death at or after it, or one inside its window.
        A poll before the cursor (a slice shifted it) books its window at
        the cursor; the gap to the next poll shrinks by poll_ticks -
        poll_window per poll, and the first poll that is not shifted ends
        the shifting. So a poll books nothing past the last shifted window
        or its own window, whichever ends later."""
        next_poll = self.next_poll
        if self.dead_at is not None or next_poll is None:
            return next_poll
        remaining = self.battery_remaining_mah
        # max() of two floats, written out: the same float, without the calls
        top, idle = self._current[self.state], self._current[AWAKE_IDLE]
        if idle > top:
            top = idle
        if remaining is None or top <= 0:
            return None
        initial = self._initial_remaining_mah
        margin = 1e-9 * (1.0 if 1.0 > initial else initial)
        left = remaining - margin
        reach = (left if left > 0.0 else 0.0) * TICKS_PER_HOUR / top * (1 - 1e-9)
        if not math.isfinite(reach):
            return None
        lag = self.cursor - next_poll
        if lag > 0:
            shifted = (lag - 1) // (self.poll_ticks - self.poll_window) + 1
            if reach - 3 <= shifted * self.poll_window:
                return next_poll
        # the first poll p with reach - 3 <= p + window - cursor
        gap = self.cursor + reach - 3 - self.poll_window - next_poll
        if gap <= 0:
            return next_poll
        return next_poll + math.ceil(gap / self.poll_ticks) * self.poll_ticks

    def set_state(self, state: PowerState, now: Ticks) -> None:
        """Integrate up to `now`, then switch the base state."""
        self.advance(now)
        if self.dead_at is None:
            self.state = state

    def charge_slice(self, state: PowerState, duration: Ticks, now: Ticks) -> None:
        """Book a transient excursion of `duration` starting at `now` (or at
        the cursor, if later), returning to the current base state after."""
        if self.battery_remaining_mah is None and self.next_poll is None:  # mains: in place
            durations = self.durations
            cursor = self.cursor
            if now > cursor:
                durations[self.state] += now - cursor
                cursor = now
            durations[state] += duration
            self.cursor = cursor + duration
            return
        self.advance(now)
        if self.dead_at is not None:
            self._integrate(self.cursor + duration)  # all of it DEAD
            return
        base = self.state
        self.state = state
        self._integrate(self.cursor + duration)
        if self.dead_at is None:
            self.state = base

    def _integrate(self, now: Ticks) -> None:
        """Book the span from the cursor to `now` in the current state. A
        battery that runs out inside it books only the live part, and the
        rest as DEAD."""
        cursor = self.cursor
        if now <= cursor:
            return
        span = now - cursor
        state = self.state
        durations = self.durations
        remaining = self.battery_remaining_mah
        currents = self._current
        current = currents[state]
        self.cursor = now
        if remaining is not None and current > 0:
            if current * span / TICKS_PER_HOUR >= remaining:
                # Died partway through the span: book only the live part.
                live = min(math.floor(remaining * TICKS_PER_HOUR / current), span)
                durations[state] += live
                durations[DEAD] += span - live
                self.battery_remaining_mah = 0.0
                self.dead_at = cursor + live
                self.state = DEAD
                return
            durations[state] += span
            # Re-derive from the tick totals rather than subtracting demand:
            # the result is then independent of how often advance() was called.
            self.battery_remaining_mah = (self._initial_remaining_mah
                                          - _consumed(currents, durations))
            return
        durations[state] += span

    def _poll_step(self, tick: Ticks) -> bool:
        """One grid poll: the span up to it, then its window if asleep."""
        self._integrate(tick)
        self.next_poll = tick + self.poll_ticks
        if self.dead_at is not None:
            return False
        self.polls += 1
        if self.state is SLEEPING and self.poll_window:
            self.state = AWAKE_IDLE
            self._integrate(self.cursor + self.poll_window)
            if self.dead_at is None:
                self.state = SLEEPING
        return True

    def conservation_error_mah(self) -> float:
        """|booked battery draw - derived consumption|; ~0 up to float rounding.
        The draw is measured from the charge the battery started with, which
        may be less than its capacity."""
        if self.battery_remaining_mah is None:
            return 0.0
        drawn = self._initial_remaining_mah - self.battery_remaining_mah
        return abs(drawn - self.consumed_mah)


def _consumed(currents: dict[PowerState, float], durations: dict[PowerState, int]) -> float:
    """Charge (mAh) drawn over the tick totals: current x ticks of SLEEPING,
    AWAKE_IDLE and TRANSMITTING, summed left to right in that order, so its
    bits depend on the totals alone. DEAD draws nothing. Not sum(): from
    Python 3.12 it compensates float rounding, so its bits would depend on
    the interpreter. Starts from the int 0, as sum() does, and skips zero
    totals, so a ledger that booked no live tick still reports 0."""
    total: float = 0
    for state in _DRAWING:
        ticks = durations[state]
        if ticks:
            total += currents[state] * ticks / TICKS_PER_HOUR
    return total
