import copy
import dataclasses
import itertools
import math

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from wsn_pathosim.model import BatteryState
from wsn_pathosim.power import (ActiveExceedsCycleError, ConsumptionProfile,
                                CyclicSleepConfig, NonPositiveCurrentError,
                                NonPositivePeriodError, PowerLedger, PowerState,
                                TICKS_PER_HOUR, average_current,
                                estimate_lifetime, wake_timeline)
from wsn_pathosim.simulation import Simulation

PROFILE = ConsumptionProfile()


def test_profile_default_currents():
    assert PROFILE.sleeping_ma == 21.10
    assert PROFILE.awake_idle_ma == 69.80
    assert PROFILE.transmitting_ma == 109.80
    assert PROFILE.currents[PowerState.SLEEPING] == 21.10
    assert PROFILE.currents[PowerState.AWAKE_IDLE] == 69.80
    assert PROFILE.currents[PowerState.TRANSMITTING] == 109.80
    assert PROFILE.currents[PowerState.DEAD] == 0.0


@pytest.mark.parametrize("sample,poll,multiplier,effective", [
    (120.0, 28.0, 4, 112.0),
    (1800.0, 28.0, 64, 1792.0),
    (3600.0, 28.0, 129, 3612.0),
    (1800.0, 30.0, 60, 1800.0),
    (30.0, 28.0, 1, 28.0),
    (42.0, 28.0, 2, 56.0),    # exactly 1.5 rounds up
    (5.0, 28.0, 1, 28.0),     # never below one poll period
    (14.0, 28.0, 1, 28.0),    # exactly 0.5 rounds up to one
    (0.35, 0.1, 4, 0.4),      # 3.5 polls in ticks, though 0.35 / 0.1 < 3.5 in floats
    (0.15, 0.1, 2, 0.2),      # 1.5 polls in ticks, though 0.15 / 0.1 < 1.5 in floats
])
def test_cyclic_sleep_quantization(sample, poll, multiplier, effective):
    sleep = CyclicSleepConfig.from_periods(sample, poll)
    assert (sleep.multiplier, sleep.effective_period_s) == (multiplier, effective)
    assert sleep.period_ticks == multiplier * round(poll * 1_000_000)


def test_cyclic_sleep_rejects_non_positive_periods():
    with pytest.raises(NonPositivePeriodError):
        CyclicSleepConfig.from_periods(0.0, 28.0)
    with pytest.raises(NonPositivePeriodError):
        CyclicSleepConfig.from_periods(120.0, -1.0)


def test_cyclic_sleep_rejects_a_period_past_the_last_finite_tick():
    with pytest.raises(ValueError, match="sample period 1e\\+303 s is not a finite number of 1 us"):
        CyclicSleepConfig.from_periods(1e303, 1e-6)
    with pytest.raises(ValueError, match="poll period nan s is not a finite number of 1 us"):
        CyclicSleepConfig.from_periods(120.0, math.nan)


def test_cyclic_sleep_rejects_a_poll_period_of_no_tick():
    with pytest.raises(ValueError, match="poll period 1e-07 s rounds to 0 ticks"):
        CyclicSleepConfig.from_periods(1.0, 1e-7)


@given(st.floats(min_value=0.1, max_value=10_000.0),
       st.floats(min_value=0.1, max_value=100.0))
def test_effective_period_is_closest_poll_multiple(sample, poll):
    sleep = CyclicSleepConfig.from_periods(sample, poll)
    sample_ticks, poll_ticks = round(sample * 1_000_000), round(poll * 1_000_000)
    multiplier = sleep.multiplier
    assert multiplier >= 1
    assert sleep.period_ticks == multiplier * poll_ticks
    # no other positive multiple is closer in ticks, and a tie goes to the
    # upper one, all in exact integer arithmetic
    best = abs(sleep.period_ticks - sample_ticks)
    if multiplier >= 2:
        assert abs((multiplier - 1) * poll_ticks - sample_ticks) >= best
    assert abs((multiplier + 1) * poll_ticks - sample_ticks) > best


def test_wake_timeline_polls_and_externals():
    config = CyclicSleepConfig.from_periods(120.0, 28.0)
    polls, externals = wake_timeline(config, 3600.0)
    assert len(polls) == 128           # floor(3600 / 28)
    assert polls[0] == 28.0            # t = 0 is not a wake
    assert externals == [112.0 * k for k in range(1, 33)]
    assert set(externals) <= set(polls)


@pytest.mark.parametrize("horizon_s", [math.inf, math.nan])
def test_wake_timeline_refuses_a_horizon_that_is_not_finite(horizon_s):
    config = CyclicSleepConfig.from_periods(120.0, 28.0)
    with pytest.raises(ValueError, match="horizon must be a finite number of seconds"):
        wake_timeline(config, horizon_s)


def test_average_current_closed_form():
    # 5 s of transmission per half-hour cycle, asleep otherwise
    average = average_current(PROFILE, 1800.0, 5.0, PowerState.TRANSMITTING)
    expected = (109.80 * 5.0 + 21.10 * 1795.0) / 1800.0
    assert average == pytest.approx(expected)
    assert average == pytest.approx(21.3464, abs=5e-5)


def test_average_current_bounds():
    assert average_current(PROFILE, 100.0, 0.0, PowerState.TRANSMITTING) == 21.10
    assert average_current(PROFILE, 100.0, 100.0, PowerState.AWAKE_IDLE) == 69.80
    with pytest.raises(ActiveExceedsCycleError):
        average_current(PROFILE, 100.0, 101.0, PowerState.TRANSMITTING)
    with pytest.raises(NonPositivePeriodError):
        average_current(PROFILE, 0.0, 0.0, PowerState.TRANSMITTING)


def test_average_current_rejects_a_nan_active_time():
    with pytest.raises(ActiveExceedsCycleError):
        average_current(PROFILE, 100.0, math.nan, PowerState.TRANSMITTING)


def test_estimate_lifetime_oracle():
    average = average_current(PROFILE, 1800.0, 5.0, PowerState.TRANSMITTING)
    assert estimate_lifetime(1100.0, average) == pytest.approx(51.53, abs=0.01)
    # pure sleep is the ceiling on lifetime
    assert estimate_lifetime(1100.0, 21.10) == pytest.approx(52.13, abs=0.01)


def test_estimate_lifetime_rejects_non_positive_current():
    with pytest.raises(NonPositiveCurrentError):
        estimate_lifetime(1100.0, 0.0)


# ---------------------------------------------------------------------------
# PowerLedger
# ---------------------------------------------------------------------------

S = 1_000_000  # ticks per second


def test_ledger_integrates_single_state():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=1100.0)
    ledger.advance(1795 * S)
    assert ledger.durations[PowerState.SLEEPING] == 1795 * S
    expected = 21.10 * 1795 * S / TICKS_PER_HOUR
    assert ledger.consumed_mah == pytest.approx(expected)
    assert ledger.battery_remaining_mah == pytest.approx(1100.0 - expected)
    assert ledger.conservation_error_mah() < 1e-9


def test_ledger_set_state_splits_durations():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=1100.0)
    ledger.set_state(PowerState.AWAKE_IDLE, 10 * S)
    ledger.set_state(PowerState.SLEEPING, 12 * S)
    ledger.advance(20 * S)
    assert ledger.durations[PowerState.SLEEPING] == 18 * S
    assert ledger.durations[PowerState.AWAKE_IDLE] == 2 * S
    assert sum(ledger.durations.values()) == 20 * S


def test_ledger_charge_slice_returns_to_base():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=1100.0)
    ledger.charge_slice(PowerState.TRANSMITTING, 2 * S, 10 * S)
    assert ledger.state is PowerState.SLEEPING
    ledger.advance(20 * S)
    assert ledger.durations[PowerState.TRANSMITTING] == 2 * S
    assert ledger.durations[PowerState.SLEEPING] == 18 * S


def test_ledger_overlapping_slices_serialize():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=1100.0)
    ledger.charge_slice(PowerState.TRANSMITTING, 3 * S, 10 * S)
    ledger.charge_slice(PowerState.TRANSMITTING, 2 * S, 11 * S)  # starts mid-first
    ledger.advance(20 * S)
    # the second excursion is pushed after the first: 5 s transmitting in total
    assert ledger.durations[PowerState.TRANSMITTING] == 5 * S
    assert ledger.durations[PowerState.SLEEPING] == 15 * S


def test_ledger_death_is_interpolated_to_the_exact_tick():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=0.01)
    ledger.advance(10 * S)
    assert ledger.dead_at is not None
    # 0.01 mAh at 21.1 mA: floor(0.01 * 3.6e9 / 21.1) ticks of life
    assert ledger.dead_at == int(0.01 * TICKS_PER_HOUR / 21.10)
    assert ledger.state is PowerState.DEAD
    assert ledger.battery_remaining_mah == 0.0
    assert ledger.durations[PowerState.SLEEPING] == ledger.dead_at
    assert ledger.durations[PowerState.DEAD] == 10 * S - ledger.dead_at
    assert ledger.conservation_error_mah() < 1e-6


def test_conservation_counts_the_draw_from_the_initial_charge():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=1100.0, battery_remaining_mah=500.0)
    ledger.advance(3600 * S)
    assert ledger.battery_remaining_mah == pytest.approx(500.0 - 21.10)
    assert ledger.conservation_error_mah() < 1e-9
    ledger.advance(30 * 3600 * S)  # past the death, about 23.7 h in
    assert ledger.dead_at is not None
    assert ledger.conservation_error_mah() < 1e-6


@pytest.mark.parametrize("horizon_s", [3600.0, 200_000.0])  # the second is past the death
def test_a_half_charged_device_conserves_energy(lifetime_config, horizon_s):
    device = dataclasses.replace(lifetime_config.node(1), battery=BatteryState(
        capacity_mah=1100.0, remaining_mah=500.0))
    config = dataclasses.replace(lifetime_config,
                                 nodes=(lifetime_config.node(0), device))
    sim = Simulation(config)
    sim.run_until(horizon_s)
    ledger = sim.runtimes[1].ledger
    assert (ledger.dead_at is not None) == (horizon_s > 3600.0)
    assert max(runtime.ledger.conservation_error_mah()
               for runtime in sim.runtimes.values()) < 1e-6


def test_dead_ledger_accrues_nothing_more():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=0.001)
    ledger.advance(10 * S)
    consumed = ledger.consumed_mah
    ledger.set_state(PowerState.TRANSMITTING, 20 * S)  # ignored: node is dead
    ledger.advance(30 * S)
    assert ledger.state is PowerState.DEAD
    assert ledger.consumed_mah == consumed
    assert sum(ledger.durations.values()) == 30 * S


def test_mains_ledger_has_no_battery_and_never_dies():
    ledger = PowerLedger(profile=PROFILE, state=PowerState.AWAKE_IDLE)
    ledger.advance(3600 * S)
    assert ledger.dead_at is None
    assert ledger.battery_remaining_mah is None
    assert ledger.consumed_mah == pytest.approx(69.80)
    assert ledger.conservation_error_mah() == 0.0


def _slice_through_integrate(ledger, duration, now):
    """charge_slice of a TRANSMITTING slice on an AWAKE_IDLE ledger, through
    advance and _integrate: the path of a ledger with a battery or a grid."""
    ledger.advance(now)
    ledger.state = PowerState.TRANSMITTING
    ledger._integrate(ledger.cursor + duration)
    ledger.state = PowerState.AWAKE_IDLE


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(["advance", "charge_slice"]),
                          st.integers(0, 2 * S),  # clock step: slices often overrun it
                          st.one_of(st.just(0), st.integers(0, 3 * S))),  # slice ticks
                max_size=40),
       st.one_of(st.just(PROFILE), st.lists(st.floats(0.0, 150.0), min_size=3, max_size=3)
                 .map(lambda currents: ConsumptionProfile(*currents))))
def test_a_mains_slice_is_booked_in_place(calls, profile):
    """A mains ledger (no battery, no grid) books each slice in place; the
    totals follow the model below, and the charge is the general path's."""
    ledger = PowerLedger(profile=profile, state=PowerState.AWAKE_IDLE)
    general = PowerLedger(profile=profile, state=PowerState.AWAKE_IDLE)
    now = cursor = sliced = 0
    for op, step, duration in calls:
        now += step
        if op == "advance":
            ledger.advance(now)
            general.advance(now)
            cursor = max(cursor, now)
        else:
            ledger.charge_slice(PowerState.TRANSMITTING, duration, now)
            _slice_through_integrate(general, duration, now)
            cursor = max(cursor, now) + duration  # a slice before the cursor starts at it
            sliced += duration
        assert ledger.cursor == cursor
    assert ledger.durations == {PowerState.SLEEPING: 0, PowerState.AWAKE_IDLE: cursor - sliced,
                                PowerState.TRANSMITTING: sliced, PowerState.DEAD: 0}
    assert ledger.state is PowerState.AWAKE_IDLE and ledger.dead_at is None
    assert repr(ledger.consumed_mah) == repr(general.consumed_mah)


@given(st.lists(st.tuples(st.sampled_from(list(PowerState)),
                          st.integers(min_value=0, max_value=10 * S)),
                max_size=30))
def test_ledger_durations_always_sum_to_elapsed_time(steps):
    ledger = PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                         battery_capacity_mah=50.0)
    now = 0
    for state, delta in steps:
        now += delta
        if state is PowerState.DEAD:
            ledger.advance(now)
        else:
            ledger.set_state(state, now)
    ledger.advance(now + S)
    assert sum(ledger.durations.values()) == now + S
    assert ledger.conservation_error_mah() < 1e-6


LIVE_STATES = [PowerState.SLEEPING, PowerState.AWAKE_IDLE, PowerState.TRANSMITTING]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 400 * 86400 * S), min_size=3, max_size=3),
       st.one_of(st.just(PROFILE), st.lists(st.floats(0.0, 150.0), min_size=3, max_size=3)
                 .map(lambda currents: ConsumptionProfile(*currents))),
       st.one_of(st.none(), st.floats(1.0, 2.0)))
def test_the_charge_depends_only_on_the_tick_totals(totals, profile, headroom):
    """Ledgers that book the same tick total per state, their first
    bookings in any order, report the same consumed and remaining charge
    to the bit. A battery, when there is one, outlasts the totals."""
    drawn = sum(profile.currents[state] * ticks / TICKS_PER_HOUR
                for state, ticks in zip(LIVE_STATES, totals))
    capacity = None if headroom is None else headroom * drawn + 1.0
    seen = set()
    for order in itertools.permutations(zip(LIVE_STATES, totals)):
        ledger = PowerLedger(profile=profile, state=order[0][0],
                             battery_capacity_mah=capacity)
        now = 0
        for state, ticks in order:
            ledger.set_state(state, now)
            now += ticks
        ledger.advance(now)
        assert ledger.dead_at is None
        seen.add((repr(ledger.consumed_mah), repr(ledger.battery_remaining_mah)))
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# Poll grid booked in closed form
# ---------------------------------------------------------------------------

def per_poll_reference(profile, state, capacity, cursor, poll, window, stops):
    """The poll grid booked one poll at a time on a ledger without a grid:
    for each grid tick, advance to it, then charge the window if asleep.
    Returns (ledger, polls found alive, tick of the poll that found it dead)."""
    ledger = PowerLedger(profile=profile, state=state, battery_capacity_mah=capacity,
                         cursor=cursor)
    tick = max(1, -(-cursor // poll)) * poll
    polls, death_poll = 0, None
    for stop in stops:
        while tick < stop and ledger.dead_at is None:
            ledger.advance(tick)
            if ledger.dead_at is not None:
                death_poll = tick
                break
            polls += 1
            if ledger.state is PowerState.SLEEPING:
                ledger.charge_slice(PowerState.AWAKE_IDLE, window, tick)
                if ledger.dead_at is not None:
                    death_poll = tick
            tick += poll
        ledger.advance(stop)
    return ledger, polls, death_poll


def _grid_ledger(profile, state, capacity, cursor, poll, window):
    return PowerLedger(profile=profile, state=state, battery_capacity_mah=capacity,
                       cursor=cursor, poll_ticks=poll, poll_window=window)


@st.composite
def grid_cases(draw):
    """A grid ledger's settings and the ticks to advance it to. Some
    batteries are sized from the drawn span, as in shifted_ledgers, so that
    the first risky poll falls inside it: booking in closed form then stops
    short of the polls that may find the battery empty."""
    poll = draw(st.one_of(st.integers(1, 40), st.sampled_from([333_333, 10 * S, 28 * S]),
                          st.integers(2, 60 * S)))
    window = draw(st.one_of(st.just(0), st.just(poll - 1), st.integers(0, poll - 1)))
    currents = sorted(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
                                    min_size=3, max_size=3)))
    profile = ConsumptionProfile(*currents)
    cursor = draw(st.integers(0, 5 * poll))
    state = draw(st.sampled_from([PowerState.SLEEPING, PowerState.AWAKE_IDLE]))
    spans = draw(st.lists(st.integers(0, 2000 * poll), min_size=1, max_size=4))
    stops = [cursor + span for span in sorted(spans)]
    if draw(st.booleans()):  # tight: lasts `spare` ticks at the bound's current
        spare = draw(st.integers(0, stops[-1] - cursor + window))
        top = max(profile.currents[state], profile.awake_idle_ma)
        capacity = top * spare / TICKS_PER_HOUR
    else:
        capacity = draw(st.one_of(st.none(), st.floats(0.0, 0.05), st.floats(0.0, 5.0),
                                  st.floats(0.0, 1100.0)))
    return profile, state, capacity, cursor, poll, window, stops


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_closed_form_poll_grid_matches_the_per_poll_loop(case):
    profile, state, capacity, cursor, poll, window, stops = case
    reference, polls, _ = per_poll_reference(*case)
    ledger = _grid_ledger(profile, state, capacity, cursor, poll, window)
    for stop in stops:
        ledger.advance(stop)
    # every state's tick total, DEAD included
    assert list(ledger.durations.items()) == list(reference.durations.items())
    assert ledger.battery_remaining_mah == reference.battery_remaining_mah  # same bits
    assert (ledger.dead_at, ledger.cursor, ledger.state) == (
        reference.dead_at, reference.cursor, reference.state)
    assert ledger.polls == polls
    event("battery ran out" if ledger.dead_at is not None else "battery lasted")


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_no_poll_before_the_first_risky_poll_finds_the_battery_empty(case):
    profile, state, capacity, cursor, poll, window, stops = case
    _, _, death_poll = per_poll_reference(profile, state, capacity, cursor, poll, window,
                                          stops[-1:])
    ledger = _grid_ledger(profile, state, capacity, cursor, poll, window)
    risky = ledger.first_risky_poll()
    event("no risky poll" if risky is None else
          f"risky poll before the stop: {risky < stops[-1]}")
    if death_poll is not None:
        assert risky is not None and risky <= death_poll
    assert risky is None or (risky >= ledger.next_poll and (risky - ledger.next_poll) % poll == 0)
    # the bound books nothing
    assert set(ledger.durations.values()) == {0} and ledger.cursor == cursor


@pytest.mark.parametrize("capacity, inside", [
    (0.165, True),    # runs out in the window of the 28 s poll
    (0.160, False),   # runs out asleep, between two windows
])
def test_death_inside_and_between_poll_windows(capacity, inside):
    case = (PROFILE, PowerState.SLEEPING, capacity, 0, 28 * S, 2 * S, [90 * S, 300 * S])
    reference, polls, death_poll = per_poll_reference(*case)
    ledger = _grid_ledger(*case[:-1])
    assert ledger.first_risky_poll() <= 300 * S
    for stop in case[-1]:
        ledger.advance(stop)
    assert ledger.dead_at == reference.dead_at
    assert list(ledger.durations.items()) == list(reference.durations.items())
    assert ledger.battery_remaining_mah == reference.battery_remaining_mah == 0.0
    assert ledger.polls == polls
    in_window = ledger.dead_at % (28 * S) < 2 * S
    assert in_window is inside
    assert death_poll == (ledger.dead_at // (28 * S) + (0 if inside else 1)) * 28 * S


def test_poll_books_the_grid_tick_itself():
    ledger = _grid_ledger(PROFILE, PowerState.SLEEPING, 1100.0, 0, 10 * S, S)
    assert ledger.poll(20 * S)
    assert ledger.polls == 2 and ledger.next_poll == 30 * S
    assert ledger.cursor == 21 * S
    assert ledger.durations[PowerState.AWAKE_IDLE] == 2 * S
    assert not ledger.poll(25 * S)  # not a grid tick: just an advance
    assert ledger.polls == 2 and ledger.cursor == 25 * S


@pytest.fixture
def stepped_polls(monkeypatch):
    """Counts the grid polls booked one at a time, not in closed form."""
    steps = []
    step = PowerLedger._poll_step

    def counted(ledger, tick):
        steps.append(tick)
        return step(ledger, tick)

    monkeypatch.setattr(PowerLedger, "_poll_step", counted)
    return steps


def test_a_shipped_day_books_its_polls_in_closed_form(three_node_config, stepped_polls):
    sim = Simulation(three_node_config)
    sim.run_until(86400.0)
    assert sum(runtime.ledger.polls for runtime in sim.runtimes.values()) == 3085
    assert len(stepped_polls) <= 49


def test_an_advance_past_the_death_steps_only_the_polls_near_it(stepped_polls):
    """One advance takes a 110 Ah ledger 3 years, past its death after about
    217 days: each closed-form add books the polls before the first risky
    poll, so only the polls near the death are stepped."""
    ledger = _grid_ledger(PROFILE, PowerState.SLEEPING, 110_000.0, 0, 28 * S, S // 10)
    ledger.advance(3 * 365 * 86400 * S)
    # as per_poll_reference books them, one at a time (about 3 s)
    assert (ledger.polls, ledger.dead_at) == (664_797, 18_614_333_583_412)
    assert len(stepped_polls) <= 16


def test_one_advance_past_the_death_books_what_stepping_every_poll_books(monkeypatch):
    """A 110 Ah ledger advanced 3 years in one call books, to the bit, what
    the same ledger books polled at every grid tick (about 667,000 polls,
    some 3 s). The bound is asked once per state: after each closed-form
    add of the polls before the first risky poll, or each stepped poll.
    Each add spends about 30% of the charge left (the bound lets every tick
    draw the awake current, the device mostly sleeps at 21.10 mA), so the
    one call asks it a few dozen times."""
    settings = (PROFILE, PowerState.SLEEPING, 110_000.0, 0, 28 * S, S // 20)
    end = 3 * 365 * 86400 * S
    stepped = _grid_ledger(*settings)
    tick = stepped.next_poll
    while tick < end and stepped.poll(tick):
        tick += 28 * S
    stepped.advance(end)

    asked = []
    first_risky_poll = PowerLedger.first_risky_poll
    monkeypatch.setattr(PowerLedger, "first_risky_poll",
                        lambda ledger: asked.append(ledger.cursor) or first_risky_poll(ledger))
    ledger = _grid_ledger(*settings)
    ledger.advance(end)

    assert stepped.dead_at is not None
    assert list(ledger.durations.items()) == list(stepped.durations.items())
    assert ledger.battery_remaining_mah.hex() == stepped.battery_remaining_mah.hex()
    assert (ledger.dead_at, ledger.polls) == (stepped.dead_at, stepped.polls)
    assert len(asked) <= 64


def test_poll_window_must_fit_in_the_period():
    with pytest.raises(ValueError, match="poll window"):
        _grid_ledger(PROFILE, PowerState.SLEEPING, 1100.0, 0, 10, 10)


# ---------------------------------------------------------------------------
# first_risky_poll on shifted poll windows
# ---------------------------------------------------------------------------

def _ledger_state(ledger):
    return (list(ledger.durations.items()), ledger.cursor, ledger.next_poll, ledger.state,
            ledger.battery_remaining_mah, ledger.dead_at, ledger.polls)


def _trial_death_poll(ledger, until):
    """Grid tick of the poll, up to `until`, that finds the battery empty,
    or None: book a copy of the ledger up to `until` and look. A closed-form
    add does not look for a death, so a copy that booked past one in an add
    is left with a charge below zero."""
    trial = copy.copy(ledger)
    trial.durations = dict(ledger.durations)
    trial.book_polls(until + 1)
    assert trial.battery_remaining_mah is None or trial.battery_remaining_mah >= 0
    return None if trial.dead_at is None else trial.next_poll - ledger.poll_ticks


@st.composite
def shifted_ledgers(draw):
    """A live grid ledger whose cursor slices pushed past one or more grid
    polls, and a tick `until`: on or off the grid, before or after the
    cursor, or near where the shifted windows end. Some batteries
    are sized to run out a little after that tick, where the bound is
    tightest."""
    poll = draw(st.one_of(st.integers(2, 40), st.sampled_from([333_333, 28 * S])))
    window = draw(st.one_of(st.just(poll - 1), st.integers(max(0, poll - 3), poll - 1),
                            st.integers(0, poll - 1)))
    currents = draw(st.lists(st.one_of(st.sampled_from([0.0, 21.10, 69.80]),
                                       st.floats(0.0, 150.0)),
                             min_size=3, max_size=3))  # in any order, some equal
    # Tight cases, where the bound matters most: windows draw the base
    # current, and the battery runs out a little after `until`.
    tight = draw(st.booleans())
    if tight:
        currents[1] = currents[0]
    profile = ConsumptionProfile(*currents)
    state = draw(st.one_of(st.just(PowerState.SLEEPING), st.sampled_from(
        [PowerState.SLEEPING, PowerState.AWAKE_IDLE, PowerState.TRANSMITTING])))
    start = draw(st.integers(0, 3 * poll))
    slices = draw(st.lists(st.tuples(st.integers(0, 2 * poll), st.integers(1, 6 * poll)),
                           min_size=1, max_size=3))

    def replay(capacity):
        ledger = _grid_ledger(profile, state, capacity, start, poll, window)
        for gap, duration in slices:
            ledger.charge_slice(PowerState.TRANSMITTING, duration, ledger.cursor + gap)
        return ledger

    probe = replay(None)
    cursor, consumed = probe.cursor, probe.consumed_mah
    assume(probe.next_poll < cursor)
    # book the shifted polls one by one, to see where their windows end
    while probe.next_poll < min(probe.cursor, cursor + 20 * poll):
        probe.book_polls(probe.next_poll + 1)
    until = max(0, draw(st.one_of(st.integers(cursor - 3 * poll, cursor + 8 * poll),
                                  st.integers(probe.cursor - poll, probe.cursor + 3 * poll))))
    if draw(st.booleans()):
        until = until // poll * poll  # a grid tick
    if tight:
        ahead = max(0, until - cursor)
        spare = draw(st.one_of(  # ticks the battery lasts after the cursor
            st.integers(0, ahead + 8 * poll),
            st.integers(ahead, max(ahead, probe.cursor - cursor) + window)))
        top = max(profile.currents[state], profile.awake_idle_ma)
        capacity = consumed + top * spare / TICKS_PER_HOUR
    else:
        capacity = draw(st.one_of(st.none(), st.floats(0.0, 1e-6), st.floats(0.0, 5.0)))
    ledger = replay(capacity)
    assume(ledger.dead_at is None)
    return ledger, until


@settings(max_examples=300, deadline=None)
@given(shifted_ledgers())
def test_no_poll_before_the_first_risky_poll_on_shifted_windows_finds_a_death(case):
    ledger, until = case
    before = _ledger_state(ledger)
    risky = ledger.first_risky_poll()
    event("no risky poll" if risky is None else
          f"risky poll is the next poll: {risky == ledger.next_poll}")
    assert _ledger_state(ledger) == before  # the bound books nothing
    assert _trial_death_poll(ledger, until if risky is None else risky - 1) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 60), st.data())
def test_the_first_risky_poll_sees_a_death_in_the_window_after_until(poll, data):
    """Once the shifting has ended, the poll at a grid tick `until` books its
    window past `until`; a battery that runs out inside that window is found
    by that poll. Windows draw the base current, so the bound is tight."""
    window = data.draw(st.integers(6, poll - 1))
    current = data.draw(st.floats(1.0, 150.0))
    profile = ConsumptionProfile(current, current, data.draw(st.floats(0.0, 150.0)))
    slice_at = data.draw(st.integers(0, 2 * poll))
    slice_ticks = data.draw(st.integers(1, 6 * poll))

    def sliced(capacity):
        ledger = _grid_ledger(profile, PowerState.SLEEPING, capacity, 0, poll, window)
        ledger.charge_slice(PowerState.TRANSMITTING, slice_ticks, slice_at)
        return ledger

    mains = sliced(None)
    cursor, consumed = mains.cursor, mains.consumed_mah
    assume(mains.next_poll < cursor)
    while mains.next_poll < mains.cursor:  # book the shifted polls
        mains.book_polls(mains.next_poll + 1)
    until = (mains.cursor // poll + data.draw(st.integers(1, 4))) * poll
    spare = until - cursor + data.draw(st.integers(5, window - 1))  # ticks the battery lasts
    ledger = sliced(consumed + current * spare / TICKS_PER_HOUR)
    assert ledger.dead_at is None
    assert _trial_death_poll(ledger, until) == until
    assert ledger.first_risky_poll() <= until


def test_a_dead_ledger_may_run_out():
    ledger = _grid_ledger(PROFILE, PowerState.SLEEPING, 0.01, 0, 10 * S, S)
    ledger.advance(3600 * S)
    assert ledger.dead_at is not None
    assert ledger.first_risky_poll() == ledger.next_poll


def test_no_poll_is_risky_without_a_grid_a_draw_or_a_finite_reach():
    def risky(profile, capacity):
        return _grid_ledger(profile, PowerState.SLEEPING, capacity, 0, 10 * S,
                            S).first_risky_poll()

    assert risky(PROFILE, None) is None  # mains
    assert risky(ConsumptionProfile(0.0, 0.0, 0.0), 1.0) is None
    assert PowerLedger(profile=PROFILE, state=PowerState.SLEEPING,
                       battery_capacity_mah=1.0).first_risky_poll() is None  # no grid
    # a reach past the largest float, and one so large that reach - 3 == reach
    assert risky(PROFILE, 1e306) is None
    huge = _grid_ledger(PROFILE, PowerState.SLEEPING, 2e14, 0, 28 * S, S)
    assert huge.first_risky_poll() > 10 ** 22
    huge.advance(365 * 86400 * S)
    assert huge.polls == 365 * 86400 // 28 and huge.dead_at is None


def test_a_shipped_day_has_no_real_poll(three_node_config):
    """The bound keeps healthy devices free of real polls: nothing waits
    for a sleeping device, and no battery comes near empty in a day."""
    sim = Simulation(three_node_config, trace=True)
    sim.run_until(86400.0)
    assert sim.stats()["rounds"]["2"]["completed"] == 48
    assert [line for line in sim.trace_lines if line.split("\t")[2] == "poll_wake"] == []


# ---------------------------------------------------------------------------
# Span booking against the helper-based reference
# ---------------------------------------------------------------------------

class ReferenceLedger(PowerLedger):
    """The ledger with spans booked through its helpers, as before the hot
    path was written out: advance, set_state, charge_slice and _integrate go
    through is_dead, consumed_mah and _book. The poll grid (book_polls,
    _poll_step and the first_risky_poll bound that sizes book_polls'
    closed-form runs) is shared, and books through these."""

    @property
    def is_dead(self):
        return self.dead_at is not None

    def advance(self, now):
        if self.next_poll is not None and self.next_poll < now:
            self.book_polls(now)
        self._integrate(now)

    def set_state(self, state, now):
        self.advance(now)
        if not self.is_dead:
            self.state = state

    def charge_slice(self, state, duration, now):
        self.advance(now)
        base = self.state
        if not self.is_dead:
            self.state = state
        self._integrate(self.cursor + duration)
        if not self.is_dead:
            self.state = base

    def _integrate(self, now):
        if now <= self.cursor:
            return
        span = now - self.cursor
        current = self._current[self.state]
        if self.battery_remaining_mah is not None and current > 0:
            demand = current * span / TICKS_PER_HOUR
            if demand >= self.battery_remaining_mah:
                live = math.floor(self.battery_remaining_mah * TICKS_PER_HOUR / current)
                live = min(live, span)
                self._book(self.state, live)
                self.battery_remaining_mah = 0.0
                self.dead_at = self.cursor + live
                self._book(PowerState.DEAD, span - live)
                self.state = PowerState.DEAD
                self.cursor = now
                return
            self._book(self.state, span)
            self.cursor = now
            self.battery_remaining_mah = self._initial_remaining_mah - self.consumed_mah
            return
        self._book(self.state, span)
        self.cursor = now

    def _book(self, state, span):
        if span > 0:
            self.durations[state] = self.durations.get(state, 0) + span


@st.composite
def ledger_scripts(draw):
    """A ledger's settings and a script of calls at non-decreasing clock
    ticks: advance, set_state, charge_slice (whose start may fall before the
    cursor) and poll, on or off the grid."""
    poll = draw(st.one_of(st.just(0), st.integers(2, 50), st.sampled_from([28 * S])))
    window = draw(st.integers(0, poll - 1)) if poll else 0
    currents = draw(st.lists(st.one_of(st.sampled_from([0.0, 21.10, 69.80, 109.80]),
                                       st.floats(0.0, 150.0)), min_size=3, max_size=3))
    profile = ConsumptionProfile(*currents)
    state = draw(st.sampled_from(LIVE_STATES))
    scale = poll or draw(st.sampled_from([7, S]))
    calls, now = [], draw(st.integers(0, 3 * scale))
    for _ in range(draw(st.integers(1, 25))):
        now += draw(st.integers(0, 4 * scale))
        op = draw(st.sampled_from(["advance", "set_state", "charge_slice", "poll"]))
        if op == "poll" and poll and draw(st.booleans()):
            now = -(-now // poll) * poll  # a grid tick
        if op == "set_state":
            calls.append((op, draw(st.sampled_from(LIVE_STATES)), now))
        elif op == "charge_slice":
            calls.append((op, draw(st.sampled_from(LIVE_STATES)),
                          draw(st.integers(1, 3 * scale)), now))
        else:
            calls.append((op, now))
    return profile, state, poll, window, calls


def _run_script(cls, profile, state, capacity, poll, window, calls):
    """Replay the calls; returns the ledger, poll()'s answers and the kind of
    call during which the battery ran out (None if it did not)."""
    ledger = cls(profile=profile, state=state, battery_capacity_mah=capacity,
                 poll_ticks=poll, poll_window=window)
    answers, died_in = [], None
    for op, *args in calls:
        result = getattr(ledger, op)(*args)
        if op == "poll":
            answers.append(result)
        if died_in is None and ledger.dead_at is not None:
            died_in = op
    return ledger, answers, died_in


def _compare_with_reference(profile, state, capacity, poll, window, calls):
    ledger, answers, died_in = _run_script(PowerLedger, profile, state, capacity, poll,
                                           window, calls)
    reference, expected, _ = _run_script(ReferenceLedger, profile, state, capacity, poll,
                                         window, calls)
    # every state's tick total, DEAD included
    assert list(ledger.durations.items()) == list(reference.durations.items())
    assert ledger.battery_remaining_mah == reference.battery_remaining_mah  # same bits
    assert (ledger.dead_at, ledger.cursor, ledger.state, ledger.next_poll, ledger.polls) == (
        reference.dead_at, reference.cursor, reference.state, reference.next_poll,
        reference.polls)
    assert answers == expected
    return ledger, died_in


@settings(max_examples=400, deadline=None)
@given(ledger_scripts(), st.data())
def test_span_booking_matches_the_helper_based_reference(script, data):
    profile, state, poll, window, calls = script
    # Size some batteries from what the script draws, so they run out at
    # any point of it: in a slice, at an advance or in a poll window.
    drawn = _run_script(ReferenceLedger, profile, state, None, poll, window,
                        calls)[0].consumed_mah
    capacity = data.draw(st.one_of(st.none(), st.floats(0.0, 5.0),
                                   st.floats(0.0, 1.2).map(lambda share: share * drawn)))
    _, died_in = _compare_with_reference(profile, state, capacity, poll, window, calls)
    event(f"battery ran out in {died_in}" if died_in else "battery lasted")


@pytest.mark.parametrize("calls, capacity, poll, window, died_in", [
    # 2 mAh: 0.879 mAh is drawn asleep by 150 s, the rest 36.8 s into the slice
    ([("advance", 100 * S), ("charge_slice", PowerState.TRANSMITTING, 200 * S, 150 * S)],
     2.0, 0, 0, "charge_slice"),
    # asleep, 2 mAh lasts 341.2 s
    ([("advance", 100 * S), ("advance", 400 * S), ("advance", 500 * S)],
     2.0, 0, 0, "advance"),
    # on a 28 s grid with 2 s windows, 2.0758 mAh is drawn by 308 s and
    # 2.1146 mAh by the end of that poll's window
    ([("poll", 280 * S), ("poll", 308 * S), ("advance", 400 * S)],
     2.095, 28 * S, 2 * S, "poll"),
])
def test_span_booking_matches_the_reference_at_each_kind_of_death(calls, capacity, poll,
                                                                    window, died_in):
    ledger, seen = _compare_with_reference(PROFILE, PowerState.SLEEPING, capacity, poll,
                                           window, calls)
    assert seen == died_in
    assert ledger.battery_remaining_mah == 0.0
    if died_in == "charge_slice":
        assert 150 * S < ledger.dead_at < 350 * S
    if died_in == "poll":
        assert 308 * S < ledger.dead_at < 310 * S  # inside the window
