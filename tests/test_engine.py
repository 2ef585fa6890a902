import math
import random

import pytest
from hypothesis import given, strategies as st

from wsn_pathosim.engine import (EventKind, EventQueue, RngStream,
                                 SchedulingInPastError, Timer, derive_seed,
                                 seconds_from_ticks, ticks_from_seconds)


def test_ticks_round_trip_whole_microseconds():
    assert ticks_from_seconds(1) == 1_000_000
    assert ticks_from_seconds(0.000001) == 1
    assert ticks_from_seconds(28.0) == 28_000_000
    assert seconds_from_ticks(1_792_000_000) == 1792.0


def test_ticks_rounds_to_nearest_microsecond():
    assert ticks_from_seconds(1e-7) == 0
    assert ticks_from_seconds(9e-7) == 1


def test_queue_orders_by_time():
    q = EventQueue()
    q.schedule(300, EventKind.TIMER_FIRED, 1)
    q.schedule(100, EventKind.POLL_WAKE, 2)
    q.schedule(200, EventKind.TIMEOUT, 3)
    order = []
    while (ev := q.pop_due(1000)) is not None:
        order.append(ev.at)
    assert order == [100, 200, 300]


def test_queue_ties_break_by_insertion_order():
    q = EventQueue()
    first = q.schedule(50, EventKind.EXTERNAL_WAKE, 1)
    second = q.schedule(50, EventKind.POLL_WAKE, 1)
    assert q.pop_due(50) is first
    assert q.pop_due(50) is second


def test_an_event_scheduled_while_a_tick_polls_runs_before_the_polls_left():
    q = EventQueue()
    polls = [q.schedule(50, EventKind.POLL_WAKE, node, rank=node) for node in (2, 0, 1)]
    assert q.pop_due(50) is polls[1]
    zero_delay = q.schedule(50, EventKind.FRAME_DELIVERED, 7)
    assert [q.pop_due(50) for _ in range(3)] == [zero_delay, polls[2], polls[0]]


def test_a_negative_rank_is_rejected():
    with pytest.raises(ValueError, match="rank"):
        EventQueue().schedule(5, EventKind.POLL_WAKE, 1, rank=-1)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.one_of(st.none(), st.integers(min_value=0, max_value=4))),
                min_size=1, max_size=40))
def test_each_tick_runs_unranked_events_in_order_then_ranked_ones_by_rank(entries):
    q = EventQueue()
    for at, rank in entries:
        q.schedule(at, EventKind.TIMER_FIRED if rank is None else EventKind.POLL_WAKE,
                   rank=rank)
    popped = []
    while (event := q.pop_next()) is not None:
        popped.append(event)
    assert len(popped) == len(entries)
    ticks = [event.at for event in popped]
    assert ticks == sorted(ticks)
    for tick in set(ticks):
        kinds = [event.kind for event in popped if event.at == tick]
        unranked = [event.seq for event in popped
                    if event.at == tick and event.kind is EventKind.TIMER_FIRED]
        ranks = [(entries[event.seq][1], event.seq) for event in popped
                 if event.at == tick and event.kind is EventKind.POLL_WAKE]
        assert kinds == sorted(kinds, key=lambda kind: kind is EventKind.POLL_WAKE)
        assert unranked == sorted(unranked)
        assert ranks == sorted(ranks)


def test_queue_advances_clock_and_rejects_past():
    q = EventQueue()
    q.schedule(10, EventKind.POLL_WAKE)
    assert q.pop_due(10).at == 10
    assert q.now == 10
    with pytest.raises(SchedulingInPastError):
        q.schedule(9, EventKind.POLL_WAKE)


def test_pop_due_respects_limit():
    q = EventQueue()
    q.schedule(10, EventKind.POLL_WAKE)
    q.schedule(20, EventKind.POLL_WAKE)
    assert q.pop_due(15).at == 10
    assert q.pop_due(15) is None
    assert q.now == 10  # nothing due does not move the clock
    assert q.pop_due(20).at == 20


def test_pop_due_limit_is_inclusive():
    q = EventQueue()
    q.schedule(10, EventKind.POLL_WAKE)
    assert q.pop_due(10) is not None


def test_a_superseded_timer_event_never_pops():
    q = EventQueue()
    guard, session = Timer(), Timer()
    keep = q.schedule(5, EventKind.POLL_WAKE)
    early = q.arm(guard, 3, EventKind.TIMER_FIRED, 1, 3)
    late = q.arm(guard, 4, EventKind.TIMER_FIRED, 1, 4)
    q.arm(session, 2, EventKind.TIMEOUT, 0)
    q.disarm(session)
    assert late is not early and guard.event is late
    assert [q.pop_next() for _ in range(3)] == [late, keep, None]


def test_disarming_twice_or_after_the_event_popped_is_a_no_op():
    q = EventQueue()
    first, second = Timer(), Timer()
    fired = q.arm(first, 1, EventKind.TIMER_FIRED, 1, 1)
    q.arm(second, 2, EventKind.TIMEOUT, 0)
    third = q.schedule(3, EventKind.POLL_WAKE)
    assert q.pop_due(1) is fired and first.event is None
    q.disarm(first)  # the event being handled disarms its own timer
    assert len(q) == 2
    q.disarm(second)
    q.disarm(second)
    q.disarm(first)
    assert len(q) == 1
    assert list(q.pending()) == [third]
    assert q.pop_next() is third
    assert len(q) == 0


def test_pop_next_single_steps_past_any_limit():
    q = EventQueue()
    q.schedule(1_000_000_000, EventKind.EXTERNAL_WAKE, 7)
    ev = q.pop_next()
    assert ev.at == 1_000_000_000
    assert q.now == 1_000_000_000
    assert q.pop_next() is None


def test_len_pending_and_peek_time_skip_superseded_events():
    q = EventQueue()
    guard, poll = Timer(), Timer(rank=0)
    kept = q.schedule(5, EventKind.EXTERNAL_WAKE)
    q.arm(guard, 3, EventKind.TIMER_FIRED, 1, 3)
    rearmed = q.arm(guard, 6, EventKind.TIMER_FIRED, 1, 6)
    q.arm(poll, 4, EventKind.POLL_WAKE, 1)
    q.disarm(poll)
    assert len(q) == 2
    assert sorted(q.pending(), key=lambda event: event.at) == [kept, rearmed]
    assert q.peek_time() == 5


def test_a_timer_rearmed_to_the_event_it_holds_keeps_its_seq():
    q = EventQueue()
    guard = Timer()
    first = q.arm(guard, 50, EventKind.TIMER_FIRED, 1, 50)
    other = q.schedule(50, EventKind.FRAME_DELIVERED, 1)
    assert q.arm(guard, 50, EventKind.TIMER_FIRED, 1, 50) is first
    assert len(q) == 2 and first.seq < other.seq
    assert [q.pop_next(), q.pop_next()] == [first, other]  # its place in the tick kept
    again = q.arm(guard, 50, EventKind.TIMER_FIRED, 1, 50)  # popped: a new event
    assert again is not first and again.seq > other.seq


def test_a_timer_rearmed_at_its_tick_with_another_payload_gets_a_new_event():
    # a session's WARMUP_DONE and TIMEOUT share one timer, so one arm may
    # land on the tick of the other; the new stimulus must be the one handed back
    q = EventQueue()
    session = Timer()
    warmup = q.arm(session, 9, EventKind.WARMUP_DONE, 0, ("round", 1))
    timeout = q.arm(session, 9, EventKind.TIMEOUT, 0, ("round", 1))
    retry = q.arm(session, 9, EventKind.TIMEOUT, 0, ("round", 2))
    assert len({warmup.seq, timeout.seq, retry.seq}) == 3
    assert [q.pop_next(), q.pop_next()] == [retry, None]


def test_a_ranked_timer_runs_among_the_ranked_events_of_its_tick():
    q = EventQueue()
    polls = [Timer(rank=1), Timer(rank=0)]
    late, early = (q.arm(timer, 7, EventKind.POLL_WAKE, node)
                   for node, timer in enumerate(polls))
    plain = q.schedule(7, EventKind.EXTERNAL_WAKE, 2)
    assert [q.pop_next() for _ in range(3)] == [plain, early, late]


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=40))
def test_each_timer_runs_only_its_last_armed_event(ops):
    """Each op (t, p, i) disarms timer i when p is None, schedules a plain
    event at t when i is 0 and p is 4, and else arms timer i at t with
    payload p. What pops is every plain event and each timer's last armed
    event, in (tick, seq) order."""
    q = EventQueue()
    timers = [Timer(), Timer()]
    plain, last = [], {}
    for t, payload, i in ops:
        if payload is None:
            q.disarm(timers[i])
            last.pop(i, None)
        elif i == 0 and payload == 4:
            plain.append(q.schedule(t, EventKind.EXTERNAL_WAKE, 0, payload))
        else:
            last[i] = q.arm(timers[i], t, EventKind.TIMER_FIRED, i, payload)
    expected = sorted(plain + list(last.values()), key=lambda event: (event.at, event.seq))
    assert len(q) == len(expected)
    assert [q.pop_next() for _ in expected] == expected
    assert q.pop_next() is None and len(q) == 0


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(42, "sensor", 3) == derive_seed(42, "sensor", 3)
    assert derive_seed(42, "sensor", 3) != derive_seed(42, "sensor", 4)
    assert derive_seed(42, "sensor", 3) != derive_seed(43, "sensor", 3)
    assert derive_seed(42, "shadowing") != derive_seed(42, "sensor")
    # order of tags matters: ("a", "b") is a different stream from ("b", "a")
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


def test_rng_stream_replays_exactly():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
    assert [a.normal(1.0, 2.0) for _ in range(20)] == [b.normal(1.0, 2.0) for _ in range(20)]


def test_rng_uniform_matches_python_random():
    # the uniform stream is documented-stable CPython Mersenne Twister output
    stream = RngStream(99)
    reference = random.Random(99)
    assert [stream.uniform() for _ in range(5)] == [reference.random() for _ in range(5)]


def test_rng_normal_consumes_two_uniforms():
    a = RngStream(7)
    b = RngStream(7)
    a.normal()
    b.uniform()
    b.uniform()
    assert a.uniform() == b.uniform()


def test_rng_normal_moments_are_sane():
    stream = RngStream(2024)
    draws = [stream.normal(5.0, 3.0) for _ in range(20_000)]
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean - 5.0) < 0.1
    assert abs(math.sqrt(var) - 3.0) < 0.1


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_queue_pops_in_nondecreasing_time_order(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, EventKind.POLL_WAKE)
    popped = []
    while (ev := q.pop_due(10_000)) is not None:
        popped.append(ev.at)
    assert popped == sorted(times)
    assert len(q) == 0
