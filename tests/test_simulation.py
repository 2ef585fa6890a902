import dataclasses
import logging
from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import make_config, random_scenario_doc, two_node_doc
from test_golden import CASES, aligned_doc, digests, drain_doc, run_case
from wsn_pathosim import simulation
from wsn_pathosim.engine import EventKind, derive_seed, seconds_from_ticks, ticks_from_seconds
from wsn_pathosim.model import UnknownNodeError, parse_scenario, serialize_scenario
from wsn_pathosim.power import wake_timeline
from wsn_pathosim.protocol import route_path
from wsn_pathosim.report import report_json, samples_csv
from wsn_pathosim.simulation import InvalidScenarioError, Simulation


def test_two_hour_run_on_the_corridor_scenario(three_node_config):
    sim = Simulation(three_node_config)
    sim.run_until(7200.0)
    stats = sim.stats()
    # effective period is 1792 s (64 polls), so wakes land at 1792..7168
    assert stats["rounds"]["2"] == {"completed": 4, "aborted": 0, "lost": 0}
    assert stats["samples_per_node"] == {"2": 4}
    # each round: AWAKE, SAMPLE_REQ, SAMPLE_RESP, SLEEP_REQ, ACK
    frames = stats["frames"]
    assert frames["sent"] == 20
    assert frames["delivered"] == 20
    assert frames["dropped_by_reason"] == {}
    assert frames["buffered_pending"] == 0
    assert stats["channel"] == 15
    assert stats["unreachable"] == []
    assert stats["errors_seen"] == {}
    assert stats["clock_s"] == 7200.0


def test_sample_records_carry_context(three_node_config):
    sim = Simulation(three_node_config)
    sim.run_until(3600.0)
    assert len(sim.records) == 2
    first = sim.records[0]
    assert first.node == 2
    assert first.sampled_at <= first.received_at
    assert first.sampled_at >= ticks_from_seconds(1792.0)
    # sinusoid around 21 degrees with 0.2 noise stays well inside this band
    assert 15.0 < first.value < 27.0


def test_state_durations_account_for_the_whole_clock(three_node_config):
    sim = Simulation(three_node_config)
    sim.run_until(7200.0)
    for node_id, energy in sim.stats()["power"].items():
        assert sum(energy["state_durations_s"].values()) == pytest.approx(7200.0, abs=1e-6)
        if "battery_capacity_mah" in energy:
            drained = energy["battery_capacity_mah"] - energy["remaining_mah"]
            assert drained == pytest.approx(energy["consumed_mah"], abs=1e-9)


def test_runs_are_bitwise_deterministic(three_node_config):
    outputs = []
    for _ in range(2):
        sim = Simulation(three_node_config, trace=True)
        sim.run_until(7200.0)
        outputs.append((report_json(sim), samples_csv(sim), sim.trace_text()))
    assert outputs[0] == outputs[1]


def test_seed_changes_the_sampled_values(three_node_config):
    values = []
    for seed in (42, 43):
        sim = Simulation(dataclasses.replace(three_node_config, seed=seed))
        sim.run_until(7200.0)
        values.append([record.value for record in sim.records])
    assert len(values[0]) == len(values[1]) == 4
    assert values[0] != values[1]


def test_run_until_can_be_resumed(three_node_config):
    straight = Simulation(three_node_config, trace=True)
    straight.run_until(7200.0)
    # 1792 s is an external wake (64 polls of 28 s) and 5040 s a plain poll
    # tick, so the horizon books the polls of a tick that has events
    for stages in ((1800.0, 5000.0), (1792.0, 5040.0)):
        staged = Simulation(three_node_config, trace=True)
        for horizon in stages:
            staged.run_until(horizon)
        staged.run_until(7200.0)
        assert staged.stats() == straight.stats(), stages
        assert staged.trace_text() == straight.trace_text(), stages
    with pytest.raises(ValueError):
        staged.run_until(100.0)


@pytest.mark.parametrize("block_lines", [1, 7, simulation.TRACE_BLOCK_LINES])
def test_trace_read_between_stages_matches_a_straight_run(three_node_config, monkeypatch,
                                                         block_lines):
    monkeypatch.setattr(simulation, "TRACE_BLOCK_LINES", block_lines)
    straight = Simulation(three_node_config, trace=True)
    straight.run_until(86400.0)
    staged = Simulation(three_node_config, trace=True)
    texts = []
    for horizon in (1792.0, 1800.0, 5040.0, 40000.0, 86400.0):
        staged.run_until(horizon)
        texts.append(staged.trace_text())
    assert texts[-1] == straight.trace_text()
    assert all(texts[-1].startswith(text) for text in texts)
    assert staged.trace_text() == texts[-1]
    assert staged.trace_lines == texts[-1].splitlines()
    assert len(staged.trace_lines) > 10 * 7  # many blocks at the small sizes


def test_an_untraced_run_keeps_no_trace(three_node_config):
    sim = Simulation(three_node_config)
    sim.run_until(7200.0)
    assert sim.trace_text() == ""
    assert sim.trace_lines == []


@pytest.mark.parametrize("horizon", [float("inf"), float("-inf"), float("nan")])
def test_run_until_rejects_a_horizon_that_is_not_finite(three_node_config, horizon):
    sim = Simulation(three_node_config)
    sim.run_until(100.0)
    with pytest.raises(ValueError, match="horizon must be a finite number of seconds"):
        sim.run_until(horizon)
    assert sim.now == ticks_from_seconds(100.0)
    sim.run_until(7200.0)
    straight = Simulation(three_node_config)
    straight.run_until(7200.0)
    assert sim.stats() == straight.stats()


def test_run_until_rejects_a_horizon_past_the_last_finite_tick(three_node_config):
    sim = Simulation(three_node_config)
    sim.run_until(100.0)
    with pytest.raises(ValueError, match="finite number of 1 us ticks, got 1e\\+303 s"):
        sim.run_until(1e303)
    assert sim.now == ticks_from_seconds(100.0)


def test_end_device_without_sensors_ends_its_rounds_with_no_sensor():
    doc = two_node_doc()
    doc["nodes"][1]["sensors"] = []
    sim = Simulation(make_config(doc))
    sim.run_until(600.0)
    stats = sim.stats()
    assert stats["rounds"]["1"]["completed"] == 0
    assert stats["rounds"]["1"]["aborted"] > 0
    assert stats["errors_seen"]["no_sensor"] > 0
    assert stats["samples_per_node"] == {}


@pytest.mark.parametrize("seed", range(10))
def test_a_device_builds_its_sensor_stream_at_its_first_step(seed):
    doc, _ = random_scenario_doc(seed)
    sim = Simulation(make_config(doc))
    devices = [runtime for runtime in sim.runtimes.values() if runtime.is_end_device]
    first_wake = min(runtime.sleep.period_ticks for runtime in devices)
    sim.run_until(seconds_from_ticks(first_wake - 1))
    assert all(runtime.sensor_rng is None for runtime in sim.runtimes.values())
    # past every device's first wake, each has run a round
    sim.run_until(seconds_from_ticks(max(runtime.sleep.period_ticks for runtime in devices)))
    for runtime in sim.runtimes.values():
        if runtime.is_end_device:
            assert runtime.sensor_rng.seed == derive_seed(sim.config.seed, "sensor",
                                                          runtime.spec.id)
        else:
            assert runtime.sensor_rng is None


@pytest.mark.parametrize("case", [f"random/{seed}" for seed in range(8)]
                         + ["drain/0.3", "aligned/0"])
def test_a_timer_is_built_at_its_first_arm(case):
    sim = run_case(case)
    fresh = Simulation(sim.config)
    # batteries that last past the first wake plan no real poll, and no
    # device has woken yet, so none holds a timer
    if case.startswith("random"):
        assert all(runtime.real_poll is None and runtime.guard is None
                   for runtime in fresh.runtimes.values())
    assert fresh._timers == {}
    for node, runtime in sim.runtimes.items():
        if not runtime.is_end_device:
            assert runtime.real_poll is None and runtime.guard is None
            continue
        # every device has woken, and an awake device arms its guard
        assert runtime.guard is not None and runtime.guard.rank is None
        if runtime.real_poll is not None:
            assert runtime.real_poll.rank == runtime.poll_rank
        session = sim.sessions[node]
        if session.rounds_completed or session.rounds_aborted:
            assert node in sim._timers
    assert set(sim._timers) <= set(sim.sessions)
    if case.startswith("drain"):  # dying devices make real polls
        assert any(runtime.real_poll is not None for runtime in sim.runtimes.values())


@pytest.mark.parametrize("case", ["shipped/three_node_building", "random/9", "random/13",
                                  "aligned/0", "drain/0.3"])
def test_samples_per_node_counts_the_records_in_node_order(case):
    sim = run_case(case)
    counts = sim.stats()["samples_per_node"]
    assert list(counts.items()) == [
        (str(node), count)
        for node, count in sorted(Counter(record.node for record in sim.records).items())]
    assert sum(counts.values()) == len(sim.records) > 0
    counts.clear()  # a snapshot: the next one still counts every record
    assert sum(sim.stats()["samples_per_node"].values()) == len(sim.records)


def test_stepping_visits_the_same_events_as_run_until():
    # random/13 and aligned/0 supersede the most timers of the random and
    # aligned golden cases; drain/0.3 also disarms dying devices' real polls
    for case in ("shipped/three_node_building", "aligned/0", "random/13", "drain/0.3"):
        reference, stepped = run_case(case), run_case(case, SteppedSimulation)
        assert stepped.trace_text() == reference.trace_text(), case
        assert stepped.records == reference.records, case
        assert report_json(stepped) == report_json(reference), case


def test_unrouteable_device_loses_every_round(router_off_config):
    sim = Simulation(router_off_config)
    sim.run_until(7300.0)
    stats = sim.stats()
    assert stats["unreachable"] == [2]
    assert stats["samples_per_node"] == {}
    assert stats["rounds"]["2"]["lost"] == 4
    assert stats["frames"]["delivered"] == 0
    assert stats["frames"]["dropped_by_reason"] == {"no_route": 4}


def test_depleted_battery_silences_the_node():
    doc = two_node_doc(battery_mah=0.01)  # dies 1.7 s in, before the first poll
    sim = Simulation(make_config(doc), trace=True)
    sim.run_until(600.0)
    stats = sim.stats()
    energy = stats["power"]["1"]
    # exact crossing: remaining_mah * ticks_per_hour / sleep current
    assert energy["dead_at_s"] == pytest.approx(0.01 * 3600.0 / 21.10, abs=1e-6)
    assert energy["remaining_mah"] == 0.0
    assert stats["frames"]["sent"] == 0
    assert stats["rounds"]["1"] == {"completed": 0, "aborted": 0, "lost": 0}
    dead_at_ticks = ticks_from_seconds(energy["dead_at_s"])
    for line in sim.trace_lines:
        at, seq, kind, node = line.split("\t")[:4]
        if node == "1" and seq != "-":
            assert int(at) <= dead_at_ticks, line


def test_frames_buffered_for_a_dead_node_are_purged():
    doc = two_node_doc(battery_mah=0.1)  # dies ~17 s in, before the 28 s poll
    sim = Simulation(make_config(doc))
    sim.inject_set_period(1, 900)
    sim.run_until(60.0)
    frames = sim.stats()["frames"]
    assert frames["sent"] == 1
    assert frames["delivered"] == 0
    assert frames["dropped_by_reason"] == {"node_dead": 1}
    assert frames["buffered_pending"] == 0


@pytest.mark.parametrize("battery_mah, poll_s, period_s, dead_at", [
    (0.1, 1e-6, 3600.0, 17_061_611),
    (1100.0, 1e-6, 400_000.0, 187_677_725_118),
    (1100.0, 28.0, 400_000.0, 187_677_725_118),
])
def test_a_dying_device_makes_a_few_polls_events_not_every_poll(battery_mah, poll_s,
                                                                 period_s, dead_at):
    """A device dies long before its first sample (no poll window, so the
    sleeping current alone drains it). Its real polls start at the first
    poll the death bound cannot clear, so the run takes a few hundred events
    at most, where making every poll from then on an event took 6,702 on
    the 28 s grid and some 1.9e11 on the 1 us one. Each event is stepped, at
    most 1,001 of them, so such a regression fails here instead of hanging."""
    sim = Simulation(make_config(two_node_doc(
        battery_mah=battery_mah, poll_period_s=poll_s, sample_period_s=period_s,
        defaults={"poll_wake_duration_s": 0})))
    steps = 0
    while steps <= 1000 and sim.step() is not None:
        steps += 1
    assert sim.events_processed <= 1000
    assert len(sim.queue) == 0  # nothing left to run after the death
    assert sim.runtimes[1].ledger.dead_at == dead_at


def test_a_full_parent_buffer_drops_its_oldest_frame_without_a_warning(caplog):
    """A drop is counted and traced, and logs nothing at any level."""
    with caplog.at_level(logging.DEBUG):
        sim = run_case("aligned/5")
    assert caplog.records == []
    assert sim.frames_dropped["buffer_full"] == 34


def test_buffered_command_is_delivered_at_the_next_poll():
    sim = Simulation(make_config(two_node_doc(sample_period_s=560)))
    sim.inject_set_period(1, 280)
    sim.run_until(20.0)
    assert sim.stats()["frames"]["buffered_pending"] == 1  # parked until the device polls
    sim.run_until(600.0)
    stats = sim.stats()
    assert stats["frames"]["buffered_pending"] == 0
    assert stats["cyclic_sleep"]["1"]["requested_period_s"] == 280.0
    assert stats["cyclic_sleep"]["1"]["effective_period_s"] == 280.0


def test_a_poll_delivers_a_frame_buffered_earlier_in_its_tick():
    # device 2 wakes at 280 s, a poll tick of device 1 too; a command sent
    # while that tick runs is buffered for the sleeping device 1, and its
    # poll at 280 s runs after every other event of the tick
    doc = two_node_doc(sample_period_s=560)
    doc["nodes"].append({**doc["nodes"][1], "id": 2, "sample_period_s": 280.0})
    sim = Simulation(make_config(doc), trace=True)
    wake = ticks_from_seconds(280.0)
    while (event := sim.step()).kind is not EventKind.EXTERNAL_WAKE:
        pass
    assert (event.at, event.node) == (wake, 2)
    sim.inject_set_period(1, 280)
    sim.run_until(400.0)
    lines = [line.split("\t") for line in sim.trace_lines]
    buffered = [int(at) for at, _, kind, node, _ in lines if (kind, node) == ("buffer", "1")]
    delivered = [int(at) for at, _, kind, node, _ in lines if (kind, node) == ("deliver", "1")]
    assert buffered == delivered == [wake]
    assert [(kind, node) for at, _, kind, node, _ in lines if at == str(wake)] == [
        ("external_wake", "2"), ("send", "2"), ("command_injected", "0"), ("send", "0"),
        ("buffer", "1"), ("poll_wake", "1"), ("deliver", "1"), ("send", "1")]


def test_timers_fire_their_configured_delay_after_they_are_armed():
    # Warm-up, response timeout and the guard (their sum) are each rounded to
    # ticks once: the guard is 1,634,568 ticks, one more than the sum of the
    # rounded warm-up (400,000) and timeout (1,234,567).
    # Only timers that still act are dispatched, so each kind needs a round
    # where it does: device 1's gauge heats for 1 s, longer than the warm-up,
    # so its first SAMPLE_REQ fails and the response timeout retries; device 2
    # is out of range, so no frame reaches it and its guard ends each round.
    gauge = {"kind": "strain_gauge", "heat_duration_s": 1.0,
             "signal": {"shape": "constant", "level": 5.0}}
    doc = two_node_doc(sensor=gauge, sample_period_s=56.0,
                       defaults={"warmup_delay_s": 0.4000004, "response_timeout_s": 1.2345674})
    doc["nodes"].append(dict(doc["nodes"][1], id=2, position={"x": 300.0, "y": 0.0}))
    sim = Simulation(make_config(doc), trace=True)
    sim.run_until(600.0)
    assert sim.stats()["unreachable"] == [2]
    warmup, timeout = ticks_from_seconds(0.4000004), ticks_from_seconds(1.2345674)
    guard = ticks_from_seconds(0.4000004 + 1.2345674)
    assert (warmup, timeout, guard) == (400_000, 1_234_567, 1_634_568)
    lines = [line.split("\t") for line in sim.trace_lines]
    sends = {(int(at), detail.split()[0]) for at, _, kind, _, detail in lines if kind == "send"}
    stimuli = {(int(at), node) for at, _, kind, node, _ in lines
               if kind in ("external_wake", "frame_delivered")}
    fired = {kind: [(int(at), node) for at, _, k, node, _ in lines if k == kind]
             for kind in ("warmup_done", "timeout", "timer_fired")}
    assert all(fired.values())
    assert all((at - warmup, "HEAT_GAUGE_REQ") in sends for at, _ in fired["warmup_done"])
    assert all((at - timeout, "SAMPLE_REQ") in sends for at, _ in fired["timeout"])
    assert all((at - guard, node) in stimuli for at, node in fired["timer_fired"])


def test_frame_conservation_on_canned_and_random_scenarios(three_node_config):
    configs = [three_node_config]
    horizons = [7200.0]
    for seed in range(5):
        doc, horizon = random_scenario_doc(seed)
        configs.append(make_config(doc))
        horizons.append(horizon)
    for config, horizon in zip(configs, horizons):
        sim = Simulation(config)
        sim.run_until(horizon)
        frames = sim.stats()["frames"]
        assert frames["sent"] == (frames["delivered"] + frames["dropped"]
                                  + frames["buffered_pending"] + frames["in_flight"])


def test_invalid_scenario_is_rejected_at_construction():
    doc = two_node_doc(sample_period_s=10.0, poll_period_s=28.0)
    with pytest.raises(InvalidScenarioError) as excinfo:
        Simulation(make_config(doc))
    assert excinfo.value.violations
    assert "node 1" in str(excinfo.value)


def test_inject_set_period_validates_its_target(three_node_config):
    sim = Simulation(three_node_config)
    with pytest.raises(UnknownNodeError):
        sim.inject_set_period(0, 600)  # the coordinator has no sample period
    with pytest.raises(UnknownNodeError):
        sim.inject_set_period(99, 600)
    with pytest.raises(ValueError):
        sim.inject_set_period(2, 0)
    with pytest.raises(ValueError):
        sim.inject_set_period(2, 2 ** 32)


@pytest.mark.parametrize("period", [60.9, 0.5, 1e-9, float("nan"), float("inf"), True, "60"])
def test_inject_set_period_refuses_a_period_it_cannot_send(three_node_config, period):
    """The frame carries whole seconds, so a fraction would be cut off on air
    (0.5 would go out as 0 and be answered with ERR BAD_PERIOD)."""
    sim = Simulation(three_node_config)
    pending = len(sim.queue)
    with pytest.raises(ValueError):
        sim.inject_set_period(2, period)
    assert len(sim.queue) == pending


def test_inject_set_period_sends_a_whole_float_as_its_int(three_node_config):
    sent = {}
    for period in (600, 600.0):
        sim = Simulation(three_node_config, trace=True)
        sim.run_until(100.0)
        sim.inject_set_period(2, period)
        sim.run_until(4000.0)
        sent[type(period)] = sim.trace_text()
    assert "set_period node=2 seconds=600\n" in sent[int]
    assert sent[float] == sent[int]


def test_the_run_reports_its_scenario_seed(three_node_config):
    assert three_node_config.seed == 42
    assert Simulation(three_node_config).stats()["seed"] == 42
    assert Simulation(dataclasses.replace(three_node_config, seed=7)).stats()["seed"] == 7


def _external_wake_ticks(sim: Simulation, horizon_s: float) -> list[int]:
    wakes = []
    limit = ticks_from_seconds(horizon_s)
    while (at := sim.queue.peek_time()) is not None and at <= limit:
        event = sim.step()
        if event.kind is EventKind.EXTERNAL_WAKE:
            wakes.append(event.at)
    return wakes


def test_external_wakes_of_a_third_of_a_second_poll_sit_on_the_grid():
    # 1/3 s polls every 333,333 ticks; a 1 s request is three polls, so the
    # wakes fall at 999,999 ticks and its multiples, not at whole seconds
    sim = Simulation(make_config(two_node_doc(poll_period_s=1 / 3, sample_period_s=1.0,
                                              defaults={"warmup_delay_s": 0.0})))
    wakes = _external_wake_ticks(sim, 5.0)
    assert wakes[:2] == [999_999, 1_999_998]
    assert all(tick % 333_333 == 0 for tick in wakes)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(1 / 3), st.floats(min_value=0.2, max_value=40.0)),
       st.floats(min_value=1.0, max_value=5.0), st.integers(min_value=1, max_value=200))
def test_external_wakes_are_poll_ticks_for_any_poll_period(poll_s, ratio, new_period_s):
    doc = two_node_doc(poll_period_s=poll_s, sample_period_s=poll_s * ratio,
                       defaults={"warmup_delay_s": 0.5, "response_timeout_s": 0.5})
    sim = Simulation(make_config(doc))
    poll = ticks_from_seconds(poll_s)
    horizon_s = 12 * poll_s * ratio
    wakes = _external_wake_ticks(sim, horizon_s / 2)
    sim.inject_set_period(1, new_period_s)  # committed at the next round end
    wakes += _external_wake_ticks(sim, horizon_s + 2 * new_period_s)
    assert wakes
    assert all(tick % poll == 0 for tick in wakes)


@st.composite
def _wake_runs(draw):
    """A scenario, its horizon in seconds and, in some runs, one SET_PERIOD
    (device, injection time, period). The off-grid scenarios put periods
    anywhere in 0.1-7 s (poll) and up to 19.99 s (sample), not on the 0.01 s
    grid of the other two."""
    family = draw(st.sampled_from(("random", "aligned", "off_grid")))
    seed = draw(st.integers(min_value=0, max_value=500))
    if family == "aligned":
        doc, horizon_s = aligned_doc(seed), 40.0
    else:
        doc, horizon_s = random_scenario_doc(seed)
        horizon_s *= 3
    if family == "off_grid":
        doc["defaults"]["poll_wake_duration_s"] = 0.05
        for node in doc["nodes"]:
            if node["role"] == "end_device":
                poll = draw(st.floats(min_value=0.1, max_value=7.0))
                node["radio"]["poll_period_s"] = poll
                node["sample_period_s"] = draw(st.floats(min_value=max(0.01, poll),
                                                         max_value=19.99))
        horizon_s = 60.0
    devices = [node["id"] for node in doc["nodes"] if node["role"] == "end_device"]
    command = draw(st.none() | st.tuples(st.sampled_from(devices),
                                         st.floats(min_value=0.0, max_value=horizon_s / 2),
                                         st.integers(min_value=1, max_value=30)))
    return doc, horizon_s, command


@settings(max_examples=100, deadline=None)
@given(_wake_runs())
def test_external_wakes_keep_the_schedule_in_ticks(run):
    doc, horizon_s, command = run
    sim = Simulation(make_config(doc), trace=True)
    schedules = {node: runtime.sleep for node, runtime in sim.runtimes.items()
                 if runtime.is_end_device}
    if command is not None:
        device, at_s, period_s = command
        sim.run_until(at_s)
        sim.inject_set_period(device, period_s)
    sim.run_until(horizon_s)
    lines = [line.split("\t") for line in sim.trace_text().splitlines()]
    for node, sleep in schedules.items():
        poll_ticks = sleep.period_ticks // sleep.multiplier
        period = sleep.period_ticks
        wakes: list[int] = []
        committed = None  # how many wakes came before the first commit
        for tick, _, kind, who, detail in lines:
            if who != str(node):
                continue
            if kind == "external_wake":
                if wakes:
                    # a round that overran its period skips grid wakes
                    gap = int(tick) - wakes[-1]
                    assert gap > 0 and gap % period == 0
                    if gap > period:
                        event("a round overran its period")
                wakes.append(int(tick))
            elif kind == "period":  # a commit: the period from the next wake on
                fields = dict(item.split("=") for item in detail.split())
                period = ticks_from_seconds(float(fields["effective_s"]))
                assert period == int(fields["multiplier"]) * poll_ticks
                committed = len(wakes) if committed is None else committed
                event("a SET_PERIOD commit")
        dead_at = sim.runtimes[node].ledger.dead_at
        if not wakes:  # only a battery empty before the first wake has none
            assert dead_at is not None and dead_at <= sleep.period_ticks
            continue
        assert seconds_from_ticks(wakes[0]) == sleep.effective_period_s
        # up to the first skipped grid wake or commit, the grid wake_timeline lists
        first = wakes[:committed]
        on_grid = next((i for i, tick in enumerate(first)
                        if tick != (i + 1) * sleep.period_ticks), len(first))
        short_s = seconds_from_ticks(wakes[on_grid - 1])
        assert wake_timeline(sleep, short_s)[1] == [seconds_from_ticks(tick)
                                                    for tick in wakes[:on_grid]]


def _watch_timers(sim: Simulation) -> list[tuple[str, bool]]:
    """Wrap the TIMER_FIRED and TIMEOUT handlers of one simulation. Each
    dispatch appends (kind, whether the timer acted): a guard acts when it
    ends its device's round as lost, a response timeout when it retries or
    aborts its round."""
    seen: list[tuple[str, bool]] = []
    on_guard = sim._handlers[EventKind.TIMER_FIRED]
    on_timeout = sim._handlers[EventKind.TIMEOUT]

    def guard(runtime, stimulus, now):
        lost = runtime.rounds_lost
        on_guard(runtime, stimulus, now)
        seen.append(("timer_fired", runtime.rounds_lost == lost + 1))

    def timeout(runtime, timer, now):
        session = sim.sessions[timer.device]
        attempt, aborted = session.attempt, session.rounds_aborted
        on_timeout(runtime, timer, now)
        seen.append(("timeout", session.attempt == attempt + 1
                     or session.rounds_aborted == aborted + 1))

    sim._handlers[EventKind.TIMER_FIRED] = guard
    sim._handlers[EventKind.TIMEOUT] = timeout
    return seen


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("random", "aligned")), st.integers(min_value=0, max_value=10_000))
def test_only_timers_that_act_are_dispatched(family, seed):
    # aligned scenarios heat their gauges for longer than a zero warm-up, so
    # response timeouts retry and abort; random ones leave some devices out
    # of range, so guards end their rounds
    if family == "random":
        doc, horizon = random_scenario_doc(seed)
        sim = Simulation(make_config(doc))
        seen = _watch_timers(sim)
        sim.run_until(5 * horizon)
    else:
        sim = Simulation(make_config(aligned_doc(seed)))
        seen = _watch_timers(sim)
        for stage in range(1, 8):
            sim.run_until(6.0 * stage)
            sim.inject_set_period(2, stage % 3 + 1)
        sim.run_until(150.0)
    assert all(acted for _, acted in seen), seen
    assert len(sim.queue) == sum(1 for _ in sim.queue.pending())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("random", "aligned")), st.integers(min_value=0, max_value=10_000))
def test_no_tick_holds_more_events_than_one_round_of_every_device(family, seed):
    """Stepped to the horizon, no tick holds more events than every end
    device could cause in one collection round, plus what the injected
    commands cause.

    One round of a device with R = max_retries brings at most 12 + 3R
    events: its external wake, one real poll, one guard, its session's
    WARMUP_DONE and 1 + R TIMEOUTs, and the delivery of each frame of the
    round, which are AWAKE and the coordinator's HEAT_GAUGE_REQ, 1 + R
    SAMPLE_REQs and SLEEP_REQ with one reply each. A command adds itself, its
    SET_PERIOD and the ACK. So a tick holds at most
    devices x (12 + 3R) + 3 x commands events.
    """
    if family == "random":
        doc, horizon = random_scenario_doc(seed)
        horizon *= 5
        stages: list[float] = []
    else:
        doc, horizon = aligned_doc(seed), 150.0
        stages = [6.0 * stage for stage in range(1, 8)]
    config = make_config(doc)
    sim = Simulation(config)
    devices = len(sim.sessions)
    commands = 0
    limit = ticks_from_seconds(horizon)
    tick, count = -1, 0
    while (at := sim.queue.peek_time()) is not None and at <= limit:
        if stages and at >= ticks_from_seconds(stages[0]):
            sim.inject_set_period(2, len(stages) % 3 + 1)
            stages.pop(0)
            commands += 1
        event = sim.step()
        tick, count = event.at, (count + 1 if event.at == tick else 1)
        assert count <= devices * (12 + 3 * config.max_retries) + 3 * commands, tick
    events = sim.events_processed
    sim.run_until(horizon)
    assert sim.now == limit
    assert sim.events_processed == events


def test_a_guard_rearmed_to_its_deadline_keeps_its_event(three_node_config):
    # two frames in one tick re-arm the guard to the same deadline: the event
    # already queued stays, so it keeps its place among the events of its tick
    sim = Simulation(three_node_config)
    runtime, queue, pending = sim.runtimes[2], sim.queue, len(sim.queue)

    def arm_guard(deadline):
        return queue.arm(runtime.guard_timer(), deadline, EventKind.TIMER_FIRED, 2, deadline)

    first = arm_guard(5_000_000)
    assert arm_guard(5_000_000) is first and runtime.guard.event is first
    assert arm_guard(6_000_000) is runtime.guard.event is not first
    assert not first.live and runtime.guard.event.at == 6_000_000
    assert len(queue) == pending + 1


@pytest.mark.parametrize("case", ["router_off", "random/5", "random/9"])
def test_each_route_is_the_tree_route(case, router_off_config):
    # router_off and random/5 each leave a node unreachable; random/9 has
    # two routers
    if case == "router_off":
        config = router_off_config
    else:
        config = make_config(random_scenario_doc(int(case.split("/")[1]))[0])
    sim = Simulation(config)
    ids = [node.id for node in config.nodes]
    assert any(route_path(sim.parent_table, a, b) is None for a in ids for b in ids) == (
        case != "random/9")
    for resolve in (sim._resolve_hops, lambda a, b: sim._hops[a, b]):  # then from the table
        for a in ids:
            for b in ids:
                route, hops = route_path(sim.parent_table, a, b), resolve(a, b)
                if hops is None:  # nothing to send on: the frame is dropped as no_route
                    assert route is None or route == [a] == [b], (a, b)
                    continue
                assert [sender.spec.id for sender in hops.senders] + [b] == route, (a, b)
                assert hops.destination is sim.runtimes[b]
                assert hops.power_dbm == sim.parent_table.links[(route[-2], b)]
                assert hops.senders[-1].spec.id == route[-2]


class SteppedSimulation(Simulation):
    """Takes every event through step() and, after each, counts the frames
    in flight by scanning the queue; run_until then only moves the clock."""

    dead_deliveries = 0  # FRAME_DELIVERED events popped for a dead node

    def run_until(self, horizon_s: float):
        limit = ticks_from_seconds(horizon_s)
        while (at := self.queue.peek_time()) is not None and at <= limit:
            skips = self.dead_skips
            event = self.step()
            if event.kind is EventKind.FRAME_DELIVERED and self.dead_skips > skips:
                self.dead_deliveries += 1
            scanned = sum(1 for queued in self.queue.pending()
                          if queued.kind is EventKind.FRAME_DELIVERED)
            assert self.frames_in_flight == scanned, (event.at, event.seq)
        events = self.events_processed
        super().run_until(horizon_s)
        assert self.events_processed == events  # nothing was left to run


def test_a_death_line_comes_before_or_after_its_dead_at():
    # A death is noted when something next advances the ledger past it
    # (docs/protocol.md, "Trace lines"). Devices 2, 5 and 4 each book a
    # transmit slice whole at send time, which empties the battery ahead of
    # the clock, so the line comes first; device 3's battery runs out first
    # and the line follows. ROADMAP Direction 6 (a death is an event at its
    # exact tick) will make each line's tick equal its dead_at.
    sim = run_case("aligned/7")
    fields = (line.split("\t") for line in sim.trace_lines)
    assert [(int(tick), int(node), detail)
            for tick, _, kind, node, detail in fields if kind == "death"] == [
        (20_000_000, 2, "dead_at=21600182"),
        (24_000_000, 5, "dead_at=24379781"),
        (78_000_000, 4, "dead_at=78816939"),
        (124_000_000, 3, "dead_at=123830945"),
    ]


# drain_doc(0.3) at a 0.5 s airtime, run plainly for 200 s. The golden drain
# cases send in a few milliseconds, too short for a device to die with a frame
# in flight to it: none of them pops a delivery for a dead node.
SLOW_DRAIN = "drain/0.3 airtime=0.5"


def run_slow_drain(cls: type[Simulation] = Simulation) -> Simulation:
    doc = drain_doc(0.3)
    doc["defaults"]["tx_airtime_s"] = 0.5
    sim = cls(make_config(doc), trace=True)
    sim.run_until(200.0)
    return sim


@pytest.mark.parametrize("case", CASES + [SLOW_DRAIN])
def test_the_in_flight_counter_is_the_queued_deliveries(case):
    def run(cls=Simulation):
        return run_slow_drain(cls) if case == SLOW_DRAIN else run_case(case, cls)

    sim = run(SteppedSimulation)
    assert sim.stats()["frames"]["in_flight"] == sim.frames_in_flight
    assert digests(sim) == digests(run())  # stepping ran the same run
    if case == "aligned/3":  # its batteries run out with frames in flight to them
        assert sim.dead_deliveries == 4
    if case == SLOW_DRAIN:  # 2 of them
        assert sim.dead_deliveries > 0


def test_shared_radio_and_sleep_configs_stay_per_node():
    """Nodes with no radio object share one RadioConfig, and devices with
    one pair of periods share one CyclicSleepConfig. Both are frozen, and a
    SET_PERIOD replaces its device's config, so a change to one device
    reaches no other."""
    doc = two_node_doc()
    device = doc["nodes"][1]
    doc["nodes"] += [dict(device, id=node_id, position={"x": 1.0 + node_id, "y": 1.0})
                     for node_id in (2, 3)]
    doc["nodes"][3]["radio"] = {"tx_power_dbm": 5.0}
    config = make_config(doc)
    shared = config.node(0).radio
    assert config.node(1).radio is shared and config.node(2).radio is shared
    own = config.node(3).radio
    assert own is not shared and own.tx_power_dbm == 5.0
    assert parse_scenario(serialize_scenario(config)) == config

    sim = Simulation(config)
    sleep = sim.runtimes[1].sleep
    assert all(sim.runtimes[node_id].sleep is sleep for node_id in (2, 3))
    before = sim.stats()["cyclic_sleep"]
    sim.inject_set_period(2, 600)
    sim.run_until(2 * 3600.0)
    after = sim.stats()["cyclic_sleep"]
    assert after["2"]["requested_period_s"] == 600
    assert {key: after[key] for key in ("1", "3")} == {key: before[key] for key in ("1", "3")}
    assert sim.runtimes[1].sleep is sleep and sim.runtimes[3].sleep is sleep


def test_devices_whose_periods_differ_only_in_type_keep_their_own():
    """60 == 60.0, but the report prints each device's periods as it was
    given them, so devices share a sleep config only when the types match."""
    config = make_config(two_node_doc(sample_period_s=120.0))
    device = config.node(1)
    twin = dataclasses.replace(device, id=2, sample_period_s=120)
    sim = Simulation(dataclasses.replace(config, nodes=config.nodes + (twin,)))
    cyclic = sim.stats()["cyclic_sleep"]
    assert [type(cyclic[key]["requested_period_s"]) for key in ("1", "2")] == [float, int]
