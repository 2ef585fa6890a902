"""A run's work grows with its events, not with its polls or wake periods.

PowerLedger._poll_step books one poll on its own, and
Simulation._on_device_round_end finds a device's next external wake. Each
is counted on scenarios at the validator's edges: 1 us polls, poll windows
up to one tick short of the poll, airtime far longer than the poll, sample
periods of one poll. Stepped polls must stay within a fixed number per
event, and a round end within a fixed number of lines, whatever the poll
rate. The same scenarios, on horizons short enough for a run in which every
poll is an event (tests/test_every_poll.py), give that run's results.
"""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SCENARIO_DIR, make_config, two_node_doc
from test_every_poll import EveryPollSimulation
from test_golden import digests
from wsn_pathosim.power import PowerLedger
from wsn_pathosim.simulation import Simulation

STEPS_PER_EVENT = 2  # stepped polls per (event or device)
ROUND_END_LINES = 40  # lines of _on_device_round_end run per call
STEP_CAP = 100_000  # a run past this many stepped polls stops at once


def lifetime_doc(poll_s: float, window_s: float, sample_s: float = 1800.0) -> dict:
    """The shipped single-hop lifetime scenario (1.67 s airtime) on a faster poll."""
    doc = json.loads((SCENARIO_DIR / "lifetime_single_hop.json").read_text())
    doc["defaults"].update(poll_period_s=poll_s, poll_wake_duration_s=window_s)
    doc["nodes"][1]["sample_period_s"] = sample_s
    return doc


def device_doc(poll_s: float, window_s: float, airtime_s: float, sample_s: float, *,
               warmup_s: float = 0.0, gauge: bool = False, battery_mah: float = 1100.0,
               retries: int = 1) -> dict:
    """A coordinator and one end device, every duration given."""
    sensor = None
    if gauge:
        sensor = {"kind": "strain_gauge", "heat_duration_s": max(warmup_s, 1e-6),
                  "signal": {"shape": "constant", "level": 1.0}}
    return two_node_doc(poll_period_s=poll_s, sample_period_s=sample_s, sensor=sensor,
                        battery_mah=battery_mah,
                        defaults={"poll_wake_duration_s": window_s, "tx_airtime_s": airtime_s,
                                  "warmup_delay_s": warmup_s, "response_timeout_s": 0.5,
                                  "max_retries": retries})


# name: (scenario, horizon in s). Stepping every poll, the slowest of them
# took seconds to minutes, and the gauge's one round end 2e7 loop turns.
EDGE_CASES = {
    "lifetime_poll_10ms": (lifetime_doc(0.01, 0.004), 86400.0),
    "lifetime_poll_1ms": (lifetime_doc(0.001, 0.0005), 86400.0),
    "lifetime_poll_100us": (lifetime_doc(1e-4, 5e-5), 86400.0),
    "gauge_poll_1us_warmup_20s": (device_doc(1e-6, 0.0, 1e-3, 1e-6, warmup_s=20.0,
                                             gauge=True), 25.0),
    "poll_1us_airtime_1ms": (device_doc(1e-6, 0.0, 1e-3, 1e-6), 2.0),
    "poll_10ms_window_4ms_airtime_50ms": (device_doc(0.01, 0.004, 0.05, 0.05), 60.0),
    "poll_1ms_window_900us_dies": (device_doc(0.001, 0.0009, 0.01, 0.01, battery_mah=0.5),
                                   120.0),
}

# The same edges on horizons of at most about 20,000 polls.
ORACLE_CASES = {
    "lifetime_poll_10ms": (lifetime_doc(0.01, 0.004, sample_s=30.0), 100.0),
    "gauge_poll_1us_warmup_5ms": (device_doc(1e-6, 0.0, 1e-3, 1e-6, warmup_s=0.005,
                                             gauge=True), 0.02),
    "poll_2us_window_1us_airtime_1ms": (device_doc(2e-6, 1e-6, 1e-3, 4e-6), 0.04),
    "poll_10ms_window_4ms_airtime_50ms": (device_doc(0.01, 0.004, 0.05, 0.05), 60.0),
    "poll_1ms_window_900us_dies": (device_doc(0.001, 0.0009, 0.01, 0.01, battery_mah=0.01),
                                   2.0),
}


def counted_run(monkeypatch, doc: dict, horizon_s: float) -> tuple[Simulation, int, int]:
    """Run the scenario; (simulation, stepped polls, most lines one round
    end ran). Either count past its cap stops the run with an error."""
    steps = 0
    poll_step = PowerLedger._poll_step

    def counted_poll_step(ledger, tick):
        nonlocal steps
        steps += 1
        if steps > STEP_CAP:
            raise AssertionError(f"more than {STEP_CAP} stepped polls")
        return poll_step(ledger, tick)

    monkeypatch.setattr(PowerLedger, "_poll_step", counted_poll_step)
    round_end = Simulation._on_device_round_end.__code__
    most_lines = 0

    def trace_calls(frame, event, arg):
        if frame.f_code is not round_end:
            return None
        lines = 0

        def trace_lines(frame, event, arg):
            nonlocal lines, most_lines
            if event == "line":
                lines += 1
                most_lines = max(most_lines, lines)
                if lines > ROUND_END_LINES:
                    raise AssertionError(f"a round end ran more than {ROUND_END_LINES} lines")
            return trace_lines

        return trace_lines

    sim = Simulation(make_config(doc))
    tracer = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        sim.run_until(horizon_s)
    finally:
        sys.settrace(tracer)
    return sim, steps, most_lines


@pytest.mark.parametrize("name", EDGE_CASES)
def test_stepped_polls_and_round_ends_are_bounded_per_event(name, monkeypatch):
    doc, horizon_s = EDGE_CASES[name]
    sim, steps, most_lines = counted_run(monkeypatch, doc, horizon_s)
    devices = len(sim.sessions)
    assert steps <= STEPS_PER_EVENT * (sim.events_processed + devices)
    assert most_lines <= ROUND_END_LINES
    if name.startswith("lifetime"):
        # a day of one device on a poll of 10 ms or less: up to 8.6e8 polls
        assert sim.poll_wakes_elided > 1000 * sim.events_processed
    if name.endswith("dies"):
        assert sim.stats()["power"]["1"]["dead_at_s"] is not None
    else:
        assert sim.stats()["rounds"]["1"]["completed"] > 0


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_edge_results_are_those_of_a_run_where_every_poll_is_an_event(name):
    doc, horizon_s = ORACLE_CASES[name]
    sim, every = Simulation(make_config(doc), trace=True), EveryPollSimulation(
        make_config(doc), trace=True)
    sim.run_until(horizon_s)
    every.run_until(horizon_s)
    assert every.poll_wakes_elided == 0
    assert digests(sim) == digests(every)
    assert (sim.events_processed + sim.poll_wakes_elided
            == every.events_processed + every.poll_wakes_elided)


@st.composite
def edge_docs(draw):
    """One end device at the validator's edges: a 1-10 us poll, a window up
    to one tick short of it, airtime up to 1000 polls, a warm-up of 0 to
    120 s, up to 5 retries and a battery that may die within the run."""
    poll_us = draw(st.integers(1, 10))
    window_us = draw(st.integers(0, poll_us - 1))
    airtime_us = draw(st.integers(1, 1000 * poll_us))
    warmup_s = draw(st.sampled_from([0.0, 1e-4, 2e-3, 120.0]))
    battery_mah = draw(st.sampled_from([1e-5, 1e-4, 1100.0]))
    doc = device_doc(poll_us * 1e-6, window_us * 1e-6, airtime_us * 1e-6,
                     poll_us * 1e-6 * draw(st.integers(1, 300)), warmup_s=warmup_s,
                     gauge=draw(st.booleans()), battery_mah=battery_mah,
                     retries=draw(st.integers(0, 5)))
    doc["defaults"]["response_timeout_s"] = draw(st.sampled_from([1e-5, 1e-3]))
    return doc, poll_us * 1e-6 * 2000  # 2000 polls


@settings(max_examples=25, deadline=None)
@given(edge_docs())
def test_edge_scenarios_do_bounded_work_and_match_the_every_poll_run(case):
    doc, horizon_s = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        sim, steps, most_lines = counted_run(monkeypatch, doc, horizon_s)
    assert steps <= STEPS_PER_EVENT * (sim.events_processed + len(sim.sessions))
    assert most_lines <= ROUND_END_LINES
    traced, every = Simulation(make_config(doc), trace=True), EveryPollSimulation(
        make_config(doc), trace=True)
    traced.run_until(horizon_s)
    every.run_until(horizon_s)
    assert digests(traced) == digests(every)
