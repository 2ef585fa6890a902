"""The results of a run are those of a run in which every poll is an event.

Simulation books a poll without an event where the poll only books energy.
EveryPollSimulation makes every poll of a device a real POLL_WAKE until the
device's death is noted, so the two may differ only in the work they count:
events_processed, poll_wakes_elided (not their sum), the seq column and the
poll_wake lines of the trace.

Polls run last in their tick, and every delay to an event of a device is
at least one tick, so no event of a device runs in a tick after that
device's poll of the tick: OrderCheckSimulation asserts it at every event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config, random_scenario_doc
from test_golden import CASES, DRAIN_BASES_MAH, aligned_doc, digests, run_aligned, run_case
from wsn_pathosim.engine import EventKind, SimEvent
from wsn_pathosim.protocol import WIRE_LENGTHS
from wsn_pathosim.simulation import InvalidScenarioError, NodeRuntime, Simulation


class EveryPollSimulation(Simulation):
    def _plan_poll(self, runtime: NodeRuntime) -> None:
        if runtime.death_logged:
            self.queue.disarm(runtime.real_poll)
        else:
            self.queue.arm(runtime.poll_timer(), self._next_poll_tick(runtime),
                           EventKind.POLL_WAKE, runtime.spec.id)


@st.composite
def random_runs(draw):
    """A random scenario, its batteries cut so that some die, and the
    run_until stages (in tenths of a second, so some fall on poll ticks)."""
    doc, horizon = random_scenario_doc(draw(st.integers(0, 10_000)))
    cut = draw(st.sampled_from([1, 200, 2000]))
    for node in doc["nodes"]:
        if "battery" in node:
            node["battery"]["capacity_mah"] /= cut
    end = 20 * horizon
    stages = sorted(draw(st.lists(st.integers(0, int(10 * end)), max_size=4)))
    return doc, [stage / 10 for stage in stages] + [end]


def run_random(cls: type[Simulation], doc: dict, stages: list[float]) -> Simulation:
    sim = cls(make_config(doc), trace=True)
    for horizon in stages:
        sim.run_until(horizon)
    return sim


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_runs(),
                 st.integers(0, 10_000).map(lambda seed: f"aligned/{seed}"),
                 st.sampled_from([f"drain/{base}" for base in DRAIN_BASES_MAH])))
def test_results_are_those_of_a_run_where_every_poll_is_an_event(case):
    if isinstance(case, str):
        sim, every = run_case(case), run_case(case, EveryPollSimulation)
    else:
        sim, every = run_random(Simulation, *case), run_random(EveryPollSimulation, *case)
    assert every.poll_wakes_elided == 0
    assert digests(sim) == digests(every)
    assert (sim.events_processed + sim.poll_wakes_elided
            == every.events_processed + every.poll_wakes_elided)


class OrderCheckSimulation(Simulation):
    def _dispatch(self, event: SimEvent) -> None:
        runtime = self.runtimes[event.node]
        assert not (runtime.is_end_device and self._polls_tick == event.at
                    and self._polls_rank >= runtime.poll_rank), \
            f"{event.kind.value} for node {event.node} after its poll of tick {event.at}"
        super()._dispatch(event)


@pytest.mark.parametrize("name", CASES)
def test_no_device_event_runs_after_its_poll_in_a_golden_case(name):
    run_case(name, OrderCheckSimulation)


def one_tick_doc(seed: int, bitrate: bool, seconds: float) -> dict:
    """aligned_doc with a 0 s warm-up and every other duration at `seconds`:
    the response timeout, the heat and the airtime (by override, or by a
    bitrate at which the shortest frame takes that long)."""
    doc = aligned_doc(seed)
    defaults = doc["defaults"]
    defaults.update(warmup_delay_s=0.0, response_timeout_s=seconds)
    if bitrate:
        del defaults["tx_airtime_s"]
        defaults["bitrate_bps"] = min(WIRE_LENGTHS) * 8 / seconds
    else:
        defaults["tx_airtime_s"] = seconds
    for node in doc["nodes"][2:]:
        if "heat_duration_s" in node["sensors"][0]:
            node["sensors"][0]["heat_duration_s"] = seconds
    return doc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_one_tick_durations_keep_each_device_event_before_its_poll(seed, bitrate):
    with pytest.raises(InvalidScenarioError, match="at least one 1 us tick"):
        Simulation(make_config(one_tick_doc(seed, bitrate, 1e-7)))
    doc = one_tick_doc(seed, bitrate, 1e-6)
    sim, every = run_aligned(doc, OrderCheckSimulation), run_aligned(doc, EveryPollSimulation)
    assert digests(sim) == digests(every)


def test_a_command_injected_between_polls_of_a_tick_keeps_the_order():
    """step() stops after each real poll, and a SET_PERIOD is injected there
    for each device in turn: some find their poll of the tick run, some find
    it still to come."""
    sim = OrderCheckSimulation(make_config(aligned_doc(5)), trace=True)
    devices = [runtime for runtime in sim.runtimes.values() if runtime.is_end_device]
    injected, passed, ahead = 0, 0, 0
    while (event := sim.step()) is not None and sim.now <= 150_000_000:
        if event.kind is EventKind.POLL_WAKE:
            runtime = devices[injected % len(devices)]
            ledger = runtime.ledger
            if sim.now % ledger.poll_ticks == 0 and ledger.next_poll <= sim.now:
                passed += sim._polls_rank >= runtime.poll_rank
                ahead += sim._polls_rank < runtime.poll_rank
            sim.inject_set_period(runtime.spec.id, injected % 3 + 1)
            injected += 1
    assert passed > 0 and ahead > 0
    assert any(line.split("\t")[2] == "period" for line in sim.trace_lines)
