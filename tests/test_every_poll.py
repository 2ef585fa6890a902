"""The results of a run are those of a run in which every poll is an event.

Simulation books a poll without an event where the poll only books energy.
EveryPollSimulation makes every poll of a device a real POLL_WAKE until the
device's death is noted, so the two may differ only in the work they count:
events_processed, poll_wakes_elided (not their sum), the seq column and the
poll_wake lines of the trace.
"""

from hypothesis import given, settings, strategies as st

from conftest import make_config, random_scenario_doc
from test_golden import DRAIN_BASES_MAH, digests, run_case
from wsn_pathosim.engine import EventKind
from wsn_pathosim.simulation import NodeRuntime, Simulation


class EveryPollSimulation(Simulation):
    def _plan_poll(self, runtime: NodeRuntime) -> None:
        if runtime.death_logged:
            self.queue.disarm(runtime.real_poll)
        else:
            self.queue.arm(runtime.real_poll, self._next_poll_tick(runtime),
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
