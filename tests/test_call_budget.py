"""The per-event path stays a few Python calls deep.

cProfile counts every call into a function of the wsn_pathosim package over
the run phase of a golden case (construction excluded), and the count per
processed event must stay within a budget about 10% above the figure when
each frame's route was resolved once into hops that carry the last hop's
power, so that a frame handed over at a poll draws its RSSI without a
helper call, a mains ledger booked a slice in place, the send and
frame_delivered trace lines were each one f-string and each trace line was
kept by a bare list.append. The figures below are CPython 3.11's, and
"before" is the count before the last hop's power moved into the hops.
3.12 and 3.13 inline comprehensions, which the older interpreters count as
calls, and read lower: 0.01 lower on random/9, 1.14 lower on drain/0.3,
as measured against the "before" figures.

    case         trace   figure   budget   before
    random/9     on      20.38    22.4     20.40
    random/9     off     20.03    22.0     20.05
    drain/0.3    on      33.51    36.9     34.47
"""

import cProfile
import pstats
from pathlib import Path

import pytest

import wsn_pathosim
from test_golden import run_case
from wsn_pathosim.simulation import Simulation

PACKAGE_DIR = Path(wsn_pathosim.__file__).resolve().parent


def calls_per_event(case: str, trace: bool) -> float:
    """Python calls into the package per processed event, over the run
    phase of the golden case, with the trace on or off."""
    profiler = cProfile.Profile()

    class RunProfiled(Simulation):
        def __init__(self, config, *, trace: bool) -> None:
            super().__init__(config, trace=tracing)
            profiler.enable()  # from here on, run_case only runs the case

    tracing = trace
    try:
        sim = run_case(case, RunProfiled)
    finally:
        profiler.disable()
    calls = sum(stat[1] for (filename, _, _), stat in pstats.Stats(profiler).stats.items()
                if Path(filename).resolve().parent == PACKAGE_DIR)
    return calls / sim.events_processed


@pytest.mark.parametrize("case, trace, budget", [
    ("random/9", True, 22.4),  # two routers: frames relayed over two hops
    ("random/9", False, 22.0),
    ("drain/0.3", True, 36.9),  # deaths, drops and staged SET_PERIOD frames
])
def test_python_calls_per_event_stay_within_budget(case, trace, budget):
    assert calls_per_event(case, trace) <= budget
