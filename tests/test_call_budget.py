"""The per-event path, and setup per node, stay a few Python calls deep.

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

Setup is counted per node, over parse_scenario and Simulation(config) of a
207-node building generated here (campus_text). The figure is the count
once the readers add a refusal's path only as it unwinds, the parent search
places its candidates as plain tuples, and nodes share their radio and
sleep configs; "before" is the count without those.

    case         figure   budget   before
    setup        105.33   116.0    130.55
"""

import cProfile
import json
import pstats
import random
from pathlib import Path

import pytest

import wsn_pathosim
from test_golden import run_case
from wsn_pathosim.model import parse_scenario
from wsn_pathosim.simulation import Simulation

PACKAGE_DIR = Path(wsn_pathosim.__file__).resolve().parent


def package_calls(profiler: cProfile.Profile) -> int:
    """The calls the profiler counted into functions of the package."""
    return sum(stat[1] for (filename, _, _), stat in pstats.Stats(profiler).stats.items()
               if Path(filename).resolve().parent == PACKAGE_DIR)


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
    return package_calls(profiler) / sim.events_processed


@pytest.mark.parametrize("case, trace, budget", [
    ("random/9", True, 22.4),  # two routers: frames relayed over two hops
    ("random/9", False, 22.0),
    ("drain/0.3", True, 36.9),  # deaths, drops and staged SET_PERIOD frames
])
def test_python_calls_per_event_stay_within_budget(case, trace, budget):
    assert calls_per_event(case, trace) <= budget


def campus_text(rng: random.Random) -> str:
    """A scenario document: 3 floors of 4 x 3 rooms of 8 x 6 m with a brick
    wall along each room edge, the coordinator and 2 routers per floor, and
    200 end devices, each with its own battery and a ramp sensor."""
    walls = []
    for floor in range(3):
        for i in range(5):
            for j in range(3):
                walls.append(((8.0 * i, 6.0 * j), (8.0 * i, 6.0 * j + 6.0), floor))
        for j in range(4):
            for i in range(4):
                walls.append(((8.0 * i, 6.0 * j), (8.0 * i + 8.0, 6.0 * j), floor))

    def spot(floor: int) -> dict:
        return {"x": round(rng.uniform(0.5, 31.5), 2), "y": round(rng.uniform(0.5, 17.5), 2),
                "floor": floor}

    nodes = [{"id": 0, "role": "coordinator", "position": {"x": 15.0, "y": 9.0}}]
    nodes += [{"id": node_id, "role": "router", "position": spot((node_id - 1) // 2)}
              for node_id in range(1, 7)]
    nodes += [{"id": node_id, "role": "end_device", "position": spot(rng.randrange(3)),
               "sample_period_s": 1800.0,
               "battery": {"capacity_mah": round(rng.uniform(800.0, 1100.0), 1)},
               "sensors": [{"kind": "displacement",
                            "signal": {"shape": "ramp", "start": rng.uniform(0.0, 5.0),
                                       "slope_per_hour": 0.01}}]}
              for node_id in range(7, 207)]
    return json.dumps({
        "seed": 1, "defaults": {"sensitivity_dbm": -95.0, "poll_period_s": 28.0},
        "nodes": nodes,
        "obstacles": [{"kind": "brick_wall", "from": {"x": x0, "y": y0, "floor": floor},
                       "to": {"x": x1, "y": y1, "floor": floor}}
                      for (x0, y0), (x1, y1), floor in walls]})


def setup_calls_per_node() -> float:
    """Python calls into the package per node, over parse_scenario and
    Simulation(config) of campus_text(random.Random(0))."""
    text = campus_text(random.Random(0))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim = Simulation(parse_scenario(text))
    finally:
        profiler.disable()
    return package_calls(profiler) / len(sim.runtimes)


def test_python_calls_per_node_in_setup_stay_within_budget():
    assert setup_calls_per_node() <= 116.0
