"""The benchmark's workloads and the one function that runs and times them.

Every workload is a generated building plus a way to drive it. A run goes
through the simulator's public API only, looking each entry point up on its
module at call time so that the traced pass can wrap it:

    parse_scenario -> Simulation(...) -> run_until / inject_set_period
    -> report_json, report_text, samples_csv (and trace_text when traced)

and is timed in three phases from outside: setup (scenario text to a built
Simulation), run (the event loop) and output (the result bundle).
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Callable

from wsn_pathosim import model, report, simulation

from synth import BuildingSpec, generate_building

SECONDS_PER_DAY = 86400.0
NEW_PERIODS_S = (60, 180, 240)


@dataclass(frozen=True)
class Workload:
    """A building, how long to simulate it, and how to drive it.

    stages > 1 splits the horizon into equal run_until calls; between two
    stages the coordinator sends SET_PERIOD to a seed-chosen share
    (inject_share) of the end devices.
    """

    name: str
    building: BuildingSpec | None  # None for a shipped scenario file
    horizon_s: float
    trace: bool = False
    stages: int = 1
    inject_share: float = 0.0

    @property
    def node_days(self) -> float:
        """End-device-days simulated by one run."""
        return self.building.end_devices * self.horizon_s / SECONDS_PER_DAY

    def scaled(self, end_devices: int, horizon_s: float) -> "Workload":
        """The same workload at a smaller size, for smoke tests."""
        return dataclasses.replace(
            self, building=dataclasses.replace(self.building, end_devices=end_devices),
            horizon_s=horizon_s)

    def scenario(self, seed: int) -> str:
        return generate_building(self.building, seed)


WORKLOADS = {w.name: w for w in (
    # One day of the paper's 28 s poll / 1800 s sample cycle. Poll wakes are
    # most of the events and the power ledger most of the time, so event-loop
    # and ledger changes show here; topology build is under 2% of a run.
    Workload(
        name="building_day",
        building=BuildingSpec(floors=3, rooms_x=6, rooms_y=4, routers_per_floor=2,
                              end_devices=60),
        horizon_s=SECONDS_PER_DAY),
    # 1000 devices behind 335 walls for 600 s, about 21 polls per device and
    # no collection round: building the parent table is nearly all of it, so
    # topology changes show here and event-loop changes should barely move
    # total_s. The horizon makes the run phase ~0.3 s, long enough for
    # node_days_per_s to be timed steadily.
    Workload(
        name="campus_build",
        building=BuildingSpec(floors=5, rooms_x=8, rooms_y=5, routers_per_floor=2,
                              end_devices=1000),
        horizon_s=600.0),
    # The paths building_day skips: batteries small enough to die across the
    # horizon (exact death ticks, node_dead drops), staged runs with SET_PERIOD
    # frames that wait at parents until the child polls and commit at round
    # end, and the trace kept in memory and formatted with the full bundle.
    Workload(
        name="drain_traced",
        building=BuildingSpec(floors=2, rooms_x=6, rooms_y=4, routers_per_floor=2,
                              end_devices=150,
                              sensor_mix={"strain_gauge": 1.0, "displacement": 2.0,
                                          "temperature_catheter": 2.0},
                              battery_mah=(15.0, 60.0), poll_period_s=10,
                              sample_period_s=120),
        # Stage ends at 1815, 3630 and 5445 s fall off the 60/120/180/240 s
        # wake grids, so most reached devices are asleep and their frames
        # wait at the parent.
        horizon_s=7260.0, trace=True, stages=4, inject_share=0.15),
)}


@dataclass
class Outcome:
    """One run: the finished simulation, its output bundle and phase times."""

    sim: simulation.Simulation
    outputs: dict[str, str]
    setup_s: float
    run_s: float
    output_s: float

    @property
    def total_s(self) -> float:
        return self.setup_s + self.run_s + self.output_s


def drive(sim: simulation.Simulation, workload: Workload, seed: int) -> None:
    """Run to the horizon in stages, injecting period changes in between.

    The injection choice depends on the seed alone, so every repetition of
    a run makes the same calls.
    """
    rng = random.Random(seed ^ 0x5EED)
    devices = [node.id for node in sim.config.nodes
               if node.role is model.NodeRole.END_DEVICE]
    for stage in range(1, workload.stages + 1):
        sim.run_until(workload.horizon_s * stage / workload.stages)
        if stage == workload.stages:
            break
        for node_id in devices:
            if rng.random() < workload.inject_share:
                period = NEW_PERIODS_S[int(rng.random() * len(NEW_PERIODS_S))]
                sim.inject_set_period(node_id, period)


def run_once(workload: Workload, text: str, seed: int,
             between: Callable[[], object] = lambda: None) -> Outcome:
    """Build, drive and report one scenario, timing each phase. `between`
    is called, untimed, after the setup and the run phases."""
    t0 = time.perf_counter()
    config = model.parse_scenario(text)
    sim = simulation.Simulation(config, trace=workload.trace)
    setup_s = time.perf_counter() - t0
    between()
    t1 = time.perf_counter()
    drive(sim, workload, seed)
    run_s = time.perf_counter() - t1
    between()
    t2 = time.perf_counter()
    outputs = {"report.json": report.report_json(sim),
               "report.txt": report.report_text(sim),
               "samples.csv": report.samples_csv(sim)}
    if workload.trace:
        outputs["trace.tsv"] = sim.trace_text()
    return Outcome(sim, outputs, setup_s, run_s, time.perf_counter() - t2)
