"""Traced pass: spans around every public entry point of each layer.

Each layer is a module of wsn_pathosim. A wrapper is installed in the
namespace where callers look the entry point up (a module global such as
wsn_pathosim.simulation.end_device_step, or a class attribute such as
PowerLedger.advance) and the original is put back on exit, so the simulator's
files are never touched and an untraced run afterwards is unaffected.

Spans are kept in memory as per-entry-point aggregates (calls, inclusive
time, self time) rather than one record per call: a traced building_day
makes millions of calls. A span's self time is its duration minus the time
covered by the spans it caused. A wrapper's bookkeeping after the wrapped
call counts as covered time for its caller but lies outside its own span, so
tracing overhead stays out of every layer's self time (it shows in
trace.overhead_s) instead of piling up in the outer layers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from wsn_pathosim import engine, model, power, propagation, protocol, report, sensors, simulation

LAYERS = ("engine", "model", "propagation", "protocol", "power", "sensors",
          "simulation", "report")

# (layer, owner, attribute): owner is the module or class the caller resolves
# the attribute on.
ENTRY_POINTS = (
    ("engine", engine.EventQueue, "schedule"),
    ("engine", engine.EventQueue, "pop_due"),
    ("engine", engine.EventQueue, "pop_next"),
    ("engine", engine.RngStream, "normal"),
    ("engine", simulation, "derive_seed"),
    ("model", model, "parse_scenario"),
    ("model", simulation, "validate_scenario"),
    ("model", model.ScenarioConfig, "node"),
    ("model", model.ScenarioConfig, "coordinator"),
    ("model", model.ScenarioConfig, "routers"),
    ("model", model.ScenarioConfig, "end_devices"),
    ("model", propagation, "obstacles_on_path"),
    ("propagation", protocol, "link_budget"),
    ("propagation", simulation, "link_budget"),
    ("propagation", simulation, "select_channel"),
    ("protocol", simulation, "build_parent_table"),
    ("protocol", simulation, "end_device_step"),
    ("protocol", simulation, "coordinator_step"),
    ("protocol", simulation, "route_path"),
    ("protocol", protocol.ParentTable, "buffer_for"),
    ("protocol", protocol.ParentTable, "path_to_root"),
    ("power", power.PowerLedger, "advance"),
    ("power", power.PowerLedger, "set_state"),
    ("power", power.PowerLedger, "charge_slice"),
    ("power", power.CyclicSleepConfig, "from_periods"),
    ("sensors", protocol, "sample"),
    ("sensors", sensors.GaugeState, "begin_heating"),
    ("simulation", simulation.Simulation, "__init__"),
    ("simulation", simulation.Simulation, "run_until"),
    ("simulation", simulation.Simulation, "step"),
    ("simulation", simulation.Simulation, "inject_set_period"),
    ("simulation", simulation.Simulation, "stats"),
    ("simulation", simulation.Simulation, "trace_text"),
    ("report", report, "build_report"),
    ("report", report, "report_json"),
    ("report", report, "report_text"),
    ("report", report, "samples_csv"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans plus the counts that only a call boundary can see."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    events_by_kind: Counter = field(default_factory=Counter)
    peak_pending: int = 0
    link_pairs: set = field(default_factory=set)
    segment_tests: int = 0
    stats_calls_from_report: int = 0
    _covered: list = field(default_factory=list)
    _layers: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _floors: dict = field(default_factory=dict)

    def __enter__(self) -> "Tracer":
        for layer, owner, attr in ENTRY_POINTS:
            original = vars(owner)[attr]
            function = original.__func__ if isinstance(original, classmethod) else original
            wrapped = self._wrap(layer, f"{layer}.{_owner_name(owner)}.{attr}", function, attr)
            setattr(owner, attr, classmethod(wrapped) if isinstance(original, classmethod)
                    else wrapped)
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, function, attr: str):
        stats = self.spans.setdefault(name, SpanStats())
        covered = self._covered
        layers = self._layers
        observe = getattr(self, f"_on_{attr}", None)
        clock = time.perf_counter

        def span(*args, **kwargs):
            start = clock()
            covered.append(0.0)
            layers.append(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                layers.pop()
                children = covered.pop()
                stats.calls += 1
                stats.total_s += end - start
                stats.self_s += end - start - children
            if observe is not None:
                observe(args, result)
            if covered:
                covered[-1] += clock() - start
            return result

        return span

    # Observers: counts taken at a call boundary, named _on_<attribute>.

    def _on_pop_due(self, args, event) -> None:
        if event is not None:
            self.events_by_kind[event.kind.value] += 1

    _on_pop_next = _on_pop_due

    def _on_schedule(self, args, event) -> None:
        self.peak_pending = max(self.peak_pending, len(args[0]))

    def _on_link_budget(self, args, budget) -> None:
        self.link_pairs.add((args[1], args[2]))

    def _on_stats(self, args, stats) -> None:
        if self._layers and self._layers[-1] == "report":
            self.stats_calls_from_report += 1

    def _on_obstacles_on_path(self, args, crossings) -> None:
        """Segment tests computed from the call's floor range: one per
        obstacle whose floor lies between the endpoints' floors."""
        config, a, b = args[:3]
        floors = self._floors.get(id(config))
        if floors is None:
            per_floor = Counter(o.start.floor for o in config.obstacles)
            floors = ({n.id: n.position.floor for n in config.nodes}, per_floor)
            self._floors[id(config)] = floors
        floor_of, per_floor = floors
        lo, hi = sorted((floor_of[a], floor_of[b]))
        self.segment_tests += sum(count for floor, count in per_floor.items()
                                  if lo <= floor <= hi)

    # Aggregates.

    def _sum(self, match) -> SpanStats:
        out = SpanStats()
        for name, stats in self.spans.items():
            if match(name):
                out.calls += stats.calls
                out.total_s += stats.total_s
                out.self_s += stats.self_s
        return out

    def layer(self, layer: str) -> SpanStats:
        return self._sum(lambda name: name.startswith(layer + "."))

    def entry(self, attr: str) -> SpanStats:
        """Sum over every wrapper of one entry point (it may be wrapped in
        more than one namespace)."""
        return self._sum(lambda name: name.endswith("." + attr))

    def table(self) -> str:
        rows = [f"{'span':<52} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for name, stats in sorted(self.spans.items(), key=lambda item: -item[1].self_s):
            if stats.calls:
                rows.append(f"{name:<52} {stats.calls:>9} {stats.total_s:>9.4f} "
                            f"{stats.self_s:>9.4f}")
        return "\n".join(rows)


def _owner_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]
