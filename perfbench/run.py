"""wsn-pathosim benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload building_day --seed 1 --seconds 20 --trace 0

The workload's building is generated from the seed (untimed); the simulator
sees only the scenario text. Runs then repeat back to back from one thread,
each starting when the previous one has finished, until --seconds have
passed. Every run goes through the output gate (gate.py), and so do the
shipped scenarios, once per invocation.

Host times are scaled to one reference machine speed with a fixed loop timed
between runs (calibrate.py), because the speed this shared machine gives one
thread drifts far more than the bounds; the unscaled median total is printed
too. --trace 0 prints the end-to-end metrics, each a median over the runs:
  setup_s          scenario text -> built Simulation (parse, validate, parent
                   table, channel, initial schedule)
  total_s          setup + run + output bundle: what a user waits for
  node_days_per_s  end devices x horizon / 86400 per second of run phase
  peak_mem_mb      tracemalloc peak of one full run, in its own untimed pass
--trace 1 prints the per-layer metrics instead, from one extra run with a
span around every public entry point (spans.py).

Human-readable lines come first, including error_rate (failed / attempted
runs); the last line of stdout is one JSON object with correct, attempted,
failed and metrics. Exit code 2 means the benchmark could not start, for
instance because the simulator sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_simulator() -> None:
    """Make the checkout's own simulator importable, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wsn_pathosim
    except ImportError as exc:
        print(f"cannot import wsn_pathosim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(wsn_pathosim.__file__).resolve().parent != ROOT / "src" / "wsn_pathosim":
        print(f"imported wsn_pathosim from {wsn_pathosim.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _import_simulator()

from gate import Gate, check_shipped, load_goldens  # noqa: E402
from calibrate import REF_NOMINAL_S, reference_seconds  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, run_once  # noqa: E402

# Spelled out rather than read from EventKind: they are metric names in
# BENCHMARK.json and must not change with the simulator.
EVENT_KINDS = ("timer_fired", "frame_delivered", "poll_wake", "external_wake",
               "warmup_done", "timeout", "command_injected")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Session:
    """Counts attempted and failed runs and prints each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def checked(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)

    def run(self, label: str, run):
        """Call run(); a raise counts as a failed run. Returns the outcome or None."""
        gc.collect()
        try:
            return run()
        except Exception as exc:  # a crashing run is a failed run
            self.checked(label, [f"raised {exc!r}"])
            return None

    def attempt(self, label: str, gate, run):
        """Call run(); gate its outcome. Returns the outcome or None."""
        outcome = self.run(label, run)
        if outcome is not None:
            self.checked(label, gate.check(outcome))
        return outcome


def measure(workload, text: str, seed: int, seconds: float, session: Session,
            gate) -> dict[str, list[float]]:
    """Closed loop of full runs for `seconds`.

    A reference pass (calibrate.py) runs before the first repetition, after
    each one and between its phases; every phase is scaled to the reference
    speed with the passes on either side of it. raw_total_s keeps the
    unscaled totals.
    """
    times: dict[str, list[float]] = {name: [] for name in (
        "setup_s", "total_s", "run_s", "raw_total_s", "events_per_s")}
    refs = [reference_seconds()]

    def scaled(phase_s: float, before: float, after: float) -> float:
        return phase_s * REF_NOMINAL_S / ((before + after) / 2)

    deadline = time.perf_counter() + seconds
    while True:
        outcome = session.attempt(
            workload.name, gate,
            lambda: run_once(workload, text, seed, lambda: refs.append(reference_seconds())))
        if outcome is None:
            break
        refs.append(reference_seconds())
        r0, r1, r2, r3 = refs[-4:]
        refs = [r3]
        setup_s = scaled(outcome.setup_s, r0, r1)
        run_s = scaled(outcome.run_s, r1, r2)
        times["setup_s"].append(setup_s)
        times["run_s"].append(run_s)
        times["total_s"].append(setup_s + run_s + scaled(outcome.output_s, r2, r3))
        times["raw_total_s"].append(outcome.total_s)
        times["events_per_s"].append(outcome.sim.events_processed / run_s)
        del outcome
        if time.perf_counter() >= deadline:
            break
    return times


def peak_memory_mb(workload, text: str, seed: int, session: Session, gate) -> float:
    """Heap peak of one run; the gate checks it after tracing stops, so
    the check's own allocations are not counted."""
    label = f"{workload.name} (tracemalloc)"
    gc.collect()
    tracemalloc.start()
    try:
        outcome = session.run(label, lambda: run_once(workload, text, seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if outcome is not None:
        session.checked(label, gate.check(outcome))
    return peak / 2 ** 20


def layer_metrics(workload, text: str, seed: int, session: Session, gate,
                  times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    with Tracer() as tracer:
        outcome = session.attempt(f"{workload.name} (traced)", gate,
                                  lambda: run_once(workload, text, seed))
    if outcome is None:
        sys.exit("the traced run failed; no per-layer metrics")
    print(tracer.table(), file=sys.stderr)

    report = json.loads(outcome.outputs["report.json"])
    frames = report["frames"]
    rounds = [counts for counts in report["rounds"].values()]
    completed = sum(r["completed"] for r in rounds)
    ended = sum(r["completed"] + r["aborted"] + r["lost"] for r in rounds)
    events = sum(tracer.events_by_kind.values())
    link_calls = tracer.entry("link_budget").calls
    setup_traced = tracer.entry("parse_scenario").total_s + tracer.entry("__init__").total_s
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        stats = tracer.layer(layer)
        metrics[f"{layer}.self_s"] = (stats.self_s, "s")
        metrics[f"{layer}.calls"] = (stats.calls, "count")
    metrics.update({
        "engine.events": (events, "count"),
        **{f"engine.events.{kind}": (tracer.events_by_kind[kind], "count")
           for kind in EVENT_KINDS},
        "engine.poll_wake_share": (_ratio(tracer.events_by_kind["poll_wake"], events), "ratio"),
        "engine.schedule_calls": (tracer.entry("schedule").calls, "count"),
        "engine.peak_pending": (tracer.peak_pending, "count"),
        "model.parse_s": (tracer.entry("parse_scenario").total_s, "s"),
        "model.validate_s": (tracer.entry("validate_scenario").total_s, "s"),
        "model.node_lookups": (tracer.entry("node").calls, "count"),
        "model.obstacles_on_path_calls": (tracer.entry("obstacles_on_path").calls, "count"),
        "model.segment_tests": (tracer.segment_tests, "count"),
        "propagation.link_budget_calls": (link_calls, "count"),
        "propagation.link_budget_unique_ratio": (_ratio(len(tracer.link_pairs), link_calls),
                                                 "ratio"),
        "protocol.build_parent_table_s": (tracer.entry("build_parent_table").total_s, "s"),
        "protocol.build_parent_table_share": (
            _ratio(tracer.entry("build_parent_table").total_s, setup_traced), "ratio"),
        "protocol.end_device_step_calls": (tracer.entry("end_device_step").calls, "count"),
        "protocol.coordinator_step_calls": (tracer.entry("coordinator_step").calls, "count"),
        "protocol.route_path_calls": (tracer.entry("route_path").calls, "count"),
        "protocol.round_success_ratio": (_ratio(completed, ended), "ratio"),
        "power.advance_calls": (tracer.entry("advance").calls, "count"),
        "power.charge_slice_calls": (tracer.entry("charge_slice").calls, "count"),
        "power.deaths": (sum(1 for entry in report["power"].values()
                             if entry.get("dead_at_s") is not None), "count"),
        "sensors.sample_calls": (tracer.entry("sample").calls, "count"),
        "simulation.events_per_s": (statistics.median(times["events_per_s"]), "1/s"),
        "simulation.dead_skips": (outcome.sim.dead_skips, "count"),
        "simulation.frames_sent": (frames["sent"], "count"),
        "simulation.frame_delivery_ratio": (_ratio(frames["delivered"], frames["sent"]),
                                            "ratio"),
        "simulation.buffered_frames": (tracer.entry("buffer_for").calls, "count"),
        "report.build_report_calls": (tracer.entry("build_report").calls, "count"),
        "report.stats_calls": (tracer.stats_calls_from_report, "count"),
        "report.output_bytes": (sum(len(outcome.outputs[name].encode()) for name in
                                    ("report.json", "report.txt", "samples.csv")), "bytes"),
        "report.trace_bytes": (len(outcome.outputs.get("trace.tsv", "").encode()), "bytes"),
        "trace.overhead_s": (outcome.total_s - statistics.median(times["raw_total_s"]), "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    text = workload.scenario(args.seed)

    goldens = load_goldens()
    session = Session()
    for name, problems in check_shipped(goldens).items():
        session.checked(name, problems)
    gate = Gate(goldens, goldens["workloads"][workload.name].get(str(args.seed)))

    times = measure(workload, text, args.seed, args.seconds, session, gate)
    if not times["total_s"]:
        sys.exit(f"every run of {workload.name} failed")
    if args.trace:
        metrics = layer_metrics(workload, text, args.seed, session, gate, times)
    else:
        metrics = {
            "setup_s": (statistics.median(times["setup_s"]), "s"),
            "total_s": (statistics.median(times["total_s"]), "s"),
            "node_days_per_s": (statistics.median(workload.node_days / run_s
                                                  for run_s in times["run_s"]), "node-day/s"),
            "peak_mem_mb": (peak_memory_mb(workload, text, args.seed, session, gate), "MiB"),
        }

    print(f"{workload.name} seed={args.seed} runs={len(times['total_s'])} "
          f"unscaled median total_s={statistics.median(times['raw_total_s']):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {_ratio(session.failed, session.attempted):>14.6g} ratio "
          f"({session.failed} of {session.attempted} runs failed)")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
