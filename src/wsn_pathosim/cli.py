"""Command line front end.

Subcommands:

* ``run``        simulate a scenario for a given horizon and write outputs
* ``linkbudget`` print the attenuation breakdown between two nodes, from the
                 paper's measured path-loss anchors (one fixed table)
* ``lifetime``   closed-form battery lifetime estimate for an End Device
* ``repl``       drive a simulation interactively, one event at a time

Exit codes: 0 on success, 2 for scenario or usage problems, 1 for anything
unexpected. A successful command writes nothing to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from . import report
from .model import NodeRole, ScenarioConfig, ScenarioError, load_scenario
from .power import (CyclicSleepConfig, PowerState, average_current, estimate_lifetime)
from .propagation import is_connected, link_budget
from .simulation import Simulation, check_scenario

_ACTIVE_STATES = {"sleeping": PowerState.SLEEPING,
                  "awake_idle": PowerState.AWAKE_IDLE,
                  "transmitting": PowerState.TRANSMITTING}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsn-pathosim",
        description="Deterministic simulator for cyclic-sleep sensor networks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write outputs")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--until", required=True, type=float,
                     help="virtual horizon in seconds (finite)")
    run.add_argument("--seed", type=int, default=None,
                     help="run the scenario with this seed in place of its own")
    run.add_argument("--out", default="out",
                     help="output directory (default: out)")
    run.add_argument("--trace", default=None,
                     help="also write a per-event trace to this TSV file")
    run.set_defaults(handler=_cmd_run)

    lb = sub.add_parser("linkbudget", help="attenuation breakdown for one link")
    lb.add_argument("--scenario", required=True)
    lb.add_argument("--from", dest="src", required=True, type=int,
                    help="transmitting node id")
    lb.add_argument("--to", dest="dst", required=True, type=int,
                    help="receiving node id")
    lb.add_argument("--json", action="store_true", help="machine-readable output")
    lb.set_defaults(handler=_cmd_linkbudget)

    life = sub.add_parser("lifetime", help="closed-form lifetime estimate")
    life.add_argument("--scenario", required=True)
    life.add_argument("--node", required=True, type=int, help="end device id")
    life.add_argument("--active-s", type=float, default=0.0,
                      help="active seconds per effective cycle (default: 0)")
    life.add_argument("--active-state", choices=sorted(_ACTIVE_STATES),
                      default="transmitting",
                      help="state charged during the active stretch")
    life.add_argument("--json", action="store_true", help="machine-readable output")
    life.set_defaults(handler=_cmd_lifetime)

    repl = sub.add_parser("repl", help="interactive stepping")
    repl.add_argument("--scenario", required=True)
    repl.add_argument("--seed", type=int, default=None,
                      help="run the scenario with this seed in place of its own")
    repl.add_argument("--out", default=None,
                      help="write samples.csv/report.json/report.txt here on quit")
    repl.add_argument("--trace", default=None, help="write the trace here on quit")
    repl.set_defaults(handler=_cmd_repl)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


def _write_outputs(sim: Simulation, out_dir: str | None, trace_path: str | None) -> str:
    """Write every output from one report into out_dir and the trace to
    trace_path, each if given, making missing directories; return the text
    of report.txt ("" without out_dir)."""
    text = ""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "samples.csv").write_text(report.samples_csv(sim))
        numbers = report.build_report(sim)
        text = report.render_text(numbers)
        (out / "report.json").write_text(report.render_json(numbers))
        (out / "report.txt").write_text(text)
    if trace_path is not None:
        trace = Path(trace_path)
        trace.parent.mkdir(parents=True, exist_ok=True)
        trace.write_text(sim.trace_text())
    return text


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The --scenario file, with --seed in place of its seed if given."""
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    sim = Simulation(_scenario(args), trace=args.trace is not None)
    sim.run_until(args.until)
    print(_write_outputs(sim, args.out, args.trace), end="")
    return 0


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    config = check_scenario(load_scenario(args.scenario))  # refused as run refuses it
    if args.src == args.dst:
        print("error: --from and --to must differ", file=sys.stderr)
        return 2
    budget = link_budget(config, args.src, args.dst)
    sensitivity = config.node(args.dst).radio.sensitivity_dbm
    connected = is_connected(budget, sensitivity)
    if args.json:
        doc = {"from": args.src, "to": args.dst,
               "distance_m": budget.distance,
               "free_space_loss_db": budget.free_space_loss,
               "obstacle_losses_db": [[label, db] for label, db in budget.obstacle_losses],
               "total_attenuation_db": budget.total_attenuation,
               "tx_power_dbm": budget.tx_power,
               "received_power_dbm": budget.received_power,
               "sensitivity_dbm": sensitivity,
               "connected": connected}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"link {args.src} -> {args.dst}")
    print(f"  distance          {budget.distance:.3f} m")
    print(f"  free space loss   {budget.free_space_loss:.2f} dB")
    for label, db in budget.obstacle_losses:
        print(f"  {label:<17} {db:.2f} dB")
    print(f"  total attenuation {budget.total_attenuation:.2f} dB")
    print(f"  tx power          {budget.tx_power:.2f} dBm")
    print(f"  received power    {budget.received_power:.2f} dBm")
    print(f"  sensitivity       {sensitivity:.2f} dBm")
    print(f"  connected         {'yes' if connected else 'no'}")
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    config = check_scenario(load_scenario(args.scenario))  # refused as run refuses it
    node = config.node(args.node)
    if node.role is not NodeRole.END_DEVICE:
        print(f"error: node {args.node} is not a battery-powered end device",
              file=sys.stderr)
        return 2
    assert node.battery is not None and node.sample_period_s is not None  # validated
    sleep = CyclicSleepConfig.from_periods(node.sample_period_s,
                                           node.radio.poll_period_s)
    state = _ACTIVE_STATES[args.active_state]
    average = average_current(config.consumption, sleep.effective_period_s,
                              args.active_s, state)
    hours = estimate_lifetime(node.battery.capacity_mah, average)
    if args.json:
        doc = {"node": args.node,
               "requested_period_s": sleep.sample_period_s,
               "poll_period_s": sleep.poll_period_s,
               "multiplier": sleep.multiplier,
               "effective_period_s": sleep.effective_period_s,
               "active_s": args.active_s,
               "active_state": args.active_state,
               "average_ma": average,
               "battery_capacity_mah": node.battery.capacity_mah,
               "lifetime_h": hours}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"node {args.node}")
    print(f"  requested period  {sleep.sample_period_s} s")
    print(f"  poll period       {sleep.poll_period_s} s")
    print(f"  multiplier        {sleep.multiplier}")
    print(f"  effective period  {sleep.effective_period_s} s")
    print(f"  active stretch    {args.active_s} s as {args.active_state}")
    print(f"  average current   {average:.4f} mA")
    print(f"  battery           {node.battery.capacity_mah:.1f} mAh")
    print(f"  lifetime          {hours:.2f} h ({hours / 24:.2f} days)")
    return 0


def _repl_status(sim: Simulation) -> str:
    sim.poll_wakes_elided  # books the passed polls, as stats() does, before a ledger is read
    lines = [f"clock {sim.now / 1e6:.6f} s, {sim.events_processed} events processed,"
             f" {len(sim.queue)} pending"]
    for node_id, runtime in sim.runtimes.items():
        spec = runtime.spec
        parts = [f"node {node_id} {spec.role.value}"]
        state = runtime.device_state
        if state is not None:
            parts.append(f"phase={state.phase.value}")
            ledger, sleep = runtime.ledger, runtime.sleep
            assert sleep is not None
            if ledger.battery_capacity_mah is not None:
                parts.append(f"battery={ledger.battery_remaining_mah:.3f}"
                             f"/{ledger.battery_capacity_mah:.1f} mAh")
            parts.append(f"period={sleep.sample_period_s} s")
            if state.pending_period_s is not None:
                parts.append(f"pending={state.pending_period_s} s")
            parent = sim.parent_table.parent.get(node_id)
            parts.append(f"parent={parent if parent is not None else 'unreachable'}")
        lines.append("  " + " ".join(parts))
    return "\n".join(lines)


def _cmd_repl(args: argparse.Namespace) -> int:
    sim = Simulation(_scenario(args), trace=args.trace is not None)
    prompt = "pathosim> " if sys.stdin.isatty() else ""
    print("commands: step, run-until <s>, set-period <node> <seconds>,"
          " status, dump-samples <path>, quit")
    while True:
        try:
            line = input(prompt)
        except EOFError:
            break
        tokens = line.split()
        if not tokens:
            continue
        command = tokens[0]
        try:
            if command == "quit":
                break
            elif command == "step":
                event = sim.step()
                if event is None:
                    print("no pending events")
                else:
                    node = event.node if event.node is not None else "-"
                    print(f"t={event.at / 1e6:.6f} s {event.kind.value} node={node}")
            elif command == "run-until" and len(tokens) == 2:
                sim.run_until(float(tokens[1]))
                print(f"clock {sim.now / 1e6:.6f} s, {sim.events_processed} events processed")
            elif command == "set-period" and len(tokens) == 3:
                sim.inject_set_period(int(tokens[1]), int(tokens[2]))
                print(f"queued set-period {tokens[2]} s for node {tokens[1]}")
            elif command == "status":
                print(_repl_status(sim))
            elif command == "dump-samples" and len(tokens) == 2:
                Path(tokens[1]).write_text(report.samples_csv(sim))
                print(f"wrote {len(sim.records)} samples to {tokens[1]}")
            else:
                print(f"unknown command: {line.strip()}")
        except (ScenarioError, ValueError, OSError) as exc:
            print(f"error: {exc}")
    _write_outputs(sim, args.out, args.trace)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
