"""Run reports: one JSON document, an aligned text rendering of the same
numbers, and the sample log as CSV. build_report gathers the numbers once;
render_json and render_text format what it returns.

The JSON layout is deliberately stable (insertion-ordered dicts, stringified
node ids for keys) so that two identical runs serialize to identical bytes.
report.json is byte for byte json.dumps(report, indent=2) plus a newline,
written by jsontext.dumps_indent2, which takes str keys only: every key of
the report is a str.
"""

from __future__ import annotations

from .jsontext import dumps_indent2
from .protocol import SAMPLE_LOG_HEADER, sample_log_row
from .simulation import Simulation


def build_report(sim: Simulation) -> dict:
    stats = sim.stats()
    report: dict = {
        "seed": sim.seed,
        "clock_s": stats.clock_s,
        "events_processed": stats.events_processed,
        "poll_wakes_elided": stats.poll_wakes_elided,
        "channel": sim.channel,
        "parents": {str(child): parent
                    for child, parent in sorted(sim.parent_table.parent.items())
                    if parent is not None},
        "unreachable": list(stats.unreachable),
        "frames": {
            "sent": stats.frames_sent,
            "delivered": stats.frames_delivered,
            "dropped": stats.total_dropped,
            "dropped_by_reason": dict(sorted(stats.frames_dropped.items())),
            "buffered_pending": stats.frames_buffered_pending,
            "in_flight": stats.frames_in_flight,
        },
        "samples_per_node": {str(node): count
                             for node, count in sorted(stats.samples_per_node.items())},
        "errors_seen": dict(sorted(stats.errors_seen.items())),
        "rounds": {str(node): counts for node, counts in sorted(stats.rounds.items())},
        "cyclic_sleep": {},
        "power": {},
    }
    for node, sleep in sorted(stats.cyclic_sleep.items()):
        report["cyclic_sleep"][str(node)] = {
            "requested_period_s": sleep.sample_period_s,
            "poll_period_s": sleep.poll_period_s,
            "multiplier": sleep.multiplier,
            "effective_period_s": sleep.effective_period_s,
        }
    for node, energy in sorted(stats.energy.items()):
        entry: dict = {
            "state_durations_s": dict(sorted(energy.durations_s.items())),
            "consumed_mah": energy.consumed_mah,
            "average_ma": energy.average_ma,
        }
        if energy.battery_capacity_mah is not None:
            entry["battery_capacity_mah"] = energy.battery_capacity_mah
            entry["remaining_mah"] = energy.remaining_mah
            entry["dead_at_s"] = energy.dead_at_s
            if energy.dead_at_s is None and energy.average_ma:
                entry["projected_lifetime_h"] = (
                    energy.battery_capacity_mah / energy.average_ma)
        report["power"][str(node)] = entry
    return report


def report_json(sim: Simulation) -> str:
    return render_json(build_report(sim))


def report_text(sim: Simulation) -> str:
    return render_text(build_report(sim))


def render_json(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2) + "\\n"; every key must be
    a str (jsontext.dumps_indent2)."""
    return dumps_indent2(report) + "\n"


def render_text(report: dict) -> str:
    lines: list[str] = []
    lines.append(f"clock            {report['clock_s']:.3f} s")
    lines.append(f"seed             {report['seed']}")
    lines.append(f"events processed {report['events_processed']}")
    lines.append(f"polls elided     {report['poll_wakes_elided']}")
    channel = report["channel"]
    lines.append(f"channel          {channel if channel is not None else 'n/a'}")
    lines.append("")
    lines.append("topology")
    for child, parent in report["parents"].items():
        lines.append(f"  node {child} -> parent {parent}")
    for node in report["unreachable"]:
        lines.append(f"  node {node} unreachable")
    lines.append("")
    frames = report["frames"]
    lines.append("frames")
    lines.append(f"  sent      {frames['sent']}")
    lines.append(f"  delivered {frames['delivered']}")
    lines.append(f"  dropped   {frames['dropped']}")
    for reason, count in frames["dropped_by_reason"].items():
        lines.append(f"    {reason:<12} {count}")
    lines.append(f"  buffered  {frames['buffered_pending']}")
    if frames["in_flight"]:
        lines.append(f"  in flight {frames['in_flight']}")
    lines.append("")
    lines.append("samples")
    if report["samples_per_node"]:
        for node, count in report["samples_per_node"].items():
            lines.append(f"  node {node}: {count}")
    else:
        lines.append("  none")
    if report["errors_seen"]:
        lines.append("")
        lines.append("errors seen")
        for name, count in report["errors_seen"].items():
            lines.append(f"  {name}: {count}")
    lines.append("")
    lines.append("rounds")
    for node, counts in report["rounds"].items():
        lines.append(f"  node {node}: completed={counts['completed']}"
                     f" aborted={counts['aborted']} lost={counts['lost']}")
    lines.append("")
    lines.append("cyclic sleep")
    for node, sleep in report["cyclic_sleep"].items():
        lines.append(f"  node {node}: requested={sleep['requested_period_s']} s"
                     f" poll={sleep['poll_period_s']} s"
                     f" multiplier={sleep['multiplier']}"
                     f" effective={sleep['effective_period_s']} s")
    lines.append("")
    lines.append("power")
    for node, entry in report["power"].items():
        # one string per node: a 1000-node report would keep about 9,000
        # line strings alive until the final join
        node_lines = [f"  node {node}:"]
        for state, duration in entry["state_durations_s"].items():
            node_lines.append(f"    {state:<12} {duration:.6f} s")
        node_lines.append(f"    consumed     {entry['consumed_mah']:.6f} mAh")
        if entry["average_ma"] is not None:
            node_lines.append(f"    average      {entry['average_ma']:.4f} mA")
        if "battery_capacity_mah" in entry:
            node_lines.append(f"    capacity     {entry['battery_capacity_mah']:.2f} mAh")
            node_lines.append(f"    remaining    {entry['remaining_mah']:.6f} mAh")
            if entry["dead_at_s"] is not None:
                node_lines.append(f"    died at      {entry['dead_at_s']:.3f} s")
            elif "projected_lifetime_h" in entry:
                node_lines.append(f"    projected    {entry['projected_lifetime_h']:.2f} h")
        lines.append("\n".join(node_lines))
    return "\n".join(lines) + "\n"


def samples_csv(sim: Simulation) -> str:
    rows = [SAMPLE_LOG_HEADER]
    rows.extend(sample_log_row(record) for record in sim.records)
    return "\n".join(rows) + "\n"
