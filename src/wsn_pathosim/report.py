"""Run reports: one JSON document, an aligned text rendering of the same
numbers, and the sample log as CSV. The numbers are Simulation.stats(), the
one run summary; build_report returns it, and render_json and render_text
format what it returns.

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
    return sim.stats()


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
