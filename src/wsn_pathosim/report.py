"""Run reports: one JSON document, an aligned text rendering of the same
numbers, and the sample log as CSV. The numbers are Simulation.stats(), the
one run summary; build_report returns it, and render_json and render_text
format what it returns.

The JSON layout is deliberately stable (insertion-ordered dicts, stringified
node ids for keys) so that two identical runs serialize to identical bytes.
report.json is byte for byte json.dumps(report, indent=2) plus a newline,
written by jsontext.dumps_indent2, which takes str keys only: every key of
the report is a str.

report.txt and samples.csv are each one str that grows in place by
TEXT_CHUNK_LINES lines at a time (_joined_lines), never a list of all lines.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

from .jsontext import dumps_indent2
from .protocol import SAMPLE_LOG_HEADER, sample_log_row
from .simulation import Simulation

# Lines appended at a time to a growing text: enough appends for CPython
# 3.11's specializer, which grows a str in place only after about ten, to
# take over (drain_traced's 5,946 sample rows: 6 appends at 1024, 24 at 256).
TEXT_CHUNK_LINES = 256


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
    return _joined_lines(_text_lines(report))


def _text_lines(report: dict) -> Iterator[str]:
    """The lines of report.txt, without their newlines."""
    yield f"clock            {report['clock_s']:.3f} s"
    yield f"seed             {report['seed']}"
    yield f"events processed {report['events_processed']}"
    yield f"polls elided     {report['poll_wakes_elided']}"
    channel = report["channel"]
    yield f"channel          {channel if channel is not None else 'n/a'}"
    yield ""
    yield "topology"
    for child, parent in report["parents"].items():
        yield f"  node {child} -> parent {parent}"
    for node in report["unreachable"]:
        yield f"  node {node} unreachable"
    yield ""
    frames = report["frames"]
    yield "frames"
    yield f"  sent      {frames['sent']}"
    yield f"  delivered {frames['delivered']}"
    yield f"  dropped   {frames['dropped']}"
    for reason, count in frames["dropped_by_reason"].items():
        yield f"    {reason:<12} {count}"
    yield f"  buffered  {frames['buffered_pending']}"
    if frames["in_flight"]:
        yield f"  in flight {frames['in_flight']}"
    yield ""
    yield "samples"
    if report["samples_per_node"]:
        for node, count in report["samples_per_node"].items():
            yield f"  node {node}: {count}"
    else:
        yield "  none"
    if report["errors_seen"]:
        yield ""
        yield "errors seen"
        for name, count in report["errors_seen"].items():
            yield f"  {name}: {count}"
    yield ""
    yield "rounds"
    for node, counts in report["rounds"].items():
        yield (f"  node {node}: completed={counts['completed']}"
               f" aborted={counts['aborted']} lost={counts['lost']}")
    yield ""
    yield "cyclic sleep"
    for node, sleep in report["cyclic_sleep"].items():
        yield (f"  node {node}: requested={sleep['requested_period_s']} s"
               f" poll={sleep['poll_period_s']} s"
               f" multiplier={sleep['multiplier']}"
               f" effective={sleep['effective_period_s']} s")
    yield ""
    yield "power"
    for node, entry in report["power"].items():
        yield f"  node {node}:"
        for state, duration in entry["state_durations_s"].items():
            yield f"    {state:<12} {duration:.6f} s"
        yield f"    consumed     {entry['consumed_mah']:.6f} mAh"
        if entry["average_ma"] is not None:
            yield f"    average      {entry['average_ma']:.4f} mA"
        if "battery_capacity_mah" in entry:
            yield f"    capacity     {entry['battery_capacity_mah']:.2f} mAh"
            yield f"    remaining    {entry['remaining_mah']:.6f} mAh"
            if entry["dead_at_s"] is not None:
                yield f"    died at      {entry['dead_at_s']:.3f} s"
            elif "projected_lifetime_h" in entry:
                yield f"    projected    {entry['projected_lifetime_h']:.2f} h"


def samples_csv(sim: Simulation) -> str:
    return _joined_lines(chain((SAMPLE_LOG_HEADER,), map(sample_log_row, sim.records)))


def _joined_lines(lines: Iterator[str]) -> str:
    """The lines, each followed by a newline, as one text."""
    # CPython 3.10-3.13 grow `text` in place: `+=` stores back to the local
    # that holds its only reference. Without that path (PEP 8 warns not to
    # rely on it) each append copies: slower, same bytes. 3.11 warms up on
    # the jump back of `while True`, not on that of `while chunk := ...`.
    text = ""
    while True:
        chunk = list(islice(lines, TEXT_CHUNK_LINES))
        if not chunk:
            return text
        chunk.append("")  # so the join ends in a newline too
        text += "\n".join(chunk)
