"""trace.tsv lines follow the format documented in docs/protocol.md,
"Trace lines": the tables there are parsed and every line of real traces is
matched against the pattern for its kind."""

import re
from pathlib import Path

from test_golden import run_case
from wsn_pathosim.engine import EventKind
from wsn_pathosim.protocol import MessageKind

PROTOCOL_DOC = Path(__file__).resolve().parent.parent / "docs" / "protocol.md"

_FLOAT = r"-?(?:\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+)"
PLACEHOLDERS = {
    "<tick>": r"\d+", "<id>": r"\d+", "<n>": r"\d+", "<float>": _FLOAT,
    "<frame>": rf"(?:{'|'.join(MessageKind.__members__)}) \d+->\d+ seq=\d+",
    "<reason>": "(?:no_route|node_dead|buffer_full)",
    "<outcome>": "(?:completed|aborted|lost)",
}


def documented_details() -> tuple[dict[str, re.Pattern], dict[str, re.Pattern]]:
    """(event kinds, actions): each kind's detail pattern, from the two
    tables of the "Trace lines" section."""
    section = PROTOCOL_DOC.read_text().split("## Trace lines", 1)[1].split("\n## ", 1)[0]
    tables: list[dict[str, re.Pattern]] = []
    for line in section.splitlines():
        if re.match(r"\| kind +\|", line):  # a table's header row
            tables.append({})
        row = re.fullmatch(r"\| `(\w+)` +\|[^|]+\| (.+?) +\|", line)
        if row is None:
            continue
        kind, detail = row.groups()
        pattern = "" if detail == "empty" else detail.strip("`")
        for placeholder in re.findall(r"<\w+>", pattern):
            assert placeholder in PLACEHOLDERS, f"{kind}: unknown placeholder {placeholder}"
        pattern = re.escape(pattern)
        for placeholder, regex in PLACEHOLDERS.items():
            pattern = pattern.replace(re.escape(placeholder), regex)
        tables[-1][kind] = re.compile(pattern)
    events, actions = tables
    return events, actions


def test_the_event_table_lists_every_event_kind():
    events, actions = documented_details()
    assert set(events) == {kind.value for kind in EventKind}
    assert set(actions) == {"send", "deliver", "buffer", "drop", "round", "period", "death"}


def test_every_trace_line_matches_its_documented_pattern():
    events, actions = documented_details()
    seen = set()
    # a drain case (deaths, drops, staged SET_PERIOD) and two aligned cases:
    # strain gauges add warmup_done, and aligned/1 has guards and response
    # timeouts that fire while they still act (stale ones are cancelled)
    for case in ("drain/0.3", "aligned/0", "aligned/1"):
        lines = run_case(case).trace_text().splitlines()
        assert lines
        for line in lines:
            tick, seq, kind, node, detail = line.split("\t")
            assert re.fullmatch(r"\d+", tick), line
            assert re.fullmatch(r"\d+|-", node), line
            if seq == "-":
                pattern = actions[kind]
            else:
                assert re.fullmatch(r"\d+", seq), line
                pattern = events[kind]
            assert pattern.fullmatch(detail), line
            seen.add(kind)
    assert seen == set(events) | set(actions)
