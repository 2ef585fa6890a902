"""The output texts, the trace, samples.csv and report.txt, are each one str
that grows in place, so no text is held twice: their bytes at the chunk
boundaries, and what each holds while it is built.

The memory tests read tracemalloc's peak. They rest on CPython growing a str
in place under `+=`, which its 3.11 specializer does only when no tracer is
set (a coverage or debugger tracer can turn it off), so they skip then.
"""

import sys
import tracemalloc

import pytest

from conftest import make_config
from test_jsontext import building_doc
from wsn_pathosim import report, simulation
from wsn_pathosim.protocol import SAMPLE_LOG_HEADER, sample_log_row
from wsn_pathosim.report import build_report, render_text, samples_csv
from wsn_pathosim.simulation import Simulation

CHUNK = report.TEXT_CHUNK_LINES

needs_specializer = pytest.mark.skipif(
    sys.gettrace() is not None, reason="a tracer can turn off CPython 3.11's in-place str growth")


def chatty_doc(devices: int) -> dict:
    """building_doc with every device sampling about each minute: a long
    trace and many records from a small simulation."""
    doc = building_doc(devices)
    for node in doc["nodes"][1:]:
        node["sample_period_s"] = 60.0
    return doc


@pytest.fixture(scope="module")
def sampled_run() -> Simulation:
    """Twenty devices sampling every 56 s (the 60 s asked for, as two polls
    of 28 s) for an hour: 1,280 records."""
    sim = Simulation(make_config(chatty_doc(20)))
    sim.run_until(3600.0)
    assert len(sim.records) == 1280
    return sim


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_samples_csv_is_the_joined_rows_at_the_chunk_boundaries(sampled_run, count):
    # the header is a line too: CHUNK - 1 records fill exactly one chunk
    records = sampled_run.records[:count]
    sim = Simulation(sampled_run.config)
    sim.records.extend(records)
    expected = "\n".join([SAMPLE_LOG_HEADER, *map(sample_log_row, records)]) + "\n"
    assert samples_csv(sim) == expected


@pytest.mark.parametrize("devices", [20, 21, 44, 45, 67, 68])
def test_render_text_is_the_joined_lines_around_the_chunk(devices):
    """report.txt has 26 + 11 * devices lines here: 246 and 257, 510 and
    521, 763 and 774 lines straddle one, two and three chunks."""
    sim = Simulation(make_config(building_doc(devices)))
    sim.run_until(60.0)
    numbers = build_report(sim)
    text = render_text(numbers)
    assert text.count("\n") == 26 + 11 * devices
    assert text == "\n".join(report._text_lines(numbers)) + "\n"


def chunk_bytes(longest: int) -> int:
    """What one chunk of lines of at most `longest` characters holds while
    it is joined: each line as a str, its list slot with room to grow, and
    its share of the join."""
    return CHUNK * (sys.getsizeof("") + 16 + 2 * longest)


def traced(build):
    """What build() returns, the memory held when it returns (the text
    itself, for a renderer) and the peak, both counted from the call."""
    tracemalloc.start()
    try:
        value = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current, peak


@needs_specializer
def test_a_long_trace_is_held_once():
    """Over a traced run of about 50 blocks, memory never rises more than a
    few blocks above what the run holds at its end, trace text included:
    the lines kept since the last join, as strings, and their join. Joining
    the blocks into a new text at the end held the trace twice."""
    sim = Simulation(make_config(chatty_doc(60)), trace=True)

    def run() -> str:
        sim.run_until(4200.0)
        return sim.trace_text()

    text, current, peak = traced(run)
    lines = text.count("\n")
    assert lines > 50 * simulation.TRACE_BLOCK_LINES
    block = len(text) * simulation.TRACE_BLOCK_LINES // lines
    assert peak - current <= 4 * block
    assert sim.trace_text() is text


@needs_specializer
def test_samples_csv_holds_its_length_and_one_chunk(sampled_run):
    """10,000 rows, about 40 chunks: at most one chunk is held beside the
    text. The rows as a list of strings, their join and that join with its
    last newline held it about four times over."""
    sim = Simulation(sampled_run.config)
    sim.records.extend((sampled_run.records * 9)[:10_000])
    text, current, peak = traced(lambda: samples_csv(sim))
    assert peak - current <= chunk_bytes(max(map(len, text.splitlines())))


@needs_specializer
def test_render_text_holds_its_length_and_one_chunk():
    """A 1000-node report, about 13,000 lines in 50 chunks: at most one
    chunk is held beside the text."""
    sim = Simulation(make_config(building_doc(1000)))
    sim.run_until(600.0)
    numbers = build_report(sim)
    text, current, peak = traced(lambda: render_text(numbers))
    assert peak - current <= chunk_bytes(max(map(len, text.splitlines())))
