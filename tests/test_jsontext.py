"""dumps_indent2 writes the bytes of json.dumps(value, indent=2), through the
C encoder or, without one, through the public encoder, and holds less than
the pure-Python encoder while it does."""

import json
import json.encoder
import math
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SCENARIO_DIR, make_config
from wsn_pathosim.jsontext import _level, dumps_indent2
from wsn_pathosim.model import parse_scenario, serialize_scenario
from wsn_pathosim.report import build_report, render_json
from wsn_pathosim.simulation import Simulation

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e300)

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2 ** 256), max_value=2 ** 256),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.text(alphabet=st.characters(min_codepoint=0x80)),
)
keys = st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=0x1F)))
documents = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.lists(children, max_size=6).map(tuple),
                               st.dictionaries(keys, children, max_size=6)),
    max_leaves=40)


EXAMPLES = (
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": [1, {"e": []}, 2.5, "x"]},
    {"é\x00": [math.nan, math.inf, -math.inf, -0.0, 1e300, 2 ** 100, -(2 ** 70)]},
    [True, False, None, {"k": [None]}, "☃\n\t\"\\"],
    # runs of scalar and empty members between containers, at both ends
    {"a": 1, "b": [], "c": {"d": [2]}, "e": None, "f": {}, "g": [3, [4]], "h": "x"},
    [[1], 2, (), {}, 3.5, [[]], "y", [5], [], 6],
)


def on_documents(test):
    """Run `test` on 200 drawn documents and on EXAMPLES."""
    for value in EXAMPLES:
        test = example(value)(test)
    return settings(max_examples=200)(given(documents)(test))


@contextmanager
def without_c_encoder():
    """dumps_indent2 as it runs where json.encoder.c_make_encoder is None;
    yields the C encoder type it hides (None on an interpreter without)."""
    c_make_encoder = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    _level.cache_clear()
    try:
        yield c_make_encoder
    finally:
        json.encoder.c_make_encoder = c_make_encoder
        _level.cache_clear()


@on_documents
def test_dumps_indent2_is_json_dumps_indent_2(value):
    assert dumps_indent2(value) == json.dumps(value, indent=2)


@on_documents
def test_the_fallback_writer_is_json_dumps_indent_2(value):
    with without_c_encoder() as c_make_encoder:
        assert c_make_encoder is None or not isinstance(_level(0)[2], c_make_encoder)
        assert dumps_indent2(value) == json.dumps(value, indent=2)


def test_a_failed_call_leaves_no_state_behind():
    """A C encoder that raises keeps the containers it was inside as
    markers, and would take the same containers, written again once
    mended, for a cycle; the encoders are built anew after an error."""
    document = {"a": [1, {"b": [object()]}], "c": [[object()], 2]}
    with pytest.raises(TypeError):
        dumps_indent2(document)
    document["a"][1]["b"][0] = 3
    with pytest.raises(TypeError):
        dumps_indent2(document)
    document["c"][0][0] = None
    assert dumps_indent2(document) == json.dumps(document, indent=2)


def building_doc(devices: int) -> dict:
    """A coordinator and `devices` end devices on a 2 m grid around it, all
    sampling every 1800 s on a 28 s poll."""
    side = math.ceil(math.sqrt(devices))
    nodes = [{"id": 0, "role": "coordinator", "position": {"x": 0.5, "y": 0.5}}]
    for i in range(devices):
        nodes.append({"id": i + 1, "role": "end_device",
                      "position": {"x": 2.0 * (i % side - side / 2),
                                   "y": 2.0 * (i // side - side / 2)},
                      "sample_period_s": 1800.0,
                      "battery": {"capacity_mah": 1100.0},
                      "sensors": [{"kind": "displacement",
                                   "signal": {"shape": "constant", "level": 1.0}}]})
    return {"seed": 3, "channels": {}, "defaults": {"sensitivity_dbm": -90.0},
            "nodes": nodes, "obstacles": []}


def test_rendering_a_1000_node_report_holds_at_most_three_times_its_length():
    """json.dumps(indent=2) peaked at about 7 times the length of the text it
    returned; the writer joins each container as soon as its members are
    written, so the children of one level and their join are what it holds."""
    sim = Simulation(make_config(building_doc(1000)))
    sim.run_until(600.0)
    report = build_report(sim)
    assert len(report["power"]) == 1001
    tracemalloc.start()
    try:
        text = render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(report, indent=2) + "\n"
    assert peak <= 3 * len(text)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_a_serialized_scenario_is_its_json_dumps_indent_2(path):
    text = serialize_scenario(parse_scenario(path.read_text()))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
