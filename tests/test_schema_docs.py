"""docs/scenario-schema.md against the parser: the keys its tables list, the
defaults they give and the keys it says accept null."""

import copy
import dataclasses
import re
from pathlib import Path

import pytest

from conftest import make_config
from wsn_pathosim import model
from wsn_pathosim.model import RadioConfig, SchemaError, validate_scenario
from wsn_pathosim.protocol import WIRE_LENGTHS

SCHEMA_DOC = (Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.md").read_text()


def _section(heading: str) -> str:
    """The text under a heading of any level, up to the next heading."""
    return re.split(rf"\n#+ {re.escape(heading)}\n", SCHEMA_DOC, maxsplit=1)[1].split("\n#", 1)[0]


def _table(heading: str) -> dict[str, list[str]]:
    """The first table of a section: its cells after the first, keyed by the
    key the first cell quotes."""
    rows = {}
    for line in _section(heading).splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        key = re.fullmatch(r"`(\w+)`", cells[0])
        if line.startswith("|") and key:
            rows[key.group(1)] = cells[1:]
        elif rows and not line.startswith("|"):
            break
    return rows


DEFAULTS_TABLE = _table("`defaults`")
NODES_TABLE = _table("`nodes[]`")
SENSORS_TABLE = _table("`sensors[]`")
OBSTACLES_TABLE = _table("`obstacles[]`")

# Coordinator plus one end device that declares no battery and no radio, so
# every documented default applies to it.
MINIMAL = {
    "defaults": {"sensitivity_dbm": -40.0},
    "nodes": [
        {"id": 0, "role": "coordinator", "position": {"x": 0.0, "y": 0.0}},
        {"id": 1, "role": "end_device", "position": {"x": 2.0, "y": 0.0},
         "sample_period_s": 120.0},
    ],
}
RADIO_KEYS = {f.name for f in dataclasses.fields(RadioConfig)}
SAMPLE_VALUES = {"number": 1.0, "int": 1, "object": {}}


def _minimal(**defaults) -> dict:
    doc = copy.deepcopy(MINIMAL)
    doc["defaults"].update(defaults)
    return doc


def _parsed_default(config: model.ScenarioConfig, key: str):
    """Where the parser puts the value of defaults.<key>."""
    device = config.node(1)
    if key in RADIO_KEYS:
        return getattr(device.radio, key)
    if key == "battery_capacity_mah":
        return device.battery.capacity_mah
    if key == "tx_airtime_s":
        return config.tx_airtime_override_s
    return getattr(config, key)


def test_the_defaults_table_lists_exactly_the_keys_the_parser_accepts():
    assert set(DEFAULTS_TABLE) == model._DEFAULTS_KEYS
    for key, (kind, _, _) in DEFAULTS_TABLE.items():
        make_config(_minimal(**{key: SAMPLE_VALUES[kind]}))  # no unknown-key error
    with pytest.raises(SchemaError, match="unknown key"):
        make_config(_minimal(undocumented_knob=1.0))


@pytest.mark.parametrize("table, record", [
    (NODES_TABLE, model._NODE),
    (SENSORS_TABLE, model._SENSOR),
    (OBSTACLES_TABLE, model._OBSTACLE),
], ids=["nodes", "sensors", "obstacles"])
def test_each_record_table_lists_exactly_the_keys_the_parser_accepts(table, record):
    assert set(table) == record.names


def test_the_position_row_lists_exactly_the_position_keys():
    meaning = NODES_TABLE["position"][-1]
    assert set(re.findall(r'"(\w+)":', meaning)) == model._POSITION.names


def test_the_radio_row_lists_exactly_the_radio_config_fields():
    meaning = NODES_TABLE["radio"][-1]
    assert set(re.findall(r"`(\w+)`", meaning)) == RADIO_KEYS


@pytest.mark.parametrize("key", sorted(DEFAULTS_TABLE))
def test_each_documented_default_is_what_a_minimal_document_gets(key):
    _, default, meaning = DEFAULTS_TABLE[key]
    config = make_config(_minimal())
    if "**required**" in meaning:
        doc = _minimal()
        del doc["defaults"][key]
        with pytest.raises(SchemaError, match=key):
            make_config(doc)
    elif key == "consumption_profile":
        prose = re.findall(r"`(\w+_ma)`\s+\((?:default )?([\d.]+)\)", _section("`defaults`"))
        assert len(prose) == len(dataclasses.fields(config.consumption))
        for field, value in prose:
            assert getattr(config.consumption, field) == float(value)
    elif default == "—":
        assert _parsed_default(config, key) is None
    else:
        assert _parsed_default(config, key) == float(default)


def test_the_battery_row_gives_the_capacity_a_battery_object_gets():
    """A battery object's capacity, like an end device's without one, is the
    defaults' `battery_capacity_mah`, or its documented default."""
    assert "capacity defaults to `battery_capacity_mah`" in NODES_TABLE["battery"][-1]
    documented = float(DEFAULTS_TABLE["battery_capacity_mah"][1])
    for defaults, capacity in [({}, documented), ({"battery_capacity_mah": 900.0}, 900.0)]:
        for own, remaining in [({}, capacity), ({"remaining_mah": 10.0}, 10.0)]:
            doc = _minimal(**defaults)
            doc["nodes"][1]["battery"] = own
            battery = make_config(doc).node(1).battery
            assert (battery.capacity_mah, battery.remaining_mah) == (capacity, remaining)


# How to set each key the docs say accepts null, on a copy of MINIMAL with a
# router, a sensor and an obstacle added.
NULLABLE = {
    "tx_airtime_s": lambda doc: doc["defaults"],
    "radio": lambda doc: doc["nodes"][1],
    "battery": lambda doc: doc["nodes"][1],
    "sample_period_s": lambda doc: doc["nodes"][2],
    "heat_duration_s": lambda doc: doc["nodes"][1]["sensors"][0],
    "attenuation_db": lambda doc: doc["obstacles"][0],
}


def _fuller() -> dict:
    doc = _minimal()
    doc["nodes"][1]["sensors"] = [{"kind": "strain_gauge",
                                   "signal": {"shape": "constant", "level": 1.0}}]
    doc["nodes"].append({"id": 2, "role": "router", "position": {"x": 1.0, "y": 1.0}})
    doc["obstacles"] = [{"kind": "brick_wall", "from": {"x": 1.0, "y": -1.0},
                         "to": {"x": 1.0, "y": 1.0}}]
    return doc


def test_the_docs_name_the_keys_that_accept_null():
    paragraph = next(p for p in SCHEMA_DOC.split("\n\n") if "accept `null`" in p)
    quoted = set(re.findall(r"`(\w+)`", paragraph)) - {"null", "defaults", "SchemaError"}
    assert quoted == set(NULLABLE)


@pytest.mark.parametrize("key", sorted(NULLABLE))
def test_null_means_the_same_as_leaving_the_key_out(key):
    doc = _fuller()
    NULLABLE[key](doc)[key] = None
    assert make_config(doc) == make_config(_fuller())


@pytest.mark.parametrize("key", sorted(set(DEFAULTS_TABLE) - set(NULLABLE)))
def test_a_defaults_key_not_named_as_nullable_rejects_null(key):
    with pytest.raises(SchemaError, match=f"defaults.{key}"):
        make_config(_minimal(**{key: None}))


def test_the_one_tick_rule_names_the_durations_it_refuses_below_one_tick():
    """Each duration key of the tables is set to 0.1 us in turn (bitrate_bps
    to the rate at which the shortest frame takes that long); the bullet
    names exactly those refused for rounding to 0 ticks."""
    bullet = next(item for item in _section("Validation rules").split("\n* ")
                  if item.startswith("every positive duration rounds to at least one tick"))
    keys = [key for table in (DEFAULTS_TABLE, NODES_TABLE, SENSORS_TABLE)
            for key in table if key.endswith("_s")]
    refused = set()
    for key in keys + ["bitrate_bps"]:
        doc = _fuller()
        where = doc["defaults"]
        if key in NODES_TABLE:
            where = doc["nodes"][1]
        elif key in SENSORS_TABLE:
            where = doc["nodes"][1]["sensors"][0]
        where[key] = min(WIRE_LENGTHS) * 8 / 1e-7 if key == "bitrate_bps" else 1e-7
        refused |= {violation.field.rsplit(".", 1)[-1]
                    for violation in validate_scenario(make_config(doc))
                    if violation.rule.endswith("must round to at least one 1 us tick")}
    assert refused == set(re.findall(r"`(\w+)`", bullet))
