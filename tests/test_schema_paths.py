"""Every schema path a refusal names is pinned.

Each shipped scenario is serialized with every optional key set: a sensor of
each signal shape, one node with its own radio, an obstacle with its own
attenuation, a channel and an airtime override. Then, one edit at a time,
every value in the document is replaced by a value of the wrong type, an
unknown key is added to every object, and every key is deleted. Each
refusal must name the path of what was edited: the replaced value, the
object holding the unknown key, or the object missing a required key.
"""

import dataclasses
import json
import re

import pytest

from conftest import SCENARIO_DIR
from wsn_pathosim.model import (Obstacle, ObstacleKind, Position, RadioConfig, SchemaError,
                                load_scenario, parse_scenario, serialize_scenario)
from wsn_pathosim.sensors import Constant, Ramp, SensorKind, SensorSpec, Sinusoid

SCENARIOS = sorted(path.name for path in SCENARIO_DIR.glob("*.json"))

# The keys whose deletion is refused, per object path with item indexes
# dropped. A node's radio is the exception: without it the node takes the
# defaults object's radio keys, which a serialized document does not hold, so
# that refusal names the radio and its one required key.
REQUIRED = {
    "$": {"nodes"},
    "$.nodes[]": {"id", "role", "position"},
    "$.nodes[].position": {"x", "y"},
    "$.nodes[].radio": {"sensitivity_dbm"},
    "$.nodes[].sensors[]": {"kind", "signal"},
    "$.nodes[].sensors[].signal": {"shape", "level", "start", "slope_per_hour", "mean",
                                   "amplitude", "period_hours"},
    "$.obstacles[]": {"kind", "from", "to"},
    "$.obstacles[].from": {"x", "y"},
    "$.obstacles[].to": {"x", "y"},
}


def full_document(name: str) -> dict:
    """The scenario serialized with every optional key of the schema set."""
    config = load_scenario(str(SCENARIO_DIR / name))
    sensors = (SensorSpec(SensorKind.STRAIN_GAUGE, Constant(2.0), 0.1, heat_duration_s=30.0),
               SensorSpec(SensorKind.DISPLACEMENT, Ramp(1.0, 0.5)),
               SensorSpec(SensorKind.TEMPERATURE_CATHETER, Sinusoid(20.0, 2.0, 24.0)))
    nodes = [dataclasses.replace(node, sensors=sensors) if node.sample_period_s else node
             for node in config.nodes]
    nodes[0] = dataclasses.replace(nodes[0], radio=RadioConfig(-50.0, 5.0, 1.0, 20.0, 125_000.0))
    wall = (config.obstacles[0] if config.obstacles else
            Obstacle(ObstacleKind.BRICK_WALL, Position(1.0, -1.0), Position(1.0, 1.0)))
    obstacles = (dataclasses.replace(wall, attenuation_db=2.5),) + config.obstacles[1:]
    config = dataclasses.replace(config, nodes=tuple(nodes), obstacles=obstacles,
                                 channels=config.channels or {15: 0.5},
                                 tx_airtime_override_s=0.01)
    return json.loads(serialize_scenario(config))


def containers(value, path: str = "$"):
    """(path, object or array) of every object and array in a document."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from containers(item, f"{path}.{key}")
    elif isinstance(value, list):
        yield path, value
        for i, item in enumerate(value):
            yield from containers(item, f"{path}[{i}]")


def refusal(doc: dict) -> SchemaError:
    with pytest.raises(SchemaError) as info:
        parse_scenario(json.dumps(doc))
    return info.value


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_value_of_the_wrong_type_is_named_at_its_path(name):
    doc = full_document(name)
    named = []
    for path, container in list(containers(doc)):
        steps = ([(key, f".{key}") for key in container] if isinstance(container, dict)
                 else [(i, f"[{i}]") for i in range(len(container))])
        for key, step in steps:
            original = container[key]
            container[key] = {} if isinstance(original, list) else []
            error = refusal(doc)
            container[key] = original
            assert error.path == path + step
            assert re.fullmatch(rf"{re.escape(error.path)}: expected an? \w+, got (list|dict)",
                                str(error))
            named.append(error.path)
    for expected in ("$.seed", "$.defaults", "$.defaults.tx_airtime_s",
                     "$.defaults.consumption_profile.sleeping_ma", "$.nodes",
                     "$.nodes[0]", "$.nodes[0].position.floor", "$.nodes[0].radio.bitrate_bps",
                     "$.obstacles[0].from.x", "$.obstacles[0].attenuation_db"):
        assert expected in named
    assert any(re.fullmatch(r"\$\.channels\.\d+", path) for path in named)
    for suffix in (".battery.capacity_mah", ".sensors[0].heat_duration_s",
                   ".sensors[0].signal.level", ".sensors[1].signal.slope_per_hour",
                   ".sensors[2].signal.shape", ".sensors[2].signal.period_hours"):
        assert any(path.endswith(suffix) for path in named), suffix


@pytest.mark.parametrize("name", SCENARIOS)
def test_an_unknown_key_is_named_at_its_object(name):
    doc = full_document(name)
    for path, container in list(containers(doc)):
        if not isinstance(container, dict):
            continue
        container["zz_unknown"] = 1
        error = refusal(doc)
        del container["zz_unknown"]
        if path == "$.channels":  # channel ids are the keys there
            assert str(error) == "$.channels.zz_unknown: channel ids must be integers"
            assert error.path == "$.channels.zz_unknown"
        else:
            assert (error.path, str(error)) == (path, f"{path}: unknown key(s): zz_unknown")


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_deleted_key_is_refused_at_its_object_if_required(name):
    doc = full_document(name)
    for path, container in list(containers(doc)):
        if not isinstance(container, dict):
            continue
        general = re.sub(r"\[\d+\]", "[]", path)
        for key in list(container):
            items = list(container.items())
            del container[key]
            if general == "$.nodes[]" and key == "radio":
                error = refusal(doc)
                assert (error.path, str(error)) == (
                    f"{path}.radio", f"{path}.radio: missing required key(s): sensitivity_dbm")
            elif key in REQUIRED.get(general, ()):
                error = refusal(doc)
                assert (error.path, str(error)) == (
                    path, f"{path}: missing required key(s): {key}")
            else:
                parse_scenario(json.dumps(doc))
            container.clear()
            container.update(items)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["nodes"][-1].update(id=doc["nodes"][0]["id"]),
     "$.nodes[{last}].id: duplicate node id 0"),
    (lambda doc: doc.update(nodes=doc["nodes"][1:]), "$.nodes: scenario declares no coordinator"),
    (lambda doc: doc["nodes"][0]["position"].update(floor=256),
     "$.nodes[0].position.floor: must be in -255..255, got 256"),
    (lambda doc: doc["nodes"][-1]["sensors"][0]["signal"].update(shape="square"),
     "$.nodes[{last}].sensors[0].signal.shape: expected one of [constant, ramp, sinusoid],"
     " got 'square'"),
    (lambda doc: doc["nodes"][-1]["sensors"][2]["signal"].update(period_hours=0),
     "$.nodes[{last}].sensors[2].signal.period_hours: must be > 0"),
    (lambda doc: doc["defaults"].update(floor_loss_db=10**400),
     "$.defaults.floor_loss_db: expected a finite number, got an integer too large for a float"),
], ids=["duplicate_id", "no_coordinator", "floor_range", "shape", "period", "huge_int"])
def test_a_refusal_of_a_whole_value_names_its_path(edit, message):
    doc = full_document("three_node_building.json")
    edit(doc)
    error = refusal(doc)
    assert str(error) == message.format(last=len(doc["nodes"]) - 1)
    assert error.path == str(error).split(": ", 1)[0]


def test_a_document_that_is_not_an_object_is_refused_at_the_root():
    for text in ("[]", "3", '"nodes"'):
        with pytest.raises(SchemaError) as info:
            parse_scenario(text)
        assert info.value.path == "$"
