import dataclasses
import inspect
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config, random_scenario_doc, two_node_doc
from topology_reference import (buildings, reference_link_budget,
                                reference_obstacles_on_path, scan_node)
from wsn_pathosim import model
from wsn_pathosim.model import (DEFAULT_FLOOR_LOSS_DB, MAX_FLOOR, FloorCrossing, NodeRole,
                                NodeSpec, Obstacle, ObstacleCrossing, ObstacleKind, Position,
                                RadioConfig, ScenarioConfig, ScenarioSyntaxError,
                                SchemaError, UnknownNodeError, obstacles_on_path,
                                parse_scenario, serialize_scenario, validate_scenario)
from wsn_pathosim.propagation import link_budget
from wsn_pathosim.sensors import SensorKind, Sinusoid
from wsn_pathosim.simulation import InvalidScenarioError, Simulation


def test_minimal_document_fills_documented_defaults():
    config = make_config(two_node_doc())
    ed = config.node(1)
    assert ed.radio.tx_power_dbm == 3.0
    assert ed.radio.poll_period_s == 28.0
    assert ed.radio.bitrate_bps == 250_000.0
    assert ed.radio.shadowing_sigma_db == 0.0
    assert config.floor_loss_db == 13.08
    assert config.warmup_delay_s == 120.0
    assert config.response_timeout_s == 5.0
    assert config.max_retries == 2
    assert config.seed == 1
    assert validate_scenario(config) == []


def test_node_radio_overrides_defaults():
    doc = two_node_doc(defaults={"tx_power_dbm": 5.0})
    doc["nodes"][1]["radio"] = {"tx_power_dbm": -2.0, "sensitivity_dbm": -55.0}
    config = make_config(doc)
    assert config.node(0).radio.tx_power_dbm == 5.0
    assert config.node(1).radio.tx_power_dbm == -2.0
    assert config.node(1).radio.sensitivity_dbm == -55.0


def test_end_device_battery_defaults_when_omitted():
    doc = two_node_doc(defaults={"battery_capacity_mah": 900.0})
    del doc["nodes"][1]["battery"]
    config = make_config(doc)
    battery = config.node(1).battery
    assert battery is not None
    assert battery.capacity_mah == 900.0
    assert battery.remaining_mah == 900.0  # full unless stated otherwise


def test_sensitivity_has_no_builtin_default():
    doc = two_node_doc()
    del doc["defaults"]["sensitivity_dbm"]
    with pytest.raises(SchemaError, match="sensitivity_dbm"):
        make_config(doc)


def test_malformed_json_reports_position():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario('{"nodes": [,]}')
    assert info.value.line == 1
    assert info.value.column > 0


def test_duplicate_node_ids_rejected_at_parse():
    doc = two_node_doc()
    doc["nodes"].append(dict(doc["nodes"][1]))
    with pytest.raises(SchemaError, match="duplicate"):
        make_config(doc)


def test_an_integer_too_large_for_a_float_is_a_schema_error():
    doc = two_node_doc(defaults={"warmup_delay_s": 10**401})
    with pytest.raises(SchemaError, match="integer too large for a float") as info:
        make_config(doc)
    assert info.value.path == "$.defaults.warmup_delay_s"


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on the digits of an int read from a string,
    set for the test whatever the interpreter was started with."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("place", ["seed", "coordinate"])
def test_an_integer_literal_past_the_digit_limit_is_a_syntax_error(int_digit_limit, place):
    doc = two_node_doc()
    if place == "seed":
        doc["seed"] = "LONG"
    else:
        doc["nodes"][1]["position"]["x"] = "LONG"
    text = json.dumps(doc).replace('"LONG"', "7" * (int_digit_limit + 700))
    with pytest.raises(ScenarioSyntaxError, match="limit"):
        parse_scenario(text)


def test_a_syntax_error_after_a_long_integer_keeps_its_position(int_digit_limit):
    text = '{"seed": ' + "7" * int_digit_limit + ',\n "nodes": [,]}'
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.column) == (2, 12)


@pytest.mark.parametrize("floor", [MAX_FLOOR, -MAX_FLOOR])
def test_the_floor_bound_is_inclusive(floor):
    doc = two_node_doc(ed_position={"x": 2.0, "y": 0.0, "floor": floor})
    assert validate_scenario(make_config(doc)) == []


@pytest.mark.parametrize("floor", [MAX_FLOOR + 1, -MAX_FLOOR - 1, 10**6, 10**9])
def test_a_floor_outside_the_bound_is_rejected_at_parse(floor):
    doc = two_node_doc(ed_position={"x": 2.0, "y": 0.0, "floor": floor})
    with pytest.raises(SchemaError, match=f"-{MAX_FLOOR}..{MAX_FLOOR}") as info:
        make_config(doc)
    assert info.value.path == "$.nodes[1].position.floor"
    wall = two_node_doc()
    wall["obstacles"] = [{"kind": "brick_wall", "from": {"x": 1.0, "y": -1.0, "floor": floor},
                          "to": {"x": 1.0, "y": 1.0, "floor": floor}}]
    with pytest.raises(SchemaError, match="obstacles\\[0\\].from.floor"):
        make_config(wall)


@pytest.mark.parametrize("floor", [MAX_FLOOR + 1, -10**9])
def test_validator_rejects_a_floor_outside_the_bound(floor):
    """Built in-process, so the parser's check is bypassed; never budgeted,
    since a link costs one step per floor between its ends."""
    config = make_config(two_node_doc())
    device = config.node(1)
    far = Position(device.position.x, device.position.y, floor)
    nodes = (config.nodes[0], dataclasses.replace(device, position=far))
    wall = Obstacle(ObstacleKind.BRICK_WALL, Position(1.0, -1.0, floor), Position(1.0, 1.0, floor))
    violations = validate_scenario(dataclasses.replace(config, nodes=nodes, obstacles=(wall,)))
    assert [(v.rule, v.node, v.field) for v in violations] == [
        (f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}", 1, "position.floor"),
        (f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}", None, "obstacles[0]")]


def test_scenario_without_coordinator_rejected_at_parse():
    doc = two_node_doc()
    doc["nodes"] = doc["nodes"][1:]
    with pytest.raises(SchemaError, match="coordinator"):
        make_config(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update({"extra": 1}),
    lambda d: d["nodes"][0].update({"colour": "red"}),
    lambda d: d["nodes"][1]["sensors"][0].update({"unit": "mm"}),
    lambda d: d["nodes"][1]["sensors"][0]["signal"].update({"phase": 0.0}),
    lambda d: d["defaults"].update({"mystery_knob": True}),
    lambda d: d["nodes"][1].update({"radio": {"sensitivity_dbm": -40, "agc": True}}),
])
def test_unknown_keys_rejected_everywhere(mutate):
    doc = two_node_doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        make_config(doc)


@pytest.mark.parametrize("mutate, path, options", [
    (lambda d: d["nodes"][1].update({"role": "relay"}), "$.nodes[1].role",
     "coordinator, router, end_device"),
    (lambda d: d["nodes"][1]["sensors"][0].update({"kind": "relay"}), "$.nodes[1].sensors[0].kind",
     "strain_gauge, displacement, temperature_catheter"),
    (lambda d: d.update({"obstacles": [{"kind": "relay", "from": {"x": 1.0, "y": -1.0},
                                        "to": {"x": 1.0, "y": 1.0}}]}), "$.obstacles[0].kind",
     "window_open_blinds, window_closed_blinds, wall_open_door, wall_closed_door, brick_wall"),
], ids=["node_role", "sensor_kind", "obstacle_kind"])
def test_unknown_enum_value_names_its_path_and_the_options(mutate, path, options):
    doc = two_node_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        make_config(doc)
    assert info.value.path == path
    assert str(info.value) == f"{path}: expected one of [{options}], got 'relay'"


@pytest.mark.parametrize("enum_cls", [NodeRole, SensorKind, ObstacleKind],
                         ids=lambda enum_cls: enum_cls.__name__)
def test_every_enum_value_parses_to_its_member(enum_cls):
    """Enum fields parse through {value: member} tables, not enum_cls(value):
    each table holds every member under its value, in member order (the
    order an error message lists the options in)."""
    table = {NodeRole: model._ROLES, SensorKind: model._SENSOR_KINDS,
             ObstacleKind: model._OBSTACLE_KINDS}[enum_cls]
    assert list(table.items()) == [(member.value, member) for member in enum_cls]
    for member in enum_cls:
        assert model._enum_value(table, member.value) is member


@pytest.mark.parametrize("radio", [5, "ab", [], False])
def test_a_radio_that_is_not_an_object_is_rejected(radio):
    doc = two_node_doc()
    doc["nodes"][1]["radio"] = radio
    with pytest.raises(SchemaError, match="expected an object") as info:
        make_config(doc)
    assert info.value.path == "$.nodes[1].radio"


def test_booleans_are_not_numbers():
    doc = two_node_doc()
    doc["nodes"][1]["position"]["x"] = True
    with pytest.raises(SchemaError):
        make_config(doc)


def test_seed_must_fit_unsigned_64_bits():
    """One rule, in the validator, for a file's seed and a config built in
    code: each seed out of range, or not an int (a float would fail in
    derive_seed, a bool would be reported as true), is one violation on
    `seed`."""
    config = make_config(two_node_doc())
    for seed in (-1, 1 << 64, 1.5, True):
        bad = dataclasses.replace(config, seed=seed)
        violations = validate_scenario(bad)
        assert [(v.field, v.rule) for v in violations] == [
            ("seed", "seed must be an unsigned 64-bit integer")]
        with pytest.raises(InvalidScenarioError, match="scenario.seed"):
            Simulation(bad)
    doc = two_node_doc()
    doc["seed"] = -1  # the parser reads any integer; the validator judges it
    assert [v.field for v in validate_scenario(make_config(doc))] == ["seed"]
    for seed in (0, (1 << 64) - 1):
        assert validate_scenario(dataclasses.replace(config, seed=seed)) == []


def test_channel_keys_must_be_integers():
    """Only an optional '-' and ASCII digits name a channel: int() would read
    full-width digits as channel 12, and raise a bare ValueError for a
    superscript digit or a doubled minus."""
    for key in ["eleven", "\u00b2", "--5", "\uff11\uff12"]:
        doc = two_node_doc()
        doc["channels"] = {key: 0.5}
        with pytest.raises(SchemaError) as info:
            make_config(doc)
        assert str(info.value) == f"$.channels.{key}: channel ids must be integers"


@pytest.mark.parametrize("mutate, path, keys", [
    (lambda d: d.pop("nodes"), "$", "nodes"),
    (lambda d: d["nodes"][1].pop("id"), "$.nodes[1]", "id"),
    (lambda d: [d["nodes"][1].pop(key) for key in ("role", "position")], "$.nodes[1]",
     "position, role"),
    (lambda d: d["nodes"][1]["position"].pop("y"), "$.nodes[1].position", "y"),
    (lambda d: d["nodes"][1]["sensors"][0].pop("signal"), "$.nodes[1].sensors[0]", "signal"),
    (lambda d: d["nodes"][1]["sensors"][0]["signal"].pop("shape"),
     "$.nodes[1].sensors[0].signal", "shape"),
    (lambda d: d["nodes"][1]["sensors"][0]["signal"].pop("level"),
     "$.nodes[1].sensors[0].signal", "level"),
    (lambda d: d["defaults"].pop("sensitivity_dbm"), "$.nodes[0].radio", "sensitivity_dbm"),
    (lambda d: d.update({"obstacles": [{"kind": "brick_wall", "from": {"x": 1.0, "y": 0.0}}]}),
     "$.obstacles[0]", "to"),
], ids=["nodes", "id", "role_and_position", "y", "signal", "shape", "level", "sensitivity",
        "to"])
def test_a_missing_required_key_is_named_at_its_object(mutate, path, keys):
    doc = two_node_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        make_config(doc)
    assert str(info.value) == f"{path}: missing required key(s): {keys}"


def test_unknown_node_lookup():
    config = make_config(two_node_doc())
    with pytest.raises(UnknownNodeError):
        config.node(99)
    assert config.has_node(1)
    assert not config.has_node(99)


def test_serialize_parse_round_trip_preserves_everything():
    doc = two_node_doc(
        sensor={"kind": "strain_gauge", "heat_duration_s": 45.0,
                "signal": {"shape": "ramp", "start": 4.0, "slope_per_hour": 0.25},
                "noise_sigma": 0.1},
        defaults={"tx_airtime_s": 0.5, "shadowing_sigma_db": 1.5,
                  "consumption_profile": {"sleeping_ma": 1.0, "awake_idle_ma": 2.0,
                                          "transmitting_ma": 3.0}})
    doc["obstacles"] = [
        {"kind": "window_closed_blinds", "from": {"x": 1.0, "y": -1.0, "floor": 2},
         "to": {"x": 1.0, "y": 1.0, "floor": 2}, "attenuation_db": 9.9}]
    doc["channels"] = {"11": 0.25, "26": 0.5}
    doc["nodes"][1]["position"]["floor"] = 2
    doc["nodes"][1]["battery"] = {"capacity_mah": 800.0, "remaining_mah": 123.5}
    config = make_config(doc)
    text = serialize_scenario(config)
    assert parse_scenario(text) == config
    assert serialize_scenario(parse_scenario(text)) == text


FINITE = st.floats(-1e6, 1e6, allow_nan=False)
POSITIVE = st.floats(1e-3, 1e6)
FLOORS = st.integers(-MAX_FLOOR, MAX_FLOOR)
SIGNALS = st.one_of(
    st.fixed_dictionaries({"shape": st.just("constant"), "level": FINITE}),
    st.fixed_dictionaries({"shape": st.just("ramp"), "start": FINITE, "slope_per_hour": FINITE}),
    st.fixed_dictionaries({"shape": st.just("sinusoid"), "mean": FINITE,
                           "amplitude": FINITE, "period_hours": POSITIVE}))


@st.composite
def scenario_docs(draw):
    """A random_scenario_doc with each optional key drawn: left out, set, or
    null where the schema accepts null."""
    doc, _ = random_scenario_doc(draw(st.integers(0, 2**16)))

    def maybe(target: dict, key: str, values) -> None:
        if draw(st.booleans()):
            target[key] = draw(values)

    maybe(doc["defaults"], "tx_airtime_s", st.none() | POSITIVE)
    maybe(doc["defaults"], "battery_capacity_mah", POSITIVE)
    maybe(doc["defaults"], "consumption_profile", st.fixed_dictionaries({}, optional={
        "sleeping_ma": POSITIVE, "awake_idle_ma": POSITIVE, "transmitting_ma": POSITIVE}))
    for node in doc["nodes"]:
        maybe(node, "radio", st.none() | st.just(node.get("radio", {})))
        maybe(node["position"], "floor", FLOORS)
        if node["role"] == "end_device":
            maybe(node, "battery", st.none() | st.fixed_dictionaries(
                {}, optional={"capacity_mah": POSITIVE, "remaining_mah": POSITIVE}))
            sensor = node["sensors"][0]
            maybe(sensor, "signal", SIGNALS)
            maybe(sensor, "heat_duration_s", st.none() | POSITIVE)
            if draw(st.booleans()):
                del sensor["noise_sigma"]
        else:
            maybe(node, "battery", st.none())
            maybe(node, "sample_period_s", st.none())
        sensors = draw(st.sampled_from(["as drawn", "left out", "empty"]))
        if sensors == "left out":
            node.pop("sensors", None)
        elif sensors == "empty":
            node["sensors"] = []
    for obstacle in doc["obstacles"]:
        maybe(obstacle, "attenuation_db", st.none() | POSITIVE)
        if draw(st.booleans()):
            obstacle["from"]["floor"] = obstacle["to"]["floor"] = draw(FLOORS)
    return doc


@settings(max_examples=200, deadline=None)
@given(scenario_docs())
def test_serialize_parse_round_trip_holds_for_every_optional_key(doc):
    config = make_config(doc)
    text = serialize_scenario(config)
    assert parse_scenario(text) == config
    assert serialize_scenario(parse_scenario(text)) == text
    assert all(node.get("sensors") != [] for node in json.loads(text)["nodes"])  # omitted


# ---------------------------------------------------------------------------
# validate_scenario
# ---------------------------------------------------------------------------


def _rules(config):
    return {violation.rule for violation in validate_scenario(config)}


def test_validator_requires_coordinator_id_zero():
    doc = two_node_doc()
    doc["nodes"][0]["id"] = 5
    doc["nodes"].insert(0, {"id": 0, "role": "router",
                            "position": {"x": 1.0, "y": 1.0}})
    rules = _rules(make_config(doc))
    assert any("reserved id 0" in rule for rule in rules)
    assert any("id 0 is reserved" in rule for rule in rules)


def test_validator_rejects_second_coordinator():
    doc = two_node_doc()
    doc["nodes"].append({"id": 7, "role": "coordinator",
                         "position": {"x": 5.0, "y": 5.0}})
    assert any("exactly one coordinator" in rule for rule in _rules(make_config(doc)))


def test_validator_rejects_mains_node_with_battery():
    doc = two_node_doc()
    doc["nodes"][0]["battery"] = {"capacity_mah": 100.0}
    assert any("mains powered" in rule for rule in _rules(make_config(doc)))


def test_validator_rejects_sample_period_below_poll_period():
    doc = two_node_doc(sample_period_s=10.0, poll_period_s=28.0)
    assert any("sample period must be >= poll period" in rule
               for rule in _rules(make_config(doc)))


def test_validator_rejects_battery_overfill():
    doc = two_node_doc()
    doc["nodes"][1]["battery"] = {"capacity_mah": 100.0, "remaining_mah": 150.0}
    assert any("remaining <= capacity" in rule for rule in _rules(make_config(doc)))


def test_validator_rejects_heat_duration_on_non_gauge():
    doc = two_node_doc(sensor={"kind": "displacement", "heat_duration_s": 10.0,
                               "signal": {"shape": "constant", "level": 0.0}})
    assert any("strain gauges only" in rule for rule in _rules(make_config(doc)))


def test_validator_rejects_out_of_band_channel():
    doc = two_node_doc()
    doc["channels"] = {"9": 0.1}
    assert any("11..26" in rule for rule in _rules(make_config(doc)))


def test_validator_rejects_degenerate_obstacle():
    doc = two_node_doc()
    doc["obstacles"] = [{"kind": "wall_open_door", "from": {"x": 1.0, "y": 1.0},
                         "to": {"x": 1.0, "y": 1.0}}]
    assert any("nonzero length" in rule for rule in _rules(make_config(doc)))


@pytest.mark.parametrize("end", [(1.0, math.inf), (math.nan, 1.0)], ids=["inf", "nan"])
def test_validator_rejects_an_obstacle_endpoint_that_is_not_finite(end):
    """Built in code, since the parser reads finite numbers only. A wall
    from (1, -inf) to (1, inf) would cross no link at all."""
    config = make_config(two_node_doc())
    wall = Obstacle(ObstacleKind.BRICK_WALL, Position(1.0, -1.0), Position(*end))
    violations = validate_scenario(dataclasses.replace(config, obstacles=(wall,)))
    assert [(v.rule, v.node, v.field) for v in violations] == [
        ("position must be finite", None, "obstacles[0]")]


def test_validator_rejects_unordered_consumption_profile():
    doc = two_node_doc(defaults={"consumption_profile": {
        "sleeping_ma": 50.0, "awake_idle_ma": 10.0, "transmitting_ma": 100.0}})
    assert any("consumption" in rule for rule in _rules(make_config(doc)))


def test_validator_accepts_equal_consumption_currents():
    doc = two_node_doc(defaults={"consumption_profile": {
        "sleeping_ma": 20.0, "awake_idle_ma": 20.0, "transmitting_ma": 20.0}})
    assert validate_scenario(make_config(doc)) == []


def test_validator_accepts_an_end_device_without_sensors():
    doc = two_node_doc()
    doc["nodes"][1]["sensors"] = []
    config = make_config(doc)
    assert config.node(1).sensors == ()
    assert validate_scenario(config) == []


def test_validator_rejects_a_poll_period_that_rounds_to_zero_ticks():
    doc = two_node_doc(sample_period_s=1.0)
    doc["nodes"][1]["radio"] = {"poll_period_s": 1e-7}
    violations = validate_scenario(make_config(doc))
    assert [(v.node, v.field) for v in violations] == [(1, "radio.poll_period_s")]
    assert "one 1 us tick" in violations[0].rule
    # 0.6 us rounds up to one tick and is accepted
    doc["nodes"][1]["radio"] = {"poll_period_s": 6e-7}
    doc["defaults"]["poll_wake_duration_s"] = 0.0
    assert validate_scenario(make_config(doc)) == []


@pytest.mark.parametrize("window_s", [28.0, 30.0, 27.9999996])
def test_validator_rejects_a_poll_window_as_long_as_the_poll_period(window_s):
    doc = two_node_doc(defaults={"poll_wake_duration_s": window_s})
    violations = validate_scenario(make_config(doc))
    assert [(v.node, v.field) for v in violations] == [(1, "poll_wake_duration_s")]
    assert violations[0].rule == "poll wake duration must be shorter than the poll period"


def test_validator_reports_a_poll_period_that_is_not_a_number():
    config = make_config(two_node_doc())
    device = config.node(1)
    nodes = (config.nodes[0], dataclasses.replace(
        device, radio=dataclasses.replace(device.radio, poll_period_s=math.nan)))
    violations = validate_scenario(dataclasses.replace(config, nodes=nodes))
    assert (1, "radio.poll_period_s") in [(v.node, v.field) for v in violations]


def _with_nan(config: ScenarioConfig, field: str) -> ScenarioConfig:
    """three_node_building with one number set to nan, in code (the parser
    reads finite numbers only)."""
    nan, replace = math.nan, dataclasses.replace
    router, device = config.node(1), config.node(2)
    if field.startswith("radio."):
        radio = replace(router.radio, **{field.removeprefix("radio."): nan})
        return replace(config, nodes=(config.nodes[0], replace(router, radio=radio), device))
    if field == "sensors[0].noise_sigma":
        sensor = replace(device.sensors[0], noise_sigma=nan)
        return replace(config, nodes=config.nodes[:2] + (replace(device, sensors=(sensor,)),))
    if field == "obstacles[0].attenuation_db":
        wall = replace(config.obstacles[0], attenuation_db=nan)
        return replace(config, obstacles=(wall,) + config.obstacles[1:])
    if field == "channels.15":
        return replace(config, channels={**config.channels, 15: nan})
    return replace(config, floor_loss_db=nan)


@pytest.mark.parametrize("rule, node, field", [
    ("sensitivity must be finite", 1, "radio.sensitivity_dbm"),
    ("shadowing sigma must be >= 0", 1, "radio.shadowing_sigma_db"),
    ("noise sigma must be >= 0", 2, "sensors[0].noise_sigma"),
    ("obstacle attenuation must be >= 0", None, "obstacles[0].attenuation_db"),
    ("interference must be >= 0", None, "channels.15"),
    ("floor loss must be >= 0", None, "floor_loss_db"),
])
def test_validator_rejects_nan_where_a_sign_or_finiteness_rule_applies(
        three_node_config, rule, node, field):
    violations = validate_scenario(_with_nan(three_node_config, field))
    assert [(v.rule, v.node, v.field) for v in violations] == [(rule, node, field)]


@pytest.mark.parametrize("period_hours, rule", [
    (0.0, "signal period must be > 0"),
    (-1.0, "signal period must be > 0"),
    (math.nan, "signal numbers must be finite"),
    (math.inf, "signal numbers must be finite"),
])
def test_validator_rejects_a_signal_the_simulation_cannot_evaluate(period_hours, rule):
    """A period of 0 once validated and then divided by zero in ground_truth."""
    config = make_config(two_node_doc())
    device = config.node(1)
    sensor = dataclasses.replace(device.sensors[0], signal=Sinusoid(21.0, 3.0, period_hours))
    config = dataclasses.replace(config, nodes=(
        config.nodes[0], dataclasses.replace(device, sensors=(sensor,))))
    violations = validate_scenario(config)
    assert [(v.rule, v.node, v.field) for v in violations] == [(rule, 1, "sensors[0].signal")]
    with pytest.raises(InvalidScenarioError):
        Simulation(config)


GAUGE = {"kind": "strain_gauge", "signal": {"shape": "constant", "level": 1.0}}


@pytest.mark.parametrize("node, defaults, where", [
    ({"radio": {"poll_period_s": 1e303}, "sample_period_s": 1e303}, {},
     [(1, "radio.poll_period_s")]),
    ({"radio": {"bitrate_bps": 1e-305}}, {}, [(1, "radio.bitrate_bps")]),
    ({"sensors": [dict(GAUGE, heat_duration_s=1e303)]}, {}, [(1, "sensors[0].heat_duration_s")]),
    ({"sample_period_s": 1e303, "radio": {"poll_period_s": 1e-6}},
     {"poll_wake_duration_s": 0.0}, [(1, "sample_period_s")]),
    ({}, {"tx_airtime_s": 1e303}, [(None, "tx_airtime_s")]),
    ({}, {"warmup_delay_s": 1e303}, [(None, "warmup_delay_s")]),
    ({}, {"response_timeout_s": 1e303}, [(None, "response_timeout_s")]),
    ({}, {"poll_wake_duration_s": 1e303}, [(None, "poll_wake_duration_s")]),
    ({}, {"warmup_delay_s": 1.5e302, "response_timeout_s": 1.5e302},
     [(None, "warmup_delay_s + response_timeout_s")]),
])
def test_validator_reports_a_duration_with_no_finite_tick_count(node, defaults, where):
    doc = two_node_doc(defaults=defaults)
    doc["nodes"][1].update(node)
    violations = validate_scenario(make_config(doc))
    assert [(v.node, v.field) for v in violations] == where
    assert violations[0].rule.endswith("must be a finite number of 1 us ticks")


def test_validator_accepts_a_poll_window_one_tick_short_of_the_period():
    doc = two_node_doc(defaults={"poll_wake_duration_s": 27.999999})
    assert validate_scenario(make_config(doc)) == []


def test_violation_renders_location():
    doc = two_node_doc()
    doc["nodes"][1]["battery"] = {"capacity_mah": -5.0}
    violations = validate_scenario(make_config(doc))
    assert violations
    assert "node 1" in str(violations[0])


# ---------------------------------------------------------------------------
# Obstacle geometry
# ---------------------------------------------------------------------------


def _walled_doc(obstacles):
    doc = two_node_doc(ed_position={"x": 10.0, "y": 0.0})
    doc["obstacles"] = obstacles
    return make_config(doc)


def test_obstacle_attenuation_defaults_per_kind():
    expected = {ObstacleKind.WINDOW_OPEN_BLINDS: 1.04, ObstacleKind.BRICK_WALL: 1.46,
                ObstacleKind.WALL_OPEN_DOOR: 0.39, ObstacleKind.WALL_CLOSED_DOOR: 1.19,
                ObstacleKind.WINDOW_CLOSED_BLINDS: 3.95}
    for kind, loss in expected.items():
        obstacle = Obstacle(kind=kind, start=Position(0.0, -1.0), end=Position(0.0, 1.0))
        assert obstacle.loss_db == loss


def test_obstacle_attenuation_override():
    obstacle = Obstacle(kind=ObstacleKind.BRICK_WALL, start=Position(0.0, -1.0),
                        end=Position(0.0, 1.0), attenuation_db=7.5)
    assert obstacle.loss_db == 7.5


def test_crossings_are_ordered_along_the_path():
    config = _walled_doc([
        {"kind": "wall_open_door", "from": {"x": 8.0, "y": -1.0}, "to": {"x": 8.0, "y": 1.0}},
        {"kind": "brick_wall", "from": {"x": 3.0, "y": -1.0}, "to": {"x": 3.0, "y": 1.0}},
        {"kind": "wall_closed_door", "from": {"x": 5.0, "y": -1.0}, "to": {"x": 5.0, "y": 1.0}},
    ])
    crossings = obstacles_on_path(config, 0, 1)
    kinds = [c.kind for c in crossings]
    assert kinds == [ObstacleKind.BRICK_WALL, ObstacleKind.WALL_CLOSED_DOOR,
                     ObstacleKind.WALL_OPEN_DOOR]
    reverse = obstacles_on_path(config, 1, 0)
    assert [c.kind for c in reverse] == list(reversed(kinds))


def test_parallel_and_off_path_obstacles_do_not_count():
    config = _walled_doc([
        # parallel to the path, collinear overlap: not a proper crossing
        {"kind": "brick_wall", "from": {"x": 2.0, "y": 0.0}, "to": {"x": 6.0, "y": 0.0}},
        # entirely to one side
        {"kind": "brick_wall", "from": {"x": 4.0, "y": 1.0}, "to": {"x": 4.0, "y": 3.0}},
    ])
    assert obstacles_on_path(config, 0, 1) == []


def test_endpoint_grazing_does_not_count():
    # wall terminates exactly on the path line: touching, not crossing
    config = _walled_doc([
        {"kind": "brick_wall", "from": {"x": 4.0, "y": 0.0}, "to": {"x": 4.0, "y": 3.0}},
    ])
    assert obstacles_on_path(config, 0, 1) == []


def test_floor_crossings_counted_per_floor():
    doc = two_node_doc(ed_position={"x": 10.0, "y": 0.0, "floor": 2})
    config = make_config(doc)
    crossings = obstacles_on_path(config, 0, 1)
    assert crossings == [FloorCrossing(loss_db=DEFAULT_FLOOR_LOSS_DB),
                         FloorCrossing(loss_db=DEFAULT_FLOOR_LOSS_DB)]


def test_obstacle_on_intermediate_floor_participates():
    doc = two_node_doc(ed_position={"x": 10.0, "y": 0.0, "floor": 2})
    doc["obstacles"] = [
        {"kind": "brick_wall", "from": {"x": 5.0, "y": -1.0, "floor": 1},
         "to": {"x": 5.0, "y": 1.0, "floor": 1}},
        {"kind": "brick_wall", "from": {"x": 5.0, "y": -1.0, "floor": 7},
         "to": {"x": 5.0, "y": 1.0, "floor": 7}},
    ]
    config = make_config(doc)
    crossings = obstacles_on_path(config, 0, 1)
    obstacle_hits = [c for c in crossings if isinstance(c, ObstacleCrossing)]
    assert len(obstacle_hits) == 1  # floor 7 wall is outside the 0..2 range
    assert sum(isinstance(c, FloorCrossing) for c in crossings) == 2


# ---------------------------------------------------------------------------
# Indexed topology against the brute-force scans
# ---------------------------------------------------------------------------


def _pairs(config):
    ids = [node.id for node in config.nodes]
    return [(a, b) for a in ids for b in ids]


@settings(max_examples=150, deadline=None)
@given(buildings())
def test_obstacles_on_path_matches_the_full_scan(config):
    for a, b in _pairs(config):
        assert obstacles_on_path(config, a, b) == reference_obstacles_on_path(config, a, b)


@settings(max_examples=150, deadline=None)
@given(buildings())
def test_link_budget_is_bit_identical_to_the_full_scan(config):
    for a, b in _pairs(config):
        # repr shows every bit of a float, the sign of zero included
        assert repr(link_budget(config, a, b)) == repr(reference_link_budget(config, a, b))


def test_stacked_walls_crossed_at_one_point_keep_the_obstacle_order():
    # the same segment on floors 2, 0 and 1, listed in that order
    wall = [(2, ObstacleKind.BRICK_WALL, 0.1), (0, ObstacleKind.WALL_OPEN_DOOR, 0.2),
            (1, ObstacleKind.WINDOW_OPEN_BLINDS, 0.3)]
    config = ScenarioConfig(
        nodes=(NodeSpec(0, NodeRole.COORDINATOR, Position(0.0, 0.0, 0), RadioConfig(-40.0)),
               NodeSpec(1, NodeRole.ROUTER, Position(10.0, 0.0, 2), RadioConfig(-40.0))),
        obstacles=tuple(Obstacle(kind, Position(5.0, -1.0, floor), Position(5.0, 1.0, floor),
                                 attenuation_db=db) for floor, kind, db in wall))
    crossings = obstacles_on_path(config, 0, 1)
    assert [c.kind for c in crossings[:3]] == [kind for _, kind, _ in wall]
    assert crossings == reference_obstacles_on_path(config, 0, 1)


def test_walls_ending_at_a_vertical_path_match_the_full_scan():
    """A vertical path has xmin == xmax, the tightest x-slice. Walls whose
    boxes end exactly at the path's x, or one float either side of it, are
    in the slice exactly when the full scan can find them."""
    x = 5.0
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    spans = [(0.0, x), (0.0, above), (0.0, below), (x, 10.0), (below, 10.0), (above, 10.0),
             (below, above), (x, x), (above, above), (-30.0, 30.0), (below, below)]
    walls = [Obstacle(ObstacleKind.BRICK_WALL, Position(x0, -8.0 + i, 0),
                      Position(x1, -7.5 + i + (x0 == x1), 0), attenuation_db=float(i))
             for i, (x0, x1) in enumerate(spans)]
    config = ScenarioConfig(
        nodes=(NodeSpec(0, NodeRole.COORDINATOR, Position(x, -10.0, 0), RadioConfig(-40.0)),
               NodeSpec(1, NodeRole.ROUTER, Position(x, 10.0, 0), RadioConfig(-40.0))),
        obstacles=tuple(walls))
    for a, b in ((0, 1), (1, 0)):
        crossings = obstacles_on_path(config, a, b)
        assert crossings == reference_obstacles_on_path(config, a, b)
        assert sorted(c.loss_db for c in crossings) == [1.0, 4.0, 6.0, 9.0]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(0, 8))
def test_node_lookup_returns_the_first_node_with_an_id(ids, wanted):
    nodes = tuple(NodeSpec(node_id, NodeRole.ROUTER, Position(float(i), 0.0),
                           RadioConfig(-40.0)) for i, node_id in enumerate(ids))
    config = ScenarioConfig(nodes=nodes)
    if wanted in ids:
        assert config.node(wanted) is scan_node(config, wanted)
        assert config.has_node(wanted)
    else:
        with pytest.raises(UnknownNodeError, match=f"no node with id {wanted}"):
            config.node(wanted)
        assert not config.has_node(wanted)


def test_indexes_follow_reassigned_nodes_and_obstacles():
    config = _walled_doc([
        {"kind": "brick_wall", "from": {"x": 5.0, "y": -1.0}, "to": {"x": 5.0, "y": 1.0}},
    ])
    assert len(obstacles_on_path(config, 0, 1)) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.obstacles = ()
    config = dataclasses.replace(config, obstacles=())
    assert obstacles_on_path(config, 0, 1) == []
    assert config.node(1).position.x == 10.0
    moved = NodeSpec(1, NodeRole.END_DEVICE, Position(3.0, 0.0), config.node(1).radio)
    config = dataclasses.replace(config, nodes=(config.node(0), moved))
    assert config.node(1) is moved
    config = dataclasses.replace(config, nodes=(config.node(0),))
    assert not config.has_node(1)
    with pytest.raises(UnknownNodeError):
        config.node(1)


def test_a_config_keeps_no_list_it_was_built_from():
    config = make_config(two_node_doc())
    nodes, obstacles = [config.node(0)], [Obstacle(ObstacleKind.BRICK_WALL, Position(
        1.0, -1.0), Position(1.0, 1.0))]
    built = ScenarioConfig(nodes=nodes, obstacles=obstacles)
    nodes.append(config.node(1))
    obstacles.clear()
    assert built.nodes == (config.node(0),) and not built.has_node(1)
    assert len(built.obstacles) == 1
    # hashing stays unsupported: channels is a dict
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(ScenarioConfig(nodes=()))


def test_node_lookup_stays_a_plain_method():
    # callers, and tools that wrap it, look it up on the class
    assert inspect.isfunction(vars(ScenarioConfig)["node"])
