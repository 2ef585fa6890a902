"""Scenario model: nodes, geometry, obstacles, radios, batteries, timing.

Scenario files are UTF-8 JSON with a strict schema (unknown keys are errors);
see docs/scenario-schema.md. Parsing applies documented defaults, building a
plain-dataclass configuration that serialize_scenario() reproduces exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from .engine import has_finite_ticks, ticks_from_seconds
from .jsontext import dumps_indent2
from .power import ConsumptionProfile
from .sensors import Constant, Ramp, SensorKind, SensorSpec, Sinusoid

DEFAULT_FLOOR_LOSS_DB = 13.08

MAX_NODE_ID = 0xFFFF
# Floor indices lie in -MAX_FLOOR..MAX_FLOOR. The tallest buildings have
# under 200 floors, and a link's budget (and its obstacle scan) costs one
# step per floor between its ends, so the bound keeps that cost small.
MAX_FLOOR = 255
CHANNEL_RANGE = range(11, 27)


class ScenarioError(Exception):
    """Base for every scenario loading/validation problem."""


class ScenarioSyntaxError(ScenarioError):
    """Malformed JSON; carries the position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(ScenarioError):
    """Structurally invalid scenario: unknown key, wrong type, missing field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownNodeError(ScenarioError):
    """A node id that does not exist in the scenario."""


class NodeRole(Enum):
    COORDINATOR = "coordinator"
    ROUTER = "router"
    END_DEVICE = "end_device"


class ObstacleKind(Enum):
    """Obstruction categories with their measured default attenuation."""

    # Hash by identity, not through Enum.__hash__ (a Python-level call): the
    # kinds key the attenuation and label tables, and no set of them is
    # iterated.
    __hash__ = object.__hash__

    WINDOW_OPEN_BLINDS = "window_open_blinds"
    WINDOW_CLOSED_BLINDS = "window_closed_blinds"
    WALL_OPEN_DOOR = "wall_open_door"
    WALL_CLOSED_DOOR = "wall_closed_door"
    BRICK_WALL = "brick_wall"

    @property
    def attenuation_db(self) -> float:
        return _OBSTACLE_ATTENUATION_DB[self]


_OBSTACLE_ATTENUATION_DB = {
    ObstacleKind.WINDOW_OPEN_BLINDS: 1.04,
    ObstacleKind.WINDOW_CLOSED_BLINDS: 3.95,
    ObstacleKind.WALL_OPEN_DOOR: 0.39,
    ObstacleKind.WALL_CLOSED_DOOR: 1.19,
    ObstacleKind.BRICK_WALL: 1.46,
}


@dataclass(frozen=True)
class Position:
    """Metres in the floor plane plus an integer floor index."""

    x: float
    y: float
    floor: int = 0


@dataclass(frozen=True)
class Obstacle:
    """A 2-D wall/window segment on one floor. attenuation_db None means the
    kind's measured default."""

    kind: ObstacleKind
    start: Position
    end: Position
    attenuation_db: float | None = None

    @property
    def loss_db(self) -> float:
        return self.kind.attenuation_db if self.attenuation_db is None else self.attenuation_db


@dataclass(frozen=True)
class ObstacleCrossing:
    kind: ObstacleKind
    loss_db: float


@dataclass(frozen=True)
class FloorCrossing:
    loss_db: float


Crossing = ObstacleCrossing | FloorCrossing


@dataclass(frozen=True)
class RadioConfig:
    """Per-node radio parameters. Sensitivity has no universal default and must
    come from the node or the scenario defaults section."""

    sensitivity_dbm: float
    tx_power_dbm: float = 3.0
    shadowing_sigma_db: float = 0.0
    poll_period_s: float = 28.0
    bitrate_bps: float = 250_000.0


@dataclass
class BatteryState:
    capacity_mah: float = 1100.0
    remaining_mah: float | None = None

    def __post_init__(self) -> None:
        if self.remaining_mah is None:
            self.remaining_mah = self.capacity_mah


@dataclass(frozen=True)
class NodeSpec:
    id: int
    role: NodeRole
    position: Position
    radio: RadioConfig
    battery: BatteryState | None = None
    sensors: tuple[SensorSpec, ...] = ()
    sample_period_s: float | None = None

    @property
    def primary_sensor(self) -> SensorSpec | None:
        return self.sensors[0] if self.sensors else None


class _IndexedObstacle(NamedTuple):
    """An obstacle as obstacles_on_path scans it: its bounding box, its
    endpoints, its position in `ScenarioConfig.obstacles` and the crossing it
    contributes."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    x0: float
    y0: float
    x1: float
    y1: float
    position: int
    crossing: ObstacleCrossing


def _index_nodes(nodes: tuple[NodeSpec, ...]) -> dict[int, NodeSpec]:
    index: dict[int, NodeSpec] = {}
    for node in nodes:
        index.setdefault(node.id, node)
    return index


def _index_obstacles(obstacles: tuple[Obstacle, ...]) -> dict[int, tuple[_IndexedObstacle, ...]]:
    by_floor: dict[int, list[_IndexedObstacle]] = {}
    for position, obstacle in enumerate(obstacles):
        start, end = obstacle.start, obstacle.end
        by_floor.setdefault(start.floor, []).append(_IndexedObstacle(
            min(start.x, end.x), max(start.x, end.x), min(start.y, end.y),
            max(start.y, end.y), start.x, start.y, end.x, end.y, position,
            ObstacleCrossing(kind=obstacle.kind, loss_db=obstacle.loss_db)))
    return {floor: tuple(entries) for floor, entries in by_floor.items()}


@dataclass
class ScenarioConfig:
    nodes: tuple[NodeSpec, ...]
    obstacles: tuple[Obstacle, ...] = ()
    channels: dict[int, float] = field(default_factory=dict)
    seed: int = 0
    floor_loss_db: float = DEFAULT_FLOOR_LOSS_DB
    warmup_delay_s: float = 120.0
    response_timeout_s: float = 5.0
    max_retries: int = 2
    tx_airtime_override_s: float | None = None
    poll_wake_duration_s: float = 0.1
    consumption: ConsumptionProfile = field(default_factory=ConsumptionProfile)

    def node(self, node_id: int) -> NodeSpec:
        node = self._nodes_by_id().get(node_id)
        if node is None:
            raise UnknownNodeError(f"no node with id {node_id}")
        return node

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes_by_id()

    def _nodes_by_id(self) -> dict[int, NodeSpec]:
        """Id index over `nodes`; the first node wins when ids repeat."""
        return self._derived("_node_index", self.nodes, _index_nodes)

    def _obstacles_by_floor(self) -> dict[int, tuple[_IndexedObstacle, ...]]:
        """Obstacles grouped by floor, each with its bounding box."""
        return self._derived("_obstacle_index", self.obstacles, _index_obstacles)

    def _derived(self, slot: str, source, build):
        """build(source), kept in `slot` with the object it was built from,
        so reassigning the field rebuilds it. A field that is not a tuple may
        be mutated in place and is rebuilt on every call."""
        cached = self.__dict__.get(slot)
        if cached is not None and cached[0] is source:
            return cached[1]
        value = build(source)
        if type(source) is tuple:
            self.__dict__[slot] = (source, value)
        return value

    def coordinator(self) -> NodeSpec:
        for node in self.nodes:
            if node.role is NodeRole.COORDINATOR:
                return node
        raise ScenarioError("scenario has no coordinator")

    def routers(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.role is NodeRole.ROUTER]

    def end_devices(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.role is NodeRole.END_DEVICE]


@dataclass(frozen=True)
class Violation:
    """One broken scenario invariant, naming the node/field and the rule."""

    rule: str
    node: int | None = None
    field: str | None = None
    message: str = ""

    def __str__(self) -> str:
        where = f"node {self.node}" if self.node is not None else "scenario"
        if self.field:
            where += f".{self.field}"
        return f"{where}: {self.rule}" + (f" ({self.message})" if self.message else "")


# --------------------------------------------------------------------------
# Strict JSON helpers
# --------------------------------------------------------------------------

def _expect_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_array(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_number(value: object, path: str) -> float:
    if type(value) is float and math.isfinite(value):  # most numbers json.loads gives
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(path, "expected a finite number, got an integer too large"
                                " for a float") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value}")
    return number


def _expect_number_or_null(value: object, path: str) -> float | None:
    return None if value is None else _expect_number(value, path)


def _expect_positive(value: object, path: str) -> float:
    number = _expect_number(value, path)
    if number <= 0:
        raise SchemaError(path, "must be > 0")
    return number


def _expect_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _expect_string(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: set[str] | frozenset[str], path: str) -> None:
    if not allowed.issuperset(obj):  # builds no set, unlike obj.keys() - allowed
        unknown = obj.keys() - allowed
        raise SchemaError(path, f"unknown key(s): {', '.join(sorted(unknown))}")


# The {value: member} table of each enum a scenario names, in member order.
# A lookup in one takes about 0.06 us; the enum's own call, NodeRole(value),
# about 1.0 us, and a campus of 1000 nodes makes one per node and per sensor.
_ROLES = {role.value: role for role in NodeRole}
_SENSOR_KINDS = {kind.value: kind for kind in SensorKind}
_OBSTACLE_KINDS = {kind.value: kind for kind in ObstacleKind}


def _enum_value(members: dict[str, object], value: object, path: str):
    """The member that a {value: member} table gives for a string value."""
    name = _expect_string(value, path)
    member = members.get(name)
    if member is None:
        raise SchemaError(path, f"expected one of [{', '.join(members)}], got {name!r}")
    return member


# A reader is called as read(value, path) and gives a field's value from a
# JSON value. One whose field's value is not itself that JSON value also has
# doc(field_value), which gives the JSON value that reads back to it.

class _Enum:
    """A string naming a member of a {value: member} table."""

    def __init__(self, members: dict[str, Enum]) -> None:
        self.members = members

    def __call__(self, value: object, path: str) -> Enum:
        return _enum_value(self.members, value, path)

    @staticmethod
    def doc(member: Enum) -> str:
        return member.value


def _int_in(lo: int, hi: int):
    """The reader of an integer in lo..hi."""

    def read(value: object, path: str) -> int:
        number = _expect_int(value, path)
        if not lo <= number <= hi:
            raise SchemaError(path, f"must be in {lo}..{hi}, got {number}")
        return number
    return read


class _Array:
    """An array whose items `read` reads, as a tuple."""

    def __init__(self, read) -> None:
        self.read = read

    def __call__(self, value: object, path: str) -> tuple:
        read = self.read
        return tuple([read(item, f"{path}[{i}]")
                      for i, item in enumerate(_expect_array(value, path))])

    def doc(self, items: tuple) -> list:
        return [self.read.doc(item) for item in items]


class _Shapes:
    """An object whose `shape` key names the record that reads its other keys."""

    def __init__(self, **records: _Record) -> None:
        self.records = records
        self.names = {record: record.names | {"shape"} for record in records.values()}

    def __call__(self, value: object, path: str):
        obj = _expect_object(value, path)
        if "shape" not in obj:
            raise _missing(path, ["shape"])
        record = _enum_value(self.records, obj["shape"], f"{path}.shape")
        _check_keys(obj, self.names[record], path)
        return record.build(record.read(obj, path), path)

    def doc(self, value) -> dict:
        shape = next(shape for shape, record in self.records.items() if type(value) is record.cls)
        return {"shape": shape, **self.records[shape].doc(value)}


class _Layer:
    """A record's object, or null, read as the {field: value} of the keys it
    holds, for laying over the defaults object's keys (None for null)."""

    def __init__(self, record: _Record) -> None:
        self.record = record

    def __call__(self, value: object, path: str) -> dict | None:
        return None if value is None else self.record.values(value, path)

    def doc(self, instance) -> dict:
        return self.record.doc(instance)


def _missing(path: str, keys) -> SchemaError:
    return SchemaError(path, f"missing required key(s): {', '.join(sorted(keys))}")


class _Record:
    """A scenario object whose keys set the fields of the dataclass `cls`.

    `keys` are (JSON key, reader[, field if not the key]) in the order
    serialize_scenario writes them; by default, each field of `cls` under its
    own name, read by `readers.get(field, _expect_number)`. A key left out
    keeps the dataclass default; one whose field has none is required. A field
    that is None or an empty tuple is not written. A record is the reader of a
    record nested in another.
    """

    def __init__(self, cls: type, *keys: tuple, **readers) -> None:
        self.cls = cls
        if not keys:
            keys = tuple((f.name, readers.get(f.name, _expect_number)) for f in fields(cls))
        self.keys = tuple((key, read, name[0] if name else key) for key, read, *name in keys)
        self.readers = {key: (read, name) for key, read, name in self.keys}
        self.names = frozenset(self.readers)
        self.required = frozenset(f.name for f in fields(cls)
                                  if f.default is MISSING and f.default_factory is MISSING)

    def read(self, obj: dict, path: str) -> dict:
        """{field: value} for each of the record's keys that obj holds, read
        in obj's order."""
        values = {}
        readers = self.readers
        for key, value in obj.items():
            entry = readers.get(key)
            if entry is not None:
                values[entry[1]] = entry[0](value, f"{path}.{key}")
        return values

    def values(self, value: object, path: str) -> dict:
        """read() of the object `value`, which holds none but the record's keys."""
        obj = _expect_object(value, path)
        _check_keys(obj, self.names, path)
        return self.read(obj, path)

    def build(self, values: dict, path: str):
        """The instance whose fields `values` sets, once it sets each required one."""
        if not values.keys() >= self.required:
            raise _missing(path, [key for key, _, name in self.keys
                                  if name in self.required and name not in values])
        return self.cls(**values)

    def __call__(self, value: object, path: str):
        return self.build(self.values(value, path), path)

    def doc(self, instance) -> dict:
        """The JSON object whose reading gives back `instance`."""
        doc = {}
        for key, read, name in self.keys:
            value = getattr(instance, name)
            if value is not None and value != ():
                write = getattr(read, "doc", None)
                doc[key] = value if write is None else write(value)
        return doc


_RADIO = _Record(RadioConfig)
_BATTERY = _Record(BatteryState)
_POSITION = _Record(Position, floor=_int_in(-MAX_FLOOR, MAX_FLOOR))
_SENSOR = _Record(SensorSpec, kind=_Enum(_SENSOR_KINDS), heat_duration_s=_expect_number_or_null,
                  signal=_Shapes(constant=_Record(Constant), ramp=_Record(Ramp),
                                 sinusoid=_Record(Sinusoid, period_hours=_expect_positive)))
# A node's radio and battery are read as layers: _read_node lays each over
# the defaults object's keys.
_NODE = _Record(NodeSpec, id=_int_in(0, MAX_NODE_ID), role=_Enum(_ROLES), position=_POSITION,
                radio=_Layer(_RADIO), battery=_Layer(_BATTERY), sensors=_Array(_SENSOR),
                sample_period_s=_expect_number_or_null)
_OBSTACLE = _Record(Obstacle, ("kind", _Enum(_OBSTACLE_KINDS)), ("from", _POSITION, "start"),
                    ("to", _POSITION, "end"), ("attenuation_db", _expect_number_or_null))
# The defaults object holds the fallbacks of every node's radio (_RADIO's
# keys) and battery, and the settings.
_DEFAULT_BATTERY = _Record(BatteryState, ("battery_capacity_mah", _expect_number, "capacity_mah"))
_SETTINGS = _Record(
    ScenarioConfig, ("floor_loss_db", _expect_number), ("warmup_delay_s", _expect_number),
    ("response_timeout_s", _expect_number), ("max_retries", _expect_int),
    ("poll_wake_duration_s", _expect_number),
    ("consumption_profile", _Record(ConsumptionProfile), "consumption"),
    ("tx_airtime_s", _expect_number_or_null, "tx_airtime_override_s"))
_DEFAULTS_KEYS = _RADIO.names | _DEFAULT_BATTERY.names | _SETTINGS.names


def _read_node(value: object, path: str, radio: dict, battery: dict) -> NodeSpec:
    """A node whose radio and battery objects are laid over `radio` and
    `battery`, the defaults object's keys. An end device that declares no
    battery gets the defaults' battery; another node gets none."""
    node = _NODE.values(value, path)
    node["radio"] = _RADIO.build({**radio, **(node.get("radio") or {})}, f"{path}.radio")
    own = node.get("battery")
    if own is not None or node.get("role") is NodeRole.END_DEVICE:
        node["battery"] = _BATTERY.build({**battery, **(own or {})}, f"{path}.battery")
    return _NODE.build(node, path)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document, applying documented defaults.

    Raises ScenarioSyntaxError for malformed JSON and SchemaError for
    structural problems (unknown keys anywhere, wrong types, missing required
    fields, duplicate node ids, no coordinator).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ScenarioSyntaxError(str(exc)) from exc

    root = _expect_object(document, "$")
    _check_keys(root, {"nodes", "obstacles", "channels", "seed", "defaults"}, "$")
    if "nodes" not in root:
        raise _missing("$", ["nodes"])

    radio_defaults = battery_defaults = settings = {}
    if "defaults" in root:
        defaults = _expect_object(root["defaults"], "$.defaults")
        _check_keys(defaults, _DEFAULTS_KEYS, "$.defaults")
        radio_defaults = _RADIO.read(defaults, "$.defaults")
        battery_defaults = _DEFAULT_BATTERY.read(defaults, "$.defaults")
        settings = _SETTINGS.read(defaults, "$.defaults")

    nodes: list[NodeSpec] = []
    seen_ids: set[int] = set()
    for i, item in enumerate(_expect_array(root["nodes"], "$.nodes")):
        node = _read_node(item, f"$.nodes[{i}]", radio_defaults, battery_defaults)
        if node.id in seen_ids:
            raise SchemaError(f"$.nodes[{i}].id", f"duplicate node id {node.id}")
        seen_ids.add(node.id)
        nodes.append(node)
    if not any(n.role is NodeRole.COORDINATOR for n in nodes):
        raise SchemaError("$.nodes", "scenario declares no coordinator")

    obstacles = _Array(_OBSTACLE)(root["obstacles"], "$.obstacles") if "obstacles" in root else ()

    channels: dict[int, float] = {}
    if "channels" in root:
        mapping = _expect_object(root["channels"], "$.channels")
        for key, value in mapping.items():
            if not (key.isascii() and key.removeprefix("-").isdigit()):
                raise SchemaError(f"$.channels.{key}", "channel ids must be integers")
            channels[int(key)] = _expect_number(value, f"$.channels.{key}")

    seed = 0
    if "seed" in root:
        seed = _expect_int(root["seed"], "$.seed")
        if not 0 <= seed < (1 << 64):
            raise SchemaError("$.seed", "must be an unsigned 64-bit integer")

    return ScenarioConfig(nodes=tuple(nodes), obstacles=obstacles,
                          channels=channels, seed=seed, **settings)


def load_scenario(path: str) -> ScenarioConfig:
    """Read and parse a scenario file."""
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# --------------------------------------------------------------------------
# Serialization (inverse of parse_scenario)
# --------------------------------------------------------------------------

def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a config back to scenario JSON. parse_scenario() of the result
    reproduces the config field for field."""
    document = {
        "seed": config.seed,
        "defaults": _SETTINGS.doc(config),
        "nodes": [_NODE.doc(node) for node in config.nodes],
        "obstacles": [_OBSTACLE.doc(obstacle) for obstacle in config.obstacles],
        "channels": {str(cid): level for cid, level in sorted(config.channels.items())},
    }
    return dumps_indent2(document) + "\n"


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def validate_scenario(config: ScenarioConfig) -> list[Violation]:
    """Check every structural invariant; empty list means the scenario is sound.

    Unlike parse_scenario (which rejects malformed documents), this also covers
    configs built programmatically. Every duration the simulation turns into
    ticks must be a finite number of them (has_finite_ticks).
    """
    from .protocol import WIRE_LENGTHS  # protocol imports this module

    violations: list[Violation] = []

    def finite_ticks(seconds: float, field: str, node: int | None = None,
                     what: str = "duration") -> bool:
        if has_finite_ticks(seconds):
            return True
        violations.append(Violation(rule=f"{what} must be a finite number of 1 us ticks",
                                    node=node, field=field, message=f"{seconds} s"))
        return False

    seen: set[int] = set()
    coordinators = [n for n in config.nodes if n.role is NodeRole.COORDINATOR]
    if len(coordinators) != 1:
        violations.append(Violation(rule="exactly one coordinator required",
                                    message=f"found {len(coordinators)}"))
    elif coordinators[0].id != 0:
        violations.append(Violation(rule="coordinator must use the reserved id 0",
                                    node=coordinators[0].id, field="id"))

    for node in config.nodes:
        prefix = node.id
        if node.id in seen:
            violations.append(Violation(rule="duplicate node id", node=node.id, field="id"))
        seen.add(node.id)
        if not 0 <= node.id <= MAX_NODE_ID:
            violations.append(Violation(rule=f"node id outside 0..{MAX_NODE_ID}",
                                        node=node.id, field="id"))
        if node.id == 0 and node.role is not NodeRole.COORDINATOR:
            violations.append(Violation(rule="id 0 is reserved for the coordinator",
                                        node=node.id, field="id"))
        for coordinate in (node.position.x, node.position.y):
            if not math.isfinite(coordinate):
                violations.append(Violation(rule="position must be finite",
                                            node=prefix, field="position"))
                break
        if not -MAX_FLOOR <= node.position.floor <= MAX_FLOOR:
            violations.append(Violation(rule=f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}",
                                        node=prefix, field="position.floor"))
        if not node.radio.shadowing_sigma_db >= 0:
            violations.append(Violation(rule="shadowing sigma must be >= 0",
                                        node=prefix, field="radio.shadowing_sigma_db"))
        if not node.radio.bitrate_bps > 0:
            violations.append(Violation(rule="bitrate must be > 0",
                                        node=prefix, field="radio.bitrate_bps"))
        elif config.tx_airtime_override_s is None:
            finite_ticks(max(WIRE_LENGTHS) * 8 / node.radio.bitrate_bps, "radio.bitrate_bps",
                         prefix, "the largest frame's airtime")
        poll_s = node.radio.poll_period_s
        poll_ticks = 0  # stays 0 unless the poll period is valid
        if not poll_s > 0:
            violations.append(Violation(rule="poll period must be > 0",
                                        node=prefix, field="radio.poll_period_s"))
        elif finite_ticks(poll_s, "radio.poll_period_s", prefix, "poll period"):
            poll_ticks = ticks_from_seconds(poll_s)
            if poll_ticks == 0:
                violations.append(Violation(
                    rule="poll period must round to at least one 1 us tick", node=prefix,
                    field="radio.poll_period_s", message=f"{poll_s} s"))
        if not math.isfinite(node.radio.tx_power_dbm):
            violations.append(Violation(rule="tx power must be finite",
                                        node=prefix, field="radio.tx_power_dbm"))
        if not math.isfinite(node.radio.sensitivity_dbm):
            violations.append(Violation(rule="sensitivity must be finite",
                                        node=prefix, field="radio.sensitivity_dbm"))

        if node.role is NodeRole.END_DEVICE:
            if node.battery is None:
                violations.append(Violation(rule="end devices are battery powered",
                                            node=prefix, field="battery"))
            if node.sample_period_s is None or not node.sample_period_s > 0:
                violations.append(Violation(rule="end devices need sample_period_s > 0",
                                            node=prefix, field="sample_period_s"))
            elif node.sample_period_s < poll_s:
                violations.append(Violation(
                    rule="sample period must be >= poll period", node=prefix,
                    field="sample_period_s", message=f"{node.sample_period_s} < {poll_s}"))
            elif poll_ticks:
                finite_ticks(node.sample_period_s, "sample_period_s", prefix, "sample period")
            window_s = config.poll_wake_duration_s
            if (poll_ticks and has_finite_ticks(window_s)
                    and poll_ticks <= ticks_from_seconds(window_s)):
                violations.append(Violation(
                    rule="poll wake duration must be shorter than the poll period",
                    node=prefix, field="poll_wake_duration_s",
                    message=f"{config.poll_wake_duration_s} >= {node.radio.poll_period_s}"))
        else:
            if node.battery is not None:
                violations.append(Violation(rule="coordinator/router are mains powered (no battery)",
                                            node=prefix, field="battery"))
            if node.sample_period_s is not None:
                violations.append(Violation(rule="sample_period_s applies to end devices only",
                                            node=prefix, field="sample_period_s"))
            if node.sensors:
                violations.append(Violation(rule="sensors attach to end devices only",
                                            node=prefix, field="sensors"))

        if node.battery is not None:
            remaining = node.battery.remaining_mah or 0.0
            if not 0 <= remaining <= node.battery.capacity_mah:  # fails a capacity < 0 or nan
                violations.append(Violation(
                    rule="battery must satisfy 0 <= remaining <= capacity",
                    node=prefix, field="battery"))

        for i, sensor in enumerate(node.sensors):
            if not sensor.noise_sigma >= 0:
                violations.append(Violation(rule="noise sigma must be >= 0",
                                            node=prefix, field=f"sensors[{i}].noise_sigma"))
            signal = sensor.signal  # ground_truth divides by a sinusoid's period
            if not all(map(math.isfinite, vars(signal).values())):
                violations.append(Violation(rule="signal numbers must be finite",
                                            node=prefix, field=f"sensors[{i}].signal"))
            elif isinstance(signal, Sinusoid) and not signal.period_hours > 0:
                violations.append(Violation(rule="signal period must be > 0",
                                            node=prefix, field=f"sensors[{i}].signal"))
            if sensor.kind is SensorKind.STRAIN_GAUGE:
                if sensor.heat_duration_s is not None and not sensor.heat_duration_s > 0:
                    violations.append(Violation(rule="heat duration must be > 0",
                                                node=prefix, field=f"sensors[{i}].heat_duration_s"))
                elif sensor.heat_duration_s is not None:
                    finite_ticks(sensor.heat_duration_s, f"sensors[{i}].heat_duration_s",
                                 prefix, "heat duration")
            elif sensor.heat_duration_s is not None:
                violations.append(Violation(rule="heat duration applies to strain gauges only",
                                            node=prefix, field=f"sensors[{i}].heat_duration_s"))

    for i, obstacle in enumerate(config.obstacles):
        start, end = obstacle.start, obstacle.end
        if not all(map(math.isfinite, (start.x, start.y, end.x, end.y))):
            violations.append(Violation(rule="position must be finite",
                                        field=f"obstacles[{i}]"))
        if start.floor != end.floor:
            violations.append(Violation(rule="obstacle endpoints must share a floor",
                                        field=f"obstacles[{i}]"))
        if not -MAX_FLOOR <= start.floor <= MAX_FLOOR:
            violations.append(Violation(rule=f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}",
                                        field=f"obstacles[{i}]"))
        if (start.x, start.y) == (end.x, end.y):
            violations.append(Violation(rule="obstacle segment must have nonzero length",
                                        field=f"obstacles[{i}]"))
        if not obstacle.loss_db >= 0:
            violations.append(Violation(rule="obstacle attenuation must be >= 0",
                                        field=f"obstacles[{i}].attenuation_db"))

    for channel_id, interference in config.channels.items():
        if channel_id not in CHANNEL_RANGE:
            violations.append(Violation(rule="channel ids must be in 11..26",
                                        field=f"channels.{channel_id}"))
        if not interference >= 0:
            violations.append(Violation(rule="interference must be >= 0",
                                        field=f"channels.{channel_id}"))

    if not config.floor_loss_db >= 0:
        violations.append(Violation(rule="floor loss must be >= 0", field="floor_loss_db"))
    if not config.warmup_delay_s >= 0:
        violations.append(Violation(rule="warmup delay must be >= 0", field="warmup_delay_s"))
    if not config.response_timeout_s > 0:
        violations.append(Violation(rule="response timeout must be > 0",
                                    field="response_timeout_s"))
    warmup_ok = finite_ticks(config.warmup_delay_s, "warmup_delay_s")
    if finite_ticks(config.response_timeout_s, "response_timeout_s") and warmup_ok:
        finite_ticks(config.warmup_delay_s + config.response_timeout_s,
                     "warmup_delay_s + response_timeout_s", what="device guard")
    if not config.max_retries >= 0:
        violations.append(Violation(rule="max retries must be >= 0", field="max_retries"))
    if config.tx_airtime_override_s is not None:
        if not config.tx_airtime_override_s > 0:
            violations.append(Violation(rule="airtime override must be > 0",
                                        field="tx_airtime_s"))
        else:
            finite_ticks(config.tx_airtime_override_s, "tx_airtime_s")
    if not config.poll_wake_duration_s >= 0:
        violations.append(Violation(rule="poll wake duration must be >= 0",
                                    field="poll_wake_duration_s"))
    finite_ticks(config.poll_wake_duration_s, "poll_wake_duration_s")
    profile = config.consumption
    if not (0 <= profile.sleeping_ma <= profile.awake_idle_ma <= profile.transmitting_ma):
        violations.append(Violation(
            rule="consumption must satisfy 0 <= sleeping <= awake_idle <= transmitting",
            field="consumption_profile"))
    return violations


# --------------------------------------------------------------------------
# Path geometry
# --------------------------------------------------------------------------

def _crossing_param(ax: float, ay: float, bx: float, by: float,
                    cx: float, cy: float, dx: float, dy: float) -> float | None:
    """Parameter along a->b of a proper crossing with segment c->d, else None.

    Proper means the segments cross at an interior point of both: touching at
    an endpoint or running collinearly does not count.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denominator = rx * sy - ry * sx
    if denominator == 0:
        return None
    t = ((cx - ax) * sy - (cy - ay) * sx) / denominator
    u = ((cx - ax) * ry - (cy - ay) * rx) / denominator
    if 0.0 < t < 1.0 and 0.0 < u < 1.0:
        return t
    return None


def obstacles_on_path(config: ScenarioConfig, a: int, b: int) -> list[Crossing]:
    """Obstructions on the straight path between two nodes, ordered from a to b.

    An obstacle participates when its floor lies within the endpoints' floor
    range and its segment properly crosses the 2-D projection of the path.
    Crossings at the same point along the path keep the order of
    `config.obstacles`. One FloorCrossing (at floor_loss_db each) is appended
    per unit of floor difference. Swapping a and b permutes only the ordering.

    Only the floors in range are visited, and an obstacle whose bounding box
    misses the path's is never segment-tested: a proper crossing is an
    interior point of both segments, so it lies in both boxes.
    """
    pa = config.node(a).position
    pb = config.node(b).position
    lo, hi = min(pa.floor, pb.floor), max(pa.floor, pb.floor)
    ax, ay, bx, by = pa.x, pa.y, pb.x, pb.y
    xmin, xmax = min(ax, bx), max(ax, bx)
    ymin, ymax = min(ay, by), max(ay, by)

    by_floor = config._obstacles_by_floor()
    hits: list[tuple[float, int, ObstacleCrossing]] = []
    for floor in range(lo, hi + 1):
        for oxmin, oxmax, oymin, oymax, cx, cy, dx, dy, position, crossing in \
                by_floor.get(floor, ()):
            if oxmax < xmin or oxmin > xmax or oymax < ymin or oymin > ymax:
                continue
            t = _crossing_param(ax, ay, bx, by, cx, cy, dx, dy)
            if t is not None:
                hits.append((t, position, crossing))
    hits.sort()

    crossings: list[Crossing] = [crossing for _, _, crossing in hits]
    crossings.extend(FloorCrossing(loss_db=config.floor_loss_db)
                     for _ in range(hi - lo))
    return crossings
