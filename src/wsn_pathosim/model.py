"""Scenario model: nodes, geometry, obstacles, radios, batteries, timing.

Scenario files are UTF-8 JSON with a strict schema (unknown keys are errors);
see docs/scenario-schema.md. Parsing applies documented defaults, building a
plain-dataclass configuration that serialize_scenario() reproduces exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from itertools import accumulate
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


def _index_obstacles(obstacles: tuple[Obstacle, ...]) -> dict[int, tuple]:
    """Each floor's (xmins, running maximum of xmaxes, obstacles), the
    obstacles sorted by xmin (see obstacles_on_path)."""
    by_floor: dict[int, list[_IndexedObstacle]] = {}
    for position, obstacle in enumerate(obstacles):
        start, end = obstacle.start, obstacle.end
        by_floor.setdefault(start.floor, []).append(_IndexedObstacle(
            min(start.x, end.x), max(start.x, end.x), min(start.y, end.y),
            max(start.y, end.y), start.x, start.y, end.x, end.y, position,
            ObstacleCrossing(kind=obstacle.kind, loss_db=obstacle.loss_db)))
    for entries in by_floor.values():
        entries.sort(key=lambda entry: entry.xmin)
    return {floor: ([entry.xmin for entry in entries],
                    list(accumulate((entry.xmax for entry in entries), max)), tuple(entries))
            for floor, entries in by_floor.items()}


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario; immutable, so vary one with dataclasses.replace. Its nodes
    and obstacles are kept as tuples of what it is given. Its id index (the
    first node wins when ids repeat) and its obstacles grouped by floor, each
    with its bounding box and sorted by its xmin, are built with it. They are plain attributes, not
    fields, so fields(), ==, repr, replace and serialize_scenario see only
    the scenario."""

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

    def __post_init__(self) -> None:
        nodes, obstacles = tuple(self.nodes), tuple(self.obstacles)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "_node_index", {node.id: node for node in reversed(nodes)})
        object.__setattr__(self, "_obstacle_index", _index_obstacles(obstacles))

    def node(self, node_id: int) -> NodeSpec:
        node = self._node_index.get(node_id)
        if node is None:
            raise UnknownNodeError(f"no node with id {node_id}")
        return node

    def has_node(self, node_id: int) -> bool:
        return node_id in self._node_index

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

class _Refusal(Exception):
    """A reader's refusal of a JSON value. As it unwinds, each reader that
    holds the value adds its step (".key", "[i]") to `steps`, innermost
    first; parse_scenario raises it as a SchemaError at the path they spell."""

    def __init__(self, message: str, *steps: str) -> None:
        self.message, self.steps = message, list(steps)


def _at(step: str, read, *args):
    """read(*args), with `step` added to the path of a refusal."""
    try:
        return read(*args)
    except _Refusal as refusal:
        refusal.steps.append(step)
        raise


def _expect_object(value: object) -> dict:
    if not isinstance(value, dict):
        raise _Refusal(f"expected an object, got {type(value).__name__}")
    return value


def _expect_array(value: object) -> list:
    if not isinstance(value, list):
        raise _Refusal(f"expected an array, got {type(value).__name__}")
    return value


def _expect_number(value: object) -> float:
    if type(value) is float and math.isfinite(value):  # most numbers json.loads gives
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Refusal(f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise _Refusal("expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise _Refusal(f"expected a finite number, got {value}")
    return number


def _expect_number_or_null(value: object) -> float | None:
    return None if value is None else _expect_number(value)


def _expect_positive(value: object) -> float:
    number = _expect_number(value)
    if number <= 0:
        raise _Refusal("must be > 0")
    return number


def _expect_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Refusal(f"expected an integer, got {type(value).__name__}")
    return value


def _expect_string(value: object) -> str:
    if not isinstance(value, str):
        raise _Refusal(f"expected a string, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: set[str] | frozenset[str]) -> None:
    if not allowed.issuperset(obj):  # builds no set, unlike obj.keys() - allowed
        unknown = obj.keys() - allowed
        raise _Refusal(f"unknown key(s): {', '.join(sorted(unknown))}")


# The {value: member} table of each enum a scenario names, in member order.
# A lookup in one takes about 0.06 us; the enum's own call, NodeRole(value),
# about 1.0 us, and a campus of 1000 nodes makes one per node and per sensor.
_ROLES = {role.value: role for role in NodeRole}
_SENSOR_KINDS = {kind.value: kind for kind in SensorKind}
_OBSTACLE_KINDS = {kind.value: kind for kind in ObstacleKind}


def _enum_value(members: dict[str, object], value: object):
    """The member that a {value: member} table gives for a string value."""
    name = _expect_string(value)
    member = members.get(name)
    if member is None:
        raise _Refusal(f"expected one of [{', '.join(members)}], got {name!r}")
    return member


# A reader is called as read(value) and gives a field's value from a JSON
# value; the path of a refusal is added as it unwinds (_Refusal). One whose
# field's value is not itself that JSON value also has doc(field_value),
# which gives the JSON value that reads back to it.

class _Enum:
    """A string naming a member of a {value: member} table."""

    def __init__(self, members: dict[str, Enum]) -> None:
        self.members = members

    def __call__(self, value: object) -> Enum:
        return _enum_value(self.members, value)

    @staticmethod
    def doc(member: Enum) -> str:
        return member.value


def _int_in(lo: int, hi: int):
    """The reader of an integer in lo..hi."""

    def read(value: object) -> int:
        number = _expect_int(value)
        if not lo <= number <= hi:
            raise _Refusal(f"must be in {lo}..{hi}, got {number}")
        return number
    return read


class _Array:
    """An array whose items `read` reads, as a tuple."""

    def __init__(self, read) -> None:
        self.read = read

    def __call__(self, value: object) -> tuple:
        items, done = _expect_array(value), []
        try:
            for item in items:
                done.append(self.read(item))
        except _Refusal as refusal:
            refusal.steps.append(f"[{len(done)}]")
            raise
        return tuple(done)

    def doc(self, items: tuple) -> list:
        return [self.read.doc(item) for item in items]


class _Shapes:
    """An object whose `shape` key names the record that reads its other keys."""

    def __init__(self, **records: _Record) -> None:
        self.records = records
        self.names = {record: record.names | {"shape"} for record in records.values()}

    def __call__(self, value: object):
        obj = _expect_object(value)
        if "shape" not in obj:
            raise _missing(["shape"])
        record = _at(".shape", _enum_value, self.records, obj["shape"])
        _check_keys(obj, self.names[record])
        return record.build(record.read(obj))

    def doc(self, value) -> dict:
        shape = next(shape for shape, record in self.records.items() if type(value) is record.cls)
        return {"shape": shape, **self.records[shape].doc(value)}


class _Layer:
    """A record's object, or null, read as the {field: value} of the keys it
    holds, for laying over the defaults object's keys (None for null)."""

    def __init__(self, record: _Record) -> None:
        self.record = record

    def __call__(self, value: object) -> dict | None:
        return None if value is None else self.record.values(value)

    def doc(self, instance) -> dict:
        return self.record.doc(instance)


def _missing(keys) -> _Refusal:
    return _Refusal(f"missing required key(s): {', '.join(sorted(keys))}")


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

    def read(self, obj: dict) -> dict:
        """{field: value} for each of the record's keys that obj holds, read
        in obj's order."""
        values = {}
        readers = self.readers
        try:
            for key, value in obj.items():
                entry = readers.get(key)
                if entry is not None:
                    values[entry[1]] = entry[0](value)
        except _Refusal as refusal:
            refusal.steps.append(f".{key}")
            raise
        return values

    def values(self, value: object) -> dict:
        """read() of the object `value`, which holds none but the record's keys."""
        obj = _expect_object(value)
        _check_keys(obj, self.names)
        return self.read(obj)

    def build(self, values: dict):
        """The instance whose fields `values` sets, once it sets each required one."""
        if not values.keys() >= self.required:
            raise _missing([key for key, _, name in self.keys
                            if name in self.required and name not in values])
        return self.cls(**values)

    def __call__(self, value: object):
        return self.build(self.values(value))

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
# A node's radio and battery are read as layers: _read_nodes lays each over
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


def _read_defaults(value: object) -> tuple[dict, dict, dict]:
    """The defaults object's radio keys, battery keys and settings."""
    defaults = _expect_object(value)
    _check_keys(defaults, _DEFAULTS_KEYS)
    return _RADIO.read(defaults), _DEFAULT_BATTERY.read(defaults), _SETTINGS.read(defaults)


def _read_nodes(value: object, radio: dict, battery: dict) -> list[NodeSpec]:
    """The nodes, each radio and battery object laid over `radio` and
    `battery`, the defaults object's keys. The nodes with no radio object
    share one RadioConfig, built at the first of them. An end device that
    declares no battery gets the defaults' battery; another node gets none."""
    nodes: list[NodeSpec] = []
    seen_ids: set[int] = set()
    shared_radio = None
    items = _expect_array(value)
    try:
        for item in items:
            node = _NODE.values(item)
            own = node.get("radio")
            if own:
                node["radio"] = _at(".radio", _RADIO.build, {**radio, **own})
            else:
                node["radio"] = shared_radio = shared_radio or _at(".radio", _RADIO.build, radio)
            own = node.get("battery")
            if own is not None or node.get("role") is NodeRole.END_DEVICE:
                node["battery"] = _at(".battery", _BATTERY.build, {**battery, **(own or {})})
            spec = _NODE.build(node)
            if spec.id in seen_ids:
                raise _Refusal(f"duplicate node id {spec.id}", ".id")
            seen_ids.add(spec.id)
            nodes.append(spec)
    except _Refusal as refusal:
        refusal.steps.append(f"[{len(nodes)}]")
        raise
    if not any(n.role is NodeRole.COORDINATOR for n in nodes):
        raise _Refusal("scenario declares no coordinator")
    return nodes


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
    try:
        root = _expect_object(document)
        _check_keys(root, {"nodes", "obstacles", "channels", "seed", "defaults"})
        if "nodes" not in root:
            raise _missing(["nodes"])
        radio, battery, settings = _at(".defaults", _read_defaults, root.get("defaults", {}))
        nodes = _at(".nodes", _read_nodes, root["nodes"], radio, battery)
        obstacles = _at(".obstacles", _Array(_OBSTACLE), root.get("obstacles", []))
        channels: dict[int, float] = {}
        for key, level in _at(".channels", _expect_object, root.get("channels", {})).items():
            if not (key.isascii() and key.removeprefix("-").isdigit()):
                raise _Refusal("channel ids must be integers", f".channels.{key}")
            channels[int(key)] = _at(f".channels.{key}", _expect_number, level)
        seed = _at(".seed", _expect_int, root.get("seed", 0))
    except _Refusal as refusal:
        raise SchemaError("$" + "".join(reversed(refusal.steps)), refusal.message) from None
    return ScenarioConfig(nodes=nodes, obstacles=obstacles,
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
    ticks must be a finite number of them (has_finite_ticks), and every one
    that must be > 0 must round to at least one tick.
    """
    from .protocol import WIRE_LENGTHS  # protocol imports this module

    violations: list[Violation] = []

    def flag(rule: str, node: int | None, field: str | None, message: str = "") -> None:
        violations.append(Violation(rule, node, field, message))

    def finite_ticks(seconds: float, field: str, node: int | None = None,
                     what: str = "duration") -> bool:
        if has_finite_ticks(seconds):
            return True
        flag(f"{what} must be a finite number of 1 us ticks", node, field, f"{seconds} s")
        return False

    def positive_ticks(seconds: float, field: str, node: int | None, what: str) -> int:
        """Its ticks if > 0 s and at least one tick, else 0 and a violation."""
        if not seconds > 0:
            flag(f"{what} must be > 0", node, field)
            return 0
        if not finite_ticks(seconds, field, node, what):
            return 0
        ticks = ticks_from_seconds(seconds)
        if ticks == 0:
            flag(f"{what} must round to at least one 1 us tick", node, field, f"{seconds} s")
        return ticks

    seen: set[int] = set()
    airtimes_ok: set[float] = set()  # bitrates whose frame airtimes passed
    shortest_bits, largest_bits = min(WIRE_LENGTHS) * 8, max(WIRE_LENGTHS) * 8
    coordinators = [n for n in config.nodes if n.role is NodeRole.COORDINATOR]
    if len(coordinators) != 1:
        flag("exactly one coordinator required", None, None, f"found {len(coordinators)}")
    elif coordinators[0].id != 0:
        flag("coordinator must use the reserved id 0", coordinators[0].id, "id")

    for node in config.nodes:
        prefix = node.id
        if node.id in seen:
            flag("duplicate node id", node.id, "id")
        seen.add(node.id)
        if not 0 <= node.id <= MAX_NODE_ID:
            flag(f"node id outside 0..{MAX_NODE_ID}", node.id, "id")
        if node.id == 0 and node.role is not NodeRole.COORDINATOR:
            flag("id 0 is reserved for the coordinator", node.id, "id")
        if not (math.isfinite(node.position.x) and math.isfinite(node.position.y)):
            flag("position must be finite", prefix, "position")
        if not -MAX_FLOOR <= node.position.floor <= MAX_FLOOR:
            flag(f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}", prefix, "position.floor")
        if not node.radio.shadowing_sigma_db >= 0:
            flag("shadowing sigma must be >= 0", prefix, "radio.shadowing_sigma_db")
        bitrate = node.radio.bitrate_bps
        if not bitrate > 0:
            flag("bitrate must be > 0", prefix, "radio.bitrate_bps")
        elif config.tx_airtime_override_s is None and bitrate not in airtimes_ok:
            if (finite_ticks(largest_bits / bitrate, "radio.bitrate_bps", prefix,
                             "the largest frame's airtime")
                    and positive_ticks(shortest_bits / bitrate, "radio.bitrate_bps", prefix,
                                       "the shortest frame's airtime")):
                airtimes_ok.add(bitrate)
        poll_s = node.radio.poll_period_s
        poll_ticks = positive_ticks(poll_s, "radio.poll_period_s", prefix, "poll period")
        if not math.isfinite(node.radio.tx_power_dbm):
            flag("tx power must be finite", prefix, "radio.tx_power_dbm")
        if not math.isfinite(node.radio.sensitivity_dbm):
            flag("sensitivity must be finite", prefix, "radio.sensitivity_dbm")

        if node.role is NodeRole.END_DEVICE:
            if node.battery is None:
                flag("end devices are battery powered", prefix, "battery")
            if node.sample_period_s is None or not node.sample_period_s > 0:
                flag("end devices need sample_period_s > 0", prefix, "sample_period_s")
            elif node.sample_period_s < poll_s:
                flag("sample period must be >= poll period", prefix, "sample_period_s",
                     f"{node.sample_period_s} < {poll_s}")
            elif poll_ticks:
                finite_ticks(node.sample_period_s, "sample_period_s", prefix, "sample period")
            window_s = config.poll_wake_duration_s
            if (poll_ticks and has_finite_ticks(window_s)
                    and poll_ticks <= ticks_from_seconds(window_s)):
                flag("poll wake duration must be shorter than the poll period", prefix,
                     "poll_wake_duration_s",
                     f"{config.poll_wake_duration_s} >= {node.radio.poll_period_s}")
        else:
            if node.battery is not None:
                flag("coordinator/router are mains powered (no battery)", prefix, "battery")
            if node.sample_period_s is not None:
                flag("sample_period_s applies to end devices only", prefix, "sample_period_s")
            if node.sensors:
                flag("sensors attach to end devices only", prefix, "sensors")

        if node.battery is not None:
            remaining = node.battery.remaining_mah or 0.0
            if not 0 <= remaining <= node.battery.capacity_mah:  # fails a capacity < 0 or nan
                flag("battery must satisfy 0 <= remaining <= capacity", prefix, "battery")

        for i, sensor in enumerate(node.sensors):
            if not sensor.noise_sigma >= 0:
                flag("noise sigma must be >= 0", prefix, f"sensors[{i}].noise_sigma")
            signal = sensor.signal  # ground_truth divides by a sinusoid's period
            if not all(map(math.isfinite, vars(signal).values())):
                flag("signal numbers must be finite", prefix, f"sensors[{i}].signal")
            elif isinstance(signal, Sinusoid) and not signal.period_hours > 0:
                flag("signal period must be > 0", prefix, f"sensors[{i}].signal")
            if sensor.kind is SensorKind.STRAIN_GAUGE:
                if sensor.heat_duration_s is not None:
                    positive_ticks(sensor.heat_duration_s, f"sensors[{i}].heat_duration_s",
                                   prefix, "heat duration")
            elif sensor.heat_duration_s is not None:
                flag("heat duration applies to strain gauges only", prefix,
                     f"sensors[{i}].heat_duration_s")

    for i, obstacle in enumerate(config.obstacles):
        start, end = obstacle.start, obstacle.end
        if not all(map(math.isfinite, (start.x, start.y, end.x, end.y))):
            flag("position must be finite", None, f"obstacles[{i}]")
        if start.floor != end.floor:
            flag("obstacle endpoints must share a floor", None, f"obstacles[{i}]")
        if not -MAX_FLOOR <= start.floor <= MAX_FLOOR:
            flag(f"floor outside -{MAX_FLOOR}..{MAX_FLOOR}", None, f"obstacles[{i}]")
        if (start.x, start.y) == (end.x, end.y):
            flag("obstacle segment must have nonzero length", None, f"obstacles[{i}]")
        if not obstacle.loss_db >= 0:
            flag("obstacle attenuation must be >= 0", None, f"obstacles[{i}].attenuation_db")

    for channel_id, interference in config.channels.items():
        if channel_id not in CHANNEL_RANGE:
            flag("channel ids must be in 11..26", None, f"channels.{channel_id}")
        if not interference >= 0:
            flag("interference must be >= 0", None, f"channels.{channel_id}")

    if type(config.seed) is not int or not 0 <= config.seed < (1 << 64):
        flag("seed must be an unsigned 64-bit integer", None, "seed", repr(config.seed))
    if not config.floor_loss_db >= 0:
        flag("floor loss must be >= 0", None, "floor_loss_db")
    if not config.warmup_delay_s >= 0:
        flag("warmup delay must be >= 0", None, "warmup_delay_s")
    warmup_ok = finite_ticks(config.warmup_delay_s, "warmup_delay_s")
    if positive_ticks(config.response_timeout_s, "response_timeout_s", None,
                      "response timeout") and warmup_ok:
        # warm-up >= 0 and a timeout of at least one tick: a guard of at least one
        finite_ticks(config.warmup_delay_s + config.response_timeout_s,
                     "warmup_delay_s + response_timeout_s", what="device guard")
    if not config.max_retries >= 0:
        flag("max retries must be >= 0", None, "max_retries")
    if config.tx_airtime_override_s is not None:
        positive_ticks(config.tx_airtime_override_s, "tx_airtime_s", None, "airtime override")
    if not config.poll_wake_duration_s >= 0:
        flag("poll wake duration must be >= 0", None, "poll_wake_duration_s")
    finite_ticks(config.poll_wake_duration_s, "poll_wake_duration_s")
    profile = config.consumption
    if not (0 <= profile.sleeping_ma <= profile.awake_idle_ma <= profile.transmitting_ma):
        flag("consumption must satisfy 0 <= sleeping <= awake_idle <= transmitting", None,
             "consumption_profile")
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
    interior point of both segments, so it lies in both boxes. A floor's
    obstacles are sorted by xmin, beside the running maximum of their xmaxes,
    which never falls. So those whose xmin is at most the path's xmax are a
    prefix (bisect_right), and those whose running maximum is below the
    path's xmin, which all end before the path begins, are a shorter prefix
    (bisect_left). Only the slice between is scanned, with the same exact
    comparisons.
    """
    pa = config.node(a).position
    pb = config.node(b).position
    lo, hi = min(pa.floor, pb.floor), max(pa.floor, pb.floor)
    ax, ay, bx, by = pa.x, pa.y, pb.x, pb.y
    xmin, xmax = min(ax, bx), max(ax, bx)
    ymin, ymax = min(ay, by), max(ay, by)

    by_floor = config._obstacle_index
    hits: list[tuple[float, int, ObstacleCrossing]] = []
    for floor in range(lo, hi + 1):
        starts, ends, entries = by_floor.get(floor, ((), (), ()))
        for _, oxmax, oymin, oymax, cx, cy, dx, dy, position, crossing in \
                entries[bisect_left(ends, xmin):bisect_right(starts, xmax)]:
            if oxmax < xmin or oymax < ymin or oymin > ymax:
                continue
            t = _crossing_param(ax, ay, bx, by, cx, cy, dx, dy)
            if t is not None:
                hits.append((t, position, crossing))
    hits.sort()

    crossings: list[Crossing] = [crossing for _, _, crossing in hits]
    crossings.extend(FloorCrossing(loss_db=config.floor_loss_db)
                     for _ in range(hi - lo))
    return crossings
