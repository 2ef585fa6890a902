"""Collection protocol: wire frames, device/coordinator state machines, routing.

Frame layout (big-endian, checksum = XOR of all preceding bytes):

    magic 0xA5 | version 0x01 | kind u8 | src u16 | dst u16 | seq u16
    | payload (length fixed per kind) | checksum u8

See docs/protocol.md for worked examples. The state machines are step
functions: (state, stimulus, now) -> outputs; they mutate only the passed
state and the caller-supplied RNG stream, so independent simulations share
nothing.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

from .engine import RngStream, Ticks
from .model import NodeSpec, ScenarioConfig
from .power import PowerState
from .propagation import free_space_loss, link_budget
from .sensors import GaugeNotHeatedError, GaugeState, SensorKind, sample

FRAME_MAGIC = 0xA5
FRAME_VERSION = 0x01
FRAME_OVERHEAD = 10  # 9 header bytes + 1 checksum
MAX_PAYLOAD = 64
PARENT_BUFFER_CAPACITY = 16


class MessageKind(IntEnum):
    """Wire-stable command codes."""

    AWAKE = 0x01
    HEAT_GAUGE_REQ = 0x02
    SAMPLE_REQ = 0x03
    SAMPLE_RESP = 0x04
    SLEEP_REQ = 0x05
    SET_PERIOD = 0x06
    ACK = 0x07
    ERR = 0x08


# Enum members the step functions compare against, bound once, next to the
# tables of their names. On CPython 3.10 and 3.11 the Enum metaclass defines
# __getattr__, which turns every MessageKind.ACK-style read into a generic lookup
# of about 150 ns, against about 14 ns for a module global; and Enum.name and
# Enum.value go through a Python-level descriptor on every read.
AWAKE, HEAT_GAUGE_REQ, SAMPLE_REQ, SAMPLE_RESP, SLEEP_REQ, SET_PERIOD, ACK, ERR = MessageKind
_KIND_NAME = {kind: kind.name for kind in MessageKind}


class ErrorReason(IntEnum):
    """Payload byte of an ERR frame."""

    GAUGE_NOT_HEATED = 0x01
    ILLEGAL_STIMULUS = 0x02
    NO_SENSOR = 0x03
    BAD_PERIOD = 0x04


GAUGE_NOT_HEATED, ILLEGAL_STIMULUS, NO_SENSOR, BAD_PERIOD = ErrorReason

_SENSOR_CODE = {
    SensorKind.STRAIN_GAUGE: 0x01,
    SensorKind.DISPLACEMENT: 0x02,
    SensorKind.TEMPERATURE_CATHETER: 0x03,
}
_SENSOR_FROM_CODE = {code: kind for kind, code in _SENSOR_CODE.items()}
_SENSOR_NAME = {kind: kind.value for kind in SensorKind}  # the samples.csv sensor column

# Fixed payload length per kind; SAMPLE_RESP carries sensor code + f64 value
# + u64 sample ticks, SET_PERIOD a u32 period in seconds, ERR a reason byte.
_PAYLOAD_LENGTH = {
    MessageKind.AWAKE: 0,
    MessageKind.HEAT_GAUGE_REQ: 0,
    MessageKind.SAMPLE_REQ: 0,
    MessageKind.SAMPLE_RESP: 17,
    MessageKind.SLEEP_REQ: 0,
    MessageKind.SET_PERIOD: 4,
    MessageKind.ACK: 0,
    MessageKind.ERR: 1,
}
WIRE_LENGTHS = frozenset(FRAME_OVERHEAD + length for length in _PAYLOAD_LENGTH.values())


class FrameDecodeError(Exception):
    """Base for every frame decoding failure."""


class TruncatedFrameError(FrameDecodeError):
    pass


class ChecksumError(FrameDecodeError):
    pass


class BadMagicError(FrameDecodeError):
    pass


class UnknownKindError(FrameDecodeError):
    pass


class PayloadLayoutMismatchError(FrameDecodeError):
    """Payload length inconsistent with the frame kind (encode or decode)."""


class MessageFrame(NamedTuple):
    """One frame as the state machines see it; immutable."""

    kind: MessageKind
    src: int
    dst: int
    seq: int
    payload: bytes = b""

    @property
    def wire_length(self) -> int:
        return FRAME_OVERHEAD + len(self.payload)

    def summary(self) -> str:
        return f"{_KIND_NAME[self.kind]} {self.src}->{self.dst} seq={self.seq}"


def encode_frame(frame: MessageFrame) -> bytes:
    """Serialize a frame; total length is FRAME_OVERHEAD + payload length."""
    expected = _PAYLOAD_LENGTH[frame.kind]
    if len(frame.payload) != expected:
        raise PayloadLayoutMismatchError(
            f"{frame.kind.name} payload must be {expected} bytes, got {len(frame.payload)}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise PayloadLayoutMismatchError(f"payload exceeds {MAX_PAYLOAD} bytes")
    for label, value in (("src", frame.src), ("dst", frame.dst), ("seq", frame.seq)):
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{label} must fit in 16 bits, got {value}")
    body = struct.pack(">BBBHHH", FRAME_MAGIC, FRAME_VERSION, int(frame.kind),
                       frame.src, frame.dst, frame.seq) + frame.payload
    checksum = 0
    for byte in body:
        checksum ^= byte
    return body + bytes([checksum])


def decode_frame(data: bytes) -> MessageFrame:
    """Parse wire bytes back into a frame.

    The checksum is verified over the whole buffer before any field is
    interpreted, so flipping any single bit of a valid encoding surfaces as
    ChecksumError rather than a field-specific failure.
    """
    if len(data) < FRAME_OVERHEAD:
        raise TruncatedFrameError(f"frame needs >= {FRAME_OVERHEAD} bytes, got {len(data)}")
    checksum = 0
    for byte in data[:-1]:
        checksum ^= byte
    if checksum != data[-1]:
        raise ChecksumError(f"checksum mismatch: computed {checksum:#04x}, got {data[-1]:#04x}")
    magic, version, kind_code, src, dst, seq = struct.unpack(">BBBHHH", data[:9])
    if magic != FRAME_MAGIC:
        raise BadMagicError(f"bad magic {magic:#04x}")
    if version != FRAME_VERSION:
        raise BadMagicError(f"unsupported version {version:#04x}")
    try:
        kind = MessageKind(kind_code)
    except ValueError as exc:
        raise UnknownKindError(f"unknown kind {kind_code:#04x}") from exc
    payload = data[9:-1]
    if len(payload) != _PAYLOAD_LENGTH[kind]:
        raise PayloadLayoutMismatchError(
            f"{kind.name} payload must be {_PAYLOAD_LENGTH[kind]} bytes, got {len(payload)}")
    return MessageFrame(kind=kind, src=src, dst=dst, seq=seq, payload=payload)


def sample_resp_payload(sensor_kind: SensorKind, value: float, sampled_at: Ticks) -> bytes:
    return struct.pack(">BdQ", _SENSOR_CODE[sensor_kind], value, sampled_at)


def parse_sample_resp(frame: MessageFrame) -> tuple[SensorKind, float, Ticks]:
    code, value, sampled_at = struct.unpack(">BdQ", frame.payload)
    return _SENSOR_FROM_CODE[code], value, sampled_at


def set_period_payload(period_s: int) -> bytes:
    return struct.pack(">I", period_s)


def parse_set_period(frame: MessageFrame) -> int:
    return struct.unpack(">I", frame.payload)[0]


def err_payload(reason: ErrorReason) -> bytes:
    return bytes([int(reason)])


def parse_err(frame: MessageFrame) -> ErrorReason:
    return ErrorReason(frame.payload[0])


class SampleRecord(NamedTuple):
    """One measurement persisted by the coordinator; immutable."""

    node: int
    sensor: SensorKind
    value: float
    sampled_at: Ticks
    received_at: Ticks
    rssi_dbm: float


SAMPLE_LOG_HEADER = "ticks,node,sensor,value,sampled_ticks,rssi_dbm"


def sample_log_row(record: SampleRecord) -> str:
    return (f"{record.received_at},{record.node},{_SENSOR_NAME[record.sensor]},"
            f"{record.value!r},{record.sampled_at},{record.rssi_dbm!r}")


# --------------------------------------------------------------------------
# End-device state machine
# --------------------------------------------------------------------------

class DevicePhase(Enum):
    SLEEPING = "sleeping"
    AWAKE_IDLE = "awake_idle"
    HEATING = "heating"


SLEEPING, AWAKE_IDLE, HEATING = DevicePhase
POWER_SLEEPING, POWER_AWAKE_IDLE = PowerState.SLEEPING, PowerState.AWAKE_IDLE


@dataclass
class EndDeviceState:
    """Mutable protocol state of one End Device."""

    node_id: int
    phase: DevicePhase = SLEEPING
    pending_period_s: float | None = None
    gauge: GaugeState = field(default_factory=GaugeState)
    guard_until: Ticks | None = None
    frame_seq: int = 0

    def next_seq(self) -> int:
        seq = self.frame_seq
        self.frame_seq = (self.frame_seq + 1) & 0xFFFF
        return seq


class ExternalWakeStimulus(NamedTuple):
    """The device's wake for a collection round; immutable."""


class GuardExpiredStimulus(NamedTuple):
    """The guard deadline of an awake device has come; immutable."""

    deadline: Ticks


class DeliveredFrame(NamedTuple):
    """A frame as its receiver got it; immutable."""

    frame: MessageFrame
    rssi_dbm: float


DeviceStimulus = ExternalWakeStimulus | GuardExpiredStimulus | DeliveredFrame


@dataclass
class DeviceStepResult:
    frames: list[MessageFrame] = field(default_factory=list)
    power_state: PowerState | None = None
    round_ended: bool = False
    round_lost: bool = False
    applied_period_s: float | None = None
    error: ErrorReason | None = None


def end_device_step(state: EndDeviceState, stimulus: DeviceStimulus, now: Ticks,
                    device: NodeSpec, rng: RngStream, *, coordinator_id: int = 0,
                    guard_ticks: Ticks = 125_000_000) -> DeviceStepResult:
    """Advance an End Device by one stimulus.

    Illegal stimuli are answered with ERR and leave the state unchanged. The
    guard deadline (guard_ticks after each stimulus while awake) makes the
    device give the round up and sleep if the coordinator goes silent; a pending
    period change commits whenever the round ends, normally or not.
    """
    result = DeviceStepResult()

    if isinstance(stimulus, ExternalWakeStimulus):
        if state.phase is not SLEEPING:
            return result
        state.phase = AWAKE_IDLE
        state.guard_until = now + guard_ticks
        result.power_state = POWER_AWAKE_IDLE
        result.frames.append(MessageFrame(AWAKE, state.node_id,
                                          coordinator_id, state.next_seq()))
        return result

    if isinstance(stimulus, GuardExpiredStimulus):
        if (state.phase is SLEEPING or state.guard_until is None
                or stimulus.deadline != state.guard_until or now < state.guard_until):
            return result  # stale guard
        _finish_round(state, result, lost=True)
        return result

    frame = stimulus.frame
    kind = frame.kind
    reply_to = frame.src

    if state.phase is not SLEEPING:
        state.guard_until = now + guard_ticks

    if kind is SET_PERIOD:
        # Accepted in any phase: reaches sleeping devices at their poll wakes.
        period = parse_set_period(frame)
        if period <= 0:
            return _refuse(state, result, reply_to, BAD_PERIOD)
        state.pending_period_s = float(period)
        result.frames.append(MessageFrame(ACK, state.node_id, reply_to, state.next_seq()))
        return result

    if kind is SLEEP_REQ:
        result.frames.append(MessageFrame(ACK, state.node_id, reply_to, state.next_seq()))
        if state.phase is not SLEEPING:
            _finish_round(state, result, lost=False)
        return result

    if kind is HEAT_GAUGE_REQ:
        if state.phase is SLEEPING:
            return _refuse(state, result, reply_to, ILLEGAL_STIMULUS)
        sensor = device.primary_sensor
        if sensor is None or not sensor.requires_heating:
            return _refuse(state, result, reply_to, NO_SENSOR)
        state.phase = HEATING
        state.gauge.begin_heating(now, sensor.heat_duration_ticks)
        result.frames.append(MessageFrame(ACK, state.node_id, reply_to, state.next_seq()))
        return result

    if kind is SAMPLE_REQ:
        if state.phase is SLEEPING:
            return _refuse(state, result, reply_to, ILLEGAL_STIMULUS)
        sensor = device.primary_sensor
        if sensor is None:
            return _refuse(state, result, reply_to, NO_SENSOR)
        try:
            value = sample(sensor, state.gauge, now, rng)
        except GaugeNotHeatedError:
            return _refuse(state, result, reply_to, GAUGE_NOT_HEATED)
        state.phase = AWAKE_IDLE
        result.frames.append(MessageFrame(
            SAMPLE_RESP, state.node_id, reply_to, state.next_seq(),
            sample_resp_payload(sensor.kind, value, now)))
        return result

    if kind is ERR:
        return result  # never answer an error with an error

    return _refuse(state, result, reply_to, ILLEGAL_STIMULUS)


def _refuse(state: EndDeviceState, result: DeviceStepResult, reply_to: int,
            reason: ErrorReason) -> DeviceStepResult:
    """Answer the frame from reply_to with ERR."""
    result.error = reason
    result.frames.append(MessageFrame(ERR, state.node_id, reply_to, state.next_seq(),
                                      err_payload(reason)))
    return result


def _finish_round(state: EndDeviceState, result: DeviceStepResult, *, lost: bool) -> None:
    state.phase = SLEEPING
    state.guard_until = None
    if state.pending_period_s is not None:
        result.applied_period_s = state.pending_period_s
        state.pending_period_s = None
    result.power_state = POWER_SLEEPING
    result.round_ended = True
    result.round_lost = lost


# --------------------------------------------------------------------------
# Coordinator state machine
# --------------------------------------------------------------------------

class SessionPhase(Enum):
    WAITING_AWAKE = "waiting_awake"
    HEAT_REQUESTED = "heat_requested"
    WAITING_SAMPLE = "waiting_sample"
    DONE = "done"


WAITING_AWAKE, HEAT_REQUESTED, WAITING_SAMPLE, DONE = SessionPhase


@dataclass
class CoordinatorSession:
    """Per-device collection session; phases advance monotonically per round and
    the session returns to WAITING_AWAKE for the next one."""

    device: int
    phase: SessionPhase = WAITING_AWAKE
    round_no: int = 0
    attempt: int = 0
    retries_left: int = 0
    started_at: Ticks = 0
    rounds_completed: int = 0
    rounds_aborted: int = 0


class WarmupDoneStimulus(NamedTuple):
    """The gauge warm-up of a round has run out; immutable."""

    round_no: int


class ResponseTimeoutStimulus(NamedTuple):
    """A SAMPLE_REQ of a round went unanswered; immutable."""

    round_no: int
    attempt: int


CoordinatorStimulus = DeliveredFrame | WarmupDoneStimulus | ResponseTimeoutStimulus


@dataclass
class CoordinatorStepResult:
    frames: list[MessageFrame] = field(default_factory=list)
    records: list[SampleRecord] = field(default_factory=list)
    # The stimulus to hand back once the warm-up or the response timeout has
    # run out, from now; the caller knows how long each lasts.
    timer: WarmupDoneStimulus | ResponseTimeoutStimulus | None = None
    round_completed: bool = False
    round_aborted: bool = False
    error_seen: ErrorReason | None = None


def coordinator_step(session: CoordinatorSession, stimulus: CoordinatorStimulus,
                     now: Ticks, config: ScenarioConfig, device: NodeSpec,
                     next_seq, coordinator_id: int = 0) -> CoordinatorStepResult:
    """Advance one device's collection session.

    next_seq is a callable yielding the coordinator's next frame sequence
    number. Heating is skipped for sensors that need none; a response timeout
    retries SAMPLE_REQ up to config.max_retries, after which the round aborts
    but SLEEP_REQ is still sent so the device never hangs awake.
    """
    result = CoordinatorStepResult()

    if isinstance(stimulus, WarmupDoneStimulus):
        if session.phase is HEAT_REQUESTED and stimulus.round_no == session.round_no:
            _request_sample(session, result, next_seq, coordinator_id)
        return result

    if isinstance(stimulus, ResponseTimeoutStimulus):
        if (session.phase is not WAITING_SAMPLE
                or stimulus.round_no != session.round_no
                or stimulus.attempt != session.attempt):
            return result  # stale timer
        if session.retries_left > 0:
            session.retries_left -= 1
            _request_sample(session, result, next_seq, coordinator_id)
        else:
            result.frames.append(MessageFrame(SLEEP_REQ, coordinator_id, session.device,
                                              next_seq()))
            session.phase = DONE
            session.rounds_aborted += 1
            result.round_aborted = True
        return result

    frame = stimulus.frame
    kind = frame.kind

    if kind is AWAKE:
        if session.phase is not WAITING_AWAKE and session.phase is not DONE:
            return result
        session.round_no += 1
        session.attempt = 0
        session.retries_left = config.max_retries
        session.started_at = now
        sensor = device.primary_sensor
        if sensor is not None and sensor.requires_heating:
            session.phase = HEAT_REQUESTED
            result.frames.append(MessageFrame(HEAT_GAUGE_REQ, coordinator_id, session.device,
                                              next_seq()))
            result.timer = WarmupDoneStimulus(session.round_no)
        else:
            _request_sample(session, result, next_seq, coordinator_id)
        return result

    if kind is SAMPLE_RESP:
        # Persist every delivered sample, even a late one after an abort.
        sensor_kind, value, sampled_at = parse_sample_resp(frame)
        result.records.append(SampleRecord(node=frame.src, sensor=sensor_kind,
                                           value=value, sampled_at=sampled_at,
                                           received_at=now, rssi_dbm=stimulus.rssi_dbm))
        if session.phase is WAITING_SAMPLE:
            result.frames.append(MessageFrame(SLEEP_REQ, coordinator_id, session.device,
                                              next_seq()))
            session.phase = DONE
            session.rounds_completed += 1
            result.round_completed = True
        return result

    if kind is ERR:
        # Counted in errors_seen only; the armed response timeout drives any
        # retry.
        result.error_seen = parse_err(frame)
    # An ACK, or a kind the coordinator never expects, changes nothing.
    return result


def _request_sample(session: CoordinatorSession, result: CoordinatorStepResult,
                    next_seq, coordinator_id: int) -> None:
    """Send the round's next SAMPLE_REQ and arm its response timeout."""
    session.attempt += 1
    session.phase = WAITING_SAMPLE
    result.frames.append(MessageFrame(SAMPLE_REQ, coordinator_id, session.device, next_seq()))
    result.timer = ResponseTimeoutStimulus(session.round_no, session.attempt)


# --------------------------------------------------------------------------
# Parent table and routing
# --------------------------------------------------------------------------

@dataclass
class ParentTable:
    """Static routing tree rooted at the coordinator.

    parent maps node id -> parent id (None for the root); nodes absent from
    parent are unreachable. links is the one link-budget cache: the received
    power (dBm) of each directed (sender, receiver) pair budgeted so far, by
    the parent search and then, for an uplink, when the simulation resolves
    a route. A pair the loss bound ruled out has no entry. buffers hold
    frames addressed to sleeping End Devices, capped at
    PARENT_BUFFER_CAPACITY each (oldest dropped first).
    """

    root: int
    parent: dict[int, int | None]
    unreachable: tuple[int, ...]
    links: dict[tuple[int, int], float]
    buffers: dict[int, deque[MessageFrame]] = field(default_factory=dict)

    @property
    def received_power(self) -> dict[int, float]:
        """Each attached node's received power from its parent."""
        return {child: self.links[(up, child)]
                for child, up in self.parent.items() if up is not None}

    def buffer_for(self, child: int) -> deque[MessageFrame]:
        buffer = self.buffers.get(child)
        if buffer is None:
            buffer = self.buffers[child] = deque()
        return buffer

    def path_to_root(self, node: int) -> list[int] | None:
        if node not in self.parent:
            return None
        path = [node]
        while (up := self.parent[path[-1]]) is not None:
            path.append(up)
        return path


# Absorbs the rounding between the loss bound and link_budget's own sum.
LOSS_BOUND_SLACK_DB = 1e-9


def build_parent_table(config: ScenarioConfig) -> ParentTable:
    """Choose each node's parent from downlink budgets.

    A link counts as connected when the candidate parent's transmission meets
    the child's sensitivity. One search picks every parent: the best
    connected candidate, that is the one with the highest received power,
    then the lowest id. Routers attach level by level from the coordinator:
    a router not yet attached takes its parent from the nodes that attached
    at the level before, so its parent is strictly fewer hops from the
    coordinator. An End Device takes its parent from the coordinator and
    every attached router. End Devices never relay, so the result is a tree.

    The search budgets only the candidates whose loss bound can still win.
    A pair's received power is at most its transmit power less its
    free-space and floor losses, up to LOSS_BOUND_SLACK_DB of rounding,
    whenever no obstacle loss is negative. The search visits the candidates
    from the highest bound down, lower id first on ties, and stops at the
    first one whose bound is below the child's sensitivity or the best
    connected power found so far. So the table, to the last bit of each
    received power, is the one the full search gives. Given a negative
    obstacle loss, every candidate is budgeted. Each level of routers, and
    the attached nodes, are placed once as (x, y, floor, tx_power_dbm, id)
    candidates, so a bound reads plain locals.

    Every budget computed lands in the table's links, keyed (sender,
    receiver).
    """
    coordinator = config.coordinator()
    floor_loss_db = config.floor_loss_db
    prune = all(o.loss_db >= 0 for o in config.obstacles)
    links: dict[tuple[int, int], float] = {}

    def placed(nodes: list[NodeSpec]) -> list[tuple]:
        return [(node.position.x, node.position.y, node.position.floor,
                 node.radio.tx_power_dbm, node.id) for node in nodes]

    def best_parent(child: NodeSpec, candidates: list[tuple]) -> int | None:
        sensitivity = child.radio.sensitivity_dbm
        position = child.position
        cx, cy, cf = position.x, position.y, position.floor
        # (-bound, id): the highest bound first, then the lowest id
        ranked = sorted([(-(tx - (free_space_loss(math.hypot(cx - x, cy - y))
                                  + abs(cf - f) * floor_loss_db)), up)
                         for x, y, f, tx, up in candidates])
        best_id: int | None = None
        best_power = -math.inf
        for negated, up in ranked:
            bound = -negated
            if prune and (bound < sensitivity - LOSS_BOUND_SLACK_DB
                          or bound < best_power - LOSS_BOUND_SLACK_DB):
                break  # neither this candidate nor any after it can win
            power = links[(up, child.id)] = link_budget(config, up, child.id).received_power
            if power >= sensitivity and (best_id is None
                                         or (power, -up) > (best_power, -best_id)):
                best_id, best_power = up, power
        return best_id

    routers = config.routers()
    above: dict[int, int] = {}  # each attached router's parent
    frontier = placed([coordinator])
    while frontier:
        level = []
        for router in routers:
            if router.id not in above and (up := best_parent(router, frontier)) is not None:
                above[router.id] = up
                level.append(router)
        frontier = placed(level)

    attached = [coordinator] + [router for router in routers if router.id in above]
    parent: dict[int, int | None] = {node.id: above.get(node.id) for node in attached}
    unreachable = [router.id for router in routers if router.id not in above]
    candidates = placed(attached)
    for device in config.end_devices():
        up = best_parent(device, candidates)
        if up is None:
            unreachable.append(device.id)
        else:
            parent[device.id] = up

    return ParentTable(root=coordinator.id, parent=parent,
                       unreachable=tuple(sorted(unreachable)), links=links)


def route_path(table: ParentTable, src: int, dst: int) -> list[int] | None:
    """Node sequence from src to dst along tree edges, or None when either
    side is unreachable."""
    up_src = table.path_to_root(src)
    up_dst = table.path_to_root(dst)
    if up_src is None or up_dst is None:
        return None
    ancestors = {node: i for i, node in enumerate(up_src)}
    for j, node in enumerate(up_dst):
        if node in ancestors:
            return up_src[:ancestors[node]] + up_dst[:j + 1][::-1]
    return None
