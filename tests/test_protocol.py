import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config, two_node_doc
from topology_reference import (buildings, mirrored_buildings, received_power,
                                reference_link_budget, reference_parent_table)
from wsn_pathosim import protocol
from wsn_pathosim.engine import RngStream, ticks_from_seconds
from wsn_pathosim.model import Position, validate_scenario
from wsn_pathosim.power import PowerState
from wsn_pathosim.propagation import free_space_loss
from wsn_pathosim.protocol import (BadMagicError, ChecksumError, CoordinatorSession,
                                   DeliveredFrame, DevicePhase, EndDeviceState,
                                   ErrorReason, ExternalWakeStimulus, FRAME_OVERHEAD,
                                   GuardExpiredStimulus, MessageFrame, MessageKind,
                                   PayloadLayoutMismatchError, ResponseTimeoutStimulus,
                                   SessionPhase, TruncatedFrameError, UnknownKindError,
                                   WarmupDoneStimulus, build_parent_table,
                                   coordinator_step, decode_frame, encode_frame,
                                   end_device_step, err_payload, parse_err,
                                   parse_sample_resp, parse_set_period, route_path,
                                   sample_resp_payload, set_period_payload)
from wsn_pathosim.sensors import SensorKind
from wsn_pathosim.simulation import Simulation

S = 1_000_000


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_awake_frame_golden_bytes():
    frame = MessageFrame(MessageKind.AWAKE, src=3, dst=0, seq=1)
    assert encode_frame(frame).hex() == "a50101000300000001a7"


def test_round_trip_every_kind():
    frames = [
        MessageFrame(MessageKind.AWAKE, 3, 0, 1),
        MessageFrame(MessageKind.HEAT_GAUGE_REQ, 0, 3, 2),
        MessageFrame(MessageKind.SAMPLE_REQ, 0, 3, 3),
        MessageFrame(MessageKind.SAMPLE_RESP, 3, 0, 4,
                     sample_resp_payload(SensorKind.STRAIN_GAUGE, 12.5, 77)),
        MessageFrame(MessageKind.SLEEP_REQ, 0, 3, 5),
        MessageFrame(MessageKind.SET_PERIOD, 0, 3, 6, set_period_payload(3600)),
        MessageFrame(MessageKind.ACK, 3, 0, 7),
        MessageFrame(MessageKind.ERR, 3, 0, 8, err_payload(ErrorReason.GAUGE_NOT_HEATED)),
    ]
    for frame in frames:
        assert decode_frame(encode_frame(frame)) == frame


def test_wire_length_matches_overhead():
    bare = MessageFrame(MessageKind.ACK, 1, 0, 0)
    assert len(encode_frame(bare)) == FRAME_OVERHEAD == bare.wire_length
    resp = MessageFrame(MessageKind.SAMPLE_RESP, 1, 0, 0,
                        sample_resp_payload(SensorKind.DISPLACEMENT, 1.0, 0))
    assert len(encode_frame(resp)) == FRAME_OVERHEAD + 17


def test_truncated_frames_rejected():
    data = encode_frame(MessageFrame(MessageKind.AWAKE, 3, 0, 1))
    for cut in (0, 1, 5, FRAME_OVERHEAD - 1):
        with pytest.raises(TruncatedFrameError):
            decode_frame(data[:cut])


def _with_valid_checksum(data: bytearray) -> bytes:
    checksum = 0
    for byte in data[:-1]:
        checksum ^= byte
    data[-1] = checksum
    return bytes(data)


def test_bad_magic_detected_after_checksum():
    data = bytearray(encode_frame(MessageFrame(MessageKind.AWAKE, 3, 0, 1)))
    data[0] = 0xA6
    with pytest.raises(BadMagicError):
        decode_frame(_with_valid_checksum(data))


def test_unknown_kind_detected():
    data = bytearray(encode_frame(MessageFrame(MessageKind.AWAKE, 3, 0, 1)))
    data[2] = 0x99
    with pytest.raises(UnknownKindError):
        decode_frame(_with_valid_checksum(data))


def test_payload_length_must_match_kind():
    with pytest.raises(PayloadLayoutMismatchError):
        encode_frame(MessageFrame(MessageKind.AWAKE, 3, 0, 1, b"\x00"))
    with pytest.raises(PayloadLayoutMismatchError):
        encode_frame(MessageFrame(MessageKind.SET_PERIOD, 0, 3, 1, b"\x00\x01"))
    data = bytearray(encode_frame(MessageFrame(MessageKind.SET_PERIOD, 0, 3, 1,
                                               set_period_payload(60))))
    data[2] = int(MessageKind.ACK)  # claims a kind whose payload must be empty
    with pytest.raises(PayloadLayoutMismatchError):
        decode_frame(_with_valid_checksum(data))


def test_addresses_must_fit_sixteen_bits():
    with pytest.raises(ValueError):
        encode_frame(MessageFrame(MessageKind.ACK, 70_000, 0, 0))
    with pytest.raises(ValueError):
        encode_frame(MessageFrame(MessageKind.ACK, 0, 0, -1))


def test_sample_resp_payload_round_trip():
    payload = sample_resp_payload(SensorKind.TEMPERATURE_CATHETER, -3.25, 2 ** 40)
    frame = MessageFrame(MessageKind.SAMPLE_RESP, 2, 0, 9, payload)
    assert parse_sample_resp(frame) == (SensorKind.TEMPERATURE_CATHETER, -3.25, 2 ** 40)


def test_set_period_and_err_payload_round_trips():
    frame = MessageFrame(MessageKind.SET_PERIOD, 0, 2, 1, set_period_payload(86400))
    assert parse_set_period(frame) == 86400
    err = MessageFrame(MessageKind.ERR, 2, 0, 1, err_payload(ErrorReason.BAD_PERIOD))
    assert parse_err(err) == ErrorReason.BAD_PERIOD


_payload_strategies = {
    MessageKind.SAMPLE_RESP: st.tuples(
        st.sampled_from(list(SensorKind)),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    ).map(lambda t: sample_resp_payload(*t)),
    MessageKind.SET_PERIOD: st.integers(min_value=0, max_value=2 ** 32 - 1)
        .map(set_period_payload),
    MessageKind.ERR: st.sampled_from(list(ErrorReason)).map(err_payload),
}


@st.composite
def arbitrary_frames(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    payload = draw(_payload_strategies.get(kind, st.just(b"")))
    return MessageFrame(kind=kind,
                        src=draw(st.integers(min_value=0, max_value=0xFFFF)),
                        dst=draw(st.integers(min_value=0, max_value=0xFFFF)),
                        seq=draw(st.integers(min_value=0, max_value=0xFFFF)),
                        payload=payload)


@given(arbitrary_frames())
def test_codec_round_trip_property(frame):
    encoded = encode_frame(frame)
    decoded = decode_frame(encoded)
    assert decoded == frame
    assert encode_frame(decoded) == encoded


@given(arbitrary_frames(), st.data())
def test_any_single_bit_flip_is_a_checksum_error(frame, data):
    encoded = bytearray(encode_frame(frame))
    position = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
    encoded[position // 8] ^= 1 << (position % 8)
    with pytest.raises(ChecksumError):
        decode_frame(bytes(encoded))


# ---------------------------------------------------------------------------
# End-device state machine
# ---------------------------------------------------------------------------


GAUGE_SENSOR = {"kind": "strain_gauge", "heat_duration_s": 120.0,
                "signal": {"shape": "constant", "level": 5.0}}


GUARD_TICKS = 125 * S  # the default warm-up plus response timeout


def _step(state, stimulus, now, spec, rng):
    return end_device_step(state, stimulus, now, spec, rng, guard_ticks=GUARD_TICKS)


def _device(sensor=None):
    config = make_config(two_node_doc(sensor=sensor))
    spec = config.node(1)
    state = EndDeviceState(node_id=1)
    return spec, state, RngStream(0)


def _deliver(state, spec, rng, kind, payload=b"", now=0, src=0):
    frame = MessageFrame(kind, src, state.node_id, 0, payload)
    return _step(state, DeliveredFrame(frame, -30.0), now, spec, rng)


def test_external_wake_sends_awake_and_arms_guard():
    spec, state, rng = _device()
    result = _step(state, ExternalWakeStimulus(), 100 * S, spec, rng)
    assert state.phase is DevicePhase.AWAKE_IDLE
    assert state.guard_until == 100 * S + 125 * S
    assert result.power_state is PowerState.AWAKE_IDLE
    assert [f.kind for f in result.frames] == [MessageKind.AWAKE]
    assert result.frames[0].dst == 0


def test_external_wake_while_awake_is_ignored():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _step(state, ExternalWakeStimulus(), S, spec, rng)
    assert result.frames == []


def test_sample_req_round_trip_for_plain_sensor():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _deliver(state, spec, rng, MessageKind.SAMPLE_REQ, now=S)
    assert [f.kind for f in result.frames] == [MessageKind.SAMPLE_RESP]
    kind, value, sampled_at = parse_sample_resp(result.frames[0])
    assert kind is SensorKind.DISPLACEMENT
    assert value == 1.0  # constant signal, zero noise
    assert sampled_at == S


def test_sample_req_while_sleeping_is_illegal():
    spec, state, rng = _device()
    result = _deliver(state, spec, rng, MessageKind.SAMPLE_REQ)
    assert state.phase is DevicePhase.SLEEPING
    assert result.error is ErrorReason.ILLEGAL_STIMULUS
    assert [f.kind for f in result.frames] == [MessageKind.ERR]


def test_heat_req_on_gauge_starts_heating():
    spec, state, rng = _device(GAUGE_SENSOR)
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _deliver(state, spec, rng, MessageKind.HEAT_GAUGE_REQ, now=S)
    assert state.phase is DevicePhase.HEATING
    assert [f.kind for f in result.frames] == [MessageKind.ACK]
    assert state.gauge.heated_from == S + ticks_from_seconds(120.0)
    assert state.gauge.heated_until == S + 2 * ticks_from_seconds(120.0)


def test_heat_req_without_gauge_reports_no_sensor():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _deliver(state, spec, rng, MessageKind.HEAT_GAUGE_REQ, now=S)
    assert result.error is ErrorReason.NO_SENSOR
    assert state.phase is DevicePhase.AWAKE_IDLE


def test_gauge_sampling_respects_the_heated_window():
    spec, state, rng = _device(GAUGE_SENSOR)
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    _deliver(state, spec, rng, MessageKind.HEAT_GAUGE_REQ, now=0)
    early = _deliver(state, spec, rng, MessageKind.SAMPLE_REQ,
                     now=state.gauge.heated_from - 1)
    assert early.error is ErrorReason.GAUGE_NOT_HEATED
    assert state.phase is DevicePhase.HEATING  # request did not disturb heating
    ready = _deliver(state, spec, rng, MessageKind.SAMPLE_REQ,
                     now=state.gauge.heated_from)
    assert ready.error is None
    assert [f.kind for f in ready.frames] == [MessageKind.SAMPLE_RESP]
    assert state.phase is DevicePhase.AWAKE_IDLE


def test_sleep_req_ends_round_and_commits_pending_period():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    staged = _deliver(state, spec, rng, MessageKind.SET_PERIOD,
                      payload=set_period_payload(900), now=S)
    assert state.pending_period_s == 900.0
    assert staged.applied_period_s is None  # not yet committed
    result = _deliver(state, spec, rng, MessageKind.SLEEP_REQ, now=2 * S)
    assert state.phase is DevicePhase.SLEEPING
    assert result.round_ended and not result.round_lost
    assert result.applied_period_s == 900.0
    assert state.pending_period_s is None
    assert result.power_state is PowerState.SLEEPING
    assert [f.kind for f in result.frames] == [MessageKind.ACK]


def test_set_period_reaches_a_sleeping_device():
    spec, state, rng = _device()
    result = _deliver(state, spec, rng, MessageKind.SET_PERIOD,
                      payload=set_period_payload(560))
    assert [f.kind for f in result.frames] == [MessageKind.ACK]
    assert state.pending_period_s == 560.0
    assert state.phase is DevicePhase.SLEEPING
    assert not result.round_ended  # commits at the end of the next round


def test_set_period_zero_is_rejected():
    spec, state, rng = _device()
    result = _deliver(state, spec, rng, MessageKind.SET_PERIOD,
                      payload=set_period_payload(0))
    assert result.error is ErrorReason.BAD_PERIOD
    assert state.pending_period_s is None


def test_sleep_req_while_sleeping_just_acks():
    spec, state, rng = _device()
    state.pending_period_s = 300.0
    result = _deliver(state, spec, rng, MessageKind.SLEEP_REQ)
    assert [f.kind for f in result.frames] == [MessageKind.ACK]
    assert not result.round_ended
    assert state.pending_period_s == 300.0  # no round ended, nothing committed


def test_guard_expiry_loses_the_round():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    deadline = state.guard_until
    result = _step(state, GuardExpiredStimulus(deadline), deadline, spec, rng)
    assert state.phase is DevicePhase.SLEEPING
    assert result.round_ended and result.round_lost
    assert result.frames == []  # silent: nobody is listening


def test_stale_guard_is_ignored_after_rearm():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    old_deadline = state.guard_until
    _deliver(state, spec, rng, MessageKind.SET_PERIOD,
             payload=set_period_payload(600), now=10 * S)
    assert state.guard_until == 10 * S + 125 * S  # re-armed by the frame
    result = _step(state, GuardExpiredStimulus(old_deadline), old_deadline, spec, rng)
    assert state.phase is DevicePhase.AWAKE_IDLE
    assert not result.round_ended


def test_err_stimulus_is_never_answered():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _deliver(state, spec, rng, MessageKind.ERR,
                      payload=err_payload(ErrorReason.ILLEGAL_STIMULUS), now=S)
    assert result.frames == []
    assert result.error is None


def test_unexpected_kind_answers_illegal_stimulus():
    spec, state, rng = _device()
    _step(state, ExternalWakeStimulus(), 0, spec, rng)
    result = _deliver(state, spec, rng, MessageKind.AWAKE, now=S)
    assert result.error is ErrorReason.ILLEGAL_STIMULUS


# ---------------------------------------------------------------------------
# Coordinator session
# ---------------------------------------------------------------------------


def _coordinator(sensor=None, max_retries=2):
    config = make_config(two_node_doc(
        sensor=sensor, defaults={"max_retries": max_retries}))
    session = CoordinatorSession(device=1)
    counter = iter(range(10_000))
    return config, config.node(1), session, lambda: next(counter)


def _frame_from_device(kind, payload=b""):
    return DeliveredFrame(MessageFrame(kind, 1, 0, 0, payload), -35.0)


def test_awake_triggers_immediate_sample_for_plain_sensor():
    config, device, session, next_seq = _coordinator()
    result = coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                              0, config, device, next_seq)
    assert [f.kind for f in result.frames] == [MessageKind.SAMPLE_REQ]
    assert session.phase is SessionPhase.WAITING_SAMPLE
    assert result.timer == ResponseTimeoutStimulus(1, 1)
    assert session.round_no == 1
    assert session.attempt == 1


def test_awake_triggers_heating_for_gauge():
    config, device, session, next_seq = _coordinator(GAUGE_SENSOR)
    result = coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                              0, config, device, next_seq)
    assert [f.kind for f in result.frames] == [MessageKind.HEAT_GAUGE_REQ]
    assert session.phase is SessionPhase.HEAT_REQUESTED
    assert result.timer == WarmupDoneStimulus(1)
    done = coordinator_step(session, WarmupDoneStimulus(session.round_no),
                            ticks_from_seconds(120.0), config, device, next_seq)
    assert [f.kind for f in done.frames] == [MessageKind.SAMPLE_REQ]
    assert done.timer == ResponseTimeoutStimulus(1, 1)


def test_stale_warmup_timer_is_ignored():
    config, device, session, next_seq = _coordinator(GAUGE_SENSOR)
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    result = coordinator_step(session, WarmupDoneStimulus(session.round_no - 1),
                              S, config, device, next_seq)
    assert result.frames == []
    assert session.phase is SessionPhase.HEAT_REQUESTED


def test_sample_resp_completes_round_and_persists():
    config, device, session, next_seq = _coordinator()
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    payload = sample_resp_payload(SensorKind.DISPLACEMENT, 1.0, 5 * S)
    result = coordinator_step(session,
                              _frame_from_device(MessageKind.SAMPLE_RESP, payload),
                              6 * S, config, device, next_seq)
    assert [f.kind for f in result.frames] == [MessageKind.SLEEP_REQ]
    assert result.round_completed
    assert session.rounds_completed == 1
    assert len(result.records) == 1
    record = result.records[0]
    assert (record.node, record.value, record.sampled_at) == (1, 1.0, 5 * S)
    assert record.received_at == 6 * S
    assert record.rssi_dbm == -35.0


def test_late_sample_resp_is_still_persisted():
    config, device, session, next_seq = _coordinator(max_retries=0)
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    coordinator_step(session, ResponseTimeoutStimulus(1, 1), 5 * S, config, device, next_seq)
    assert session.phase is SessionPhase.WAITING_AWAKE  # the round aborted
    payload = sample_resp_payload(SensorKind.DISPLACEMENT, 2.0, 0)
    result = coordinator_step(session,
                              _frame_from_device(MessageKind.SAMPLE_RESP, payload),
                              S, config, device, next_seq)
    assert len(result.records) == 1  # conservation: arrivals are never discarded
    assert result.frames == []
    assert not result.round_completed


def test_timeout_retries_then_aborts():
    config, device, session, next_seq = _coordinator(max_retries=2)
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    first = coordinator_step(session, ResponseTimeoutStimulus(1, 1), 5 * S,
                             config, device, next_seq)
    assert [f.kind for f in first.frames] == [MessageKind.SAMPLE_REQ]
    assert session.attempt == 2
    second = coordinator_step(session, ResponseTimeoutStimulus(1, 2), 10 * S,
                              config, device, next_seq)
    assert [f.kind for f in second.frames] == [MessageKind.SAMPLE_REQ]
    final = coordinator_step(session, ResponseTimeoutStimulus(1, 3), 15 * S,
                             config, device, next_seq)
    assert [f.kind for f in final.frames] == [MessageKind.SLEEP_REQ]
    assert final.round_aborted
    assert session.rounds_aborted == 1
    assert session.phase is SessionPhase.WAITING_AWAKE


@pytest.mark.parametrize("max_retries", [0, 1, 3])
@pytest.mark.parametrize("sensor", [None, GAUGE_SENSOR])
def test_a_round_sends_one_sample_request_per_retry_and_one_more(max_retries, sensor):
    config, device, session, next_seq = _coordinator(sensor, max_retries=max_retries)
    for round_no in (1, 2):  # the count starts afresh each round
        result = coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                                  0, config, device, next_seq)
        if sensor is not None:
            result = coordinator_step(session, result.timer, 0, config, device, next_seq)
        requests = 0
        while not result.round_aborted:
            requests += [f.kind for f in result.frames] == [MessageKind.SAMPLE_REQ]
            result = coordinator_step(session, result.timer, 0, config, device, next_seq)
        assert requests == max_retries + 1
        assert session.rounds_aborted == round_no


def test_stale_timeout_attempt_is_ignored():
    config, device, session, next_seq = _coordinator()
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    result = coordinator_step(session, ResponseTimeoutStimulus(1, 99), 5 * S,
                              config, device, next_seq)
    assert result.frames == []
    assert session.phase is SessionPhase.WAITING_SAMPLE


def test_err_frame_is_logged_not_retried_directly():
    config, device, session, next_seq = _coordinator()
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    result = coordinator_step(
        session,
        _frame_from_device(MessageKind.ERR, err_payload(ErrorReason.GAUGE_NOT_HEATED)),
        2 * S, config, device, next_seq)
    assert result.error_seen is ErrorReason.GAUGE_NOT_HEATED
    assert result.frames == []  # the armed timeout drives the retry
    assert session.phase is SessionPhase.WAITING_SAMPLE


def test_awake_mid_round_is_ignored():
    config, device, session, next_seq = _coordinator()
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    result = coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                              S, config, device, next_seq)
    assert result.frames == []
    assert session.round_no == 1


def test_next_round_starts_after_done():
    config, device, session, next_seq = _coordinator()
    coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                     0, config, device, next_seq)
    payload = sample_resp_payload(SensorKind.DISPLACEMENT, 1.0, 0)
    coordinator_step(session, _frame_from_device(MessageKind.SAMPLE_RESP, payload),
                     S, config, device, next_seq)
    result = coordinator_step(session, _frame_from_device(MessageKind.AWAKE),
                              100 * S, config, device, next_seq)
    assert [f.kind for f in result.frames] == [MessageKind.SAMPLE_REQ]
    assert session.round_no == 2


# ---------------------------------------------------------------------------
# Parent table and routing
# ---------------------------------------------------------------------------


def test_parent_table_for_the_two_wall_corridor(three_node_config):
    table = build_parent_table(three_node_config)
    assert table.parent == {0: None, 1: 0, 2: 1}
    assert table.unreachable == ()
    assert table.links[(0, 1)] == pytest.approx(-29.53)


def test_distant_device_is_unreachable_without_the_router(router_off_config):
    table = build_parent_table(router_off_config)
    assert table.parent == {0: None}
    assert table.unreachable == (2,)


def test_end_devices_never_relay():
    doc = two_node_doc()
    # a second device that could only reach the coordinator through node 1
    doc["nodes"].append({
        "id": 2, "role": "end_device", "position": {"x": 60.0, "y": 0.0},
        "sample_period_s": 120.0,
        "sensors": [{"kind": "displacement",
                     "signal": {"shape": "constant", "level": 0.0}}]})
    table = build_parent_table(make_config(doc))
    assert table.unreachable == (2,)
    assert 2 not in table.parent


def test_parent_tie_breaks_to_lower_id():
    doc = two_node_doc(defaults={"sensitivity_dbm": -31.0})
    doc["nodes"][1:] = [
        {"id": 1, "role": "router", "position": {"x": 8.0, "y": 3.0}},
        {"id": 2, "role": "router", "position": {"x": 8.0, "y": -3.0}},
        {"id": 3, "role": "end_device", "position": {"x": 16.0, "y": 0.0},
         "sample_period_s": 120.0,
         "sensors": [{"kind": "displacement",
                      "signal": {"shape": "constant", "level": 0.0}}]},
    ]
    table = build_parent_table(make_config(doc))
    # both routers offer bit-identical received power at the device
    assert table.parent[3] == 1


def test_connectivity_is_judged_at_the_receiver():
    doc = two_node_doc(ed_position={"x": 10.0, "y": 0.0})
    doc["nodes"][1]["radio"] = {"sensitivity_dbm": -20.0}  # too deaf for 10 m
    table = build_parent_table(make_config(doc))
    assert table.unreachable == (1,)


def test_route_path_spans_the_tree(three_node_config):
    table = build_parent_table(three_node_config)
    assert route_path(table, 2, 0) == [2, 1, 0]
    assert route_path(table, 0, 2) == [0, 1, 2]
    assert route_path(table, 1, 2) == [1, 2]
    assert route_path(table, 2, 2) == [2]


def test_route_path_splices_at_the_common_ancestor():
    doc = two_node_doc()
    doc["nodes"][1:] = [
        {"id": 1, "role": "router", "position": {"x": 4.0, "y": 2.0}},
        {"id": 2, "role": "router", "position": {"x": 4.0, "y": -2.0}},
        {"id": 3, "role": "end_device", "position": {"x": 8.0, "y": 4.0},
         "sample_period_s": 120.0,
         "sensors": [{"kind": "displacement",
                      "signal": {"shape": "constant", "level": 0.0}}]},
        {"id": 4, "role": "end_device", "position": {"x": 8.0, "y": -4.0},
         "sample_period_s": 120.0,
         "sensors": [{"kind": "displacement",
                      "signal": {"shape": "constant", "level": 0.0}}]},
    ]
    table = build_parent_table(make_config(doc))
    assert table.parent[3] == 1 and table.parent[4] == 2
    assert route_path(table, 3, 4) == [3, 1, 0, 2, 4]


def test_route_to_unreachable_node_is_none(router_off_config):
    table = build_parent_table(router_off_config)
    assert route_path(table, 0, 2) is None
    assert route_path(table, 2, 0) is None


@settings(max_examples=300, deadline=None)
@given(st.one_of(buildings(), mirrored_buildings()))
def test_parent_table_matches_the_unpruned_search(config):
    expected = reference_parent_table(config)
    table = build_parent_table(config)
    assert table.parent == expected.parent
    assert table.unreachable == expected.unreachable
    # repr shows every bit of each received power
    assert repr(received_power(table)) == repr(received_power(expected))


def test_parent_search_skips_budgets_the_loss_bound_rules_out(monkeypatch):
    doc = two_node_doc()
    doc["nodes"].append({
        "id": 2, "role": "end_device", "position": {"x": 500.0, "y": 0.0},
        "sample_period_s": 120.0,
        "sensors": [{"kind": "displacement", "signal": {"shape": "constant", "level": 0.0}}]})
    config = make_config(doc)
    budgeted = []
    real_link_budget = protocol.link_budget

    def counting_link_budget(config, a, b):
        budgeted.append((a, b))
        return real_link_budget(config, a, b)

    monkeypatch.setattr(protocol, "link_budget", counting_link_budget)
    table = build_parent_table(config)
    assert table.parent == {0: None, 1: 0}
    assert table.unreachable == (2,)
    assert budgeted == [(0, 1)]  # 500 m away: free-space loss alone is too much


def test_an_end_device_budgets_only_the_candidates_that_can_still_win(monkeypatch):
    # routers 1, 2 and 3 sit 1, 2 and 4 m from the device and the coordinator
    # 10 m: all four are in range, but with no walls the nearest router's
    # budget equals its bound, which the other three bounds fall below
    doc = two_node_doc(ed_position={"x": 10.0, "y": 0.0})
    doc["nodes"][1]["id"] = 4
    doc["nodes"][1:1] = [{"id": node_id, "role": "router", "position": {"x": x, "y": 0.0}}
                         for node_id, x in ((1, 11.0), (2, 12.0), (3, 14.0))]
    config = make_config(doc)
    budgeted = []
    real_link_budget = protocol.link_budget

    def counting_link_budget(config, a, b):
        budgeted.append((a, b))
        return real_link_budget(config, a, b)

    monkeypatch.setattr(protocol, "link_budget", counting_link_budget)
    table = build_parent_table(config)
    assert table.parent == {0: None, 1: 0, 2: 0, 3: 0, 4: 1}
    assert budgeted == [(0, 1), (0, 2), (0, 3), (1, 4)]
    # the three skipped candidates do connect: only the search stopped early
    assert all(reference_link_budget(config, up, 4).received_power >= -40.0
               for up in (0, 2, 3))
    assert reference_parent_table(config).parent == table.parent


def test_a_router_budgets_only_the_candidates_that_can_still_win(monkeypatch):
    # router 4 is 30 m out, beyond the coordinator's reach, and 20, 18 and 16 m
    # from the first-level routers 1, 2 and 3: all three are in range, but with
    # no walls router 3's budget equals its bound, which the other two fall
    # below; the end device 5 sits 2 m past router 4
    doc = two_node_doc(ed_position={"x": 32.0, "y": 0.0})
    doc["nodes"][1]["id"] = 5
    doc["nodes"][1:1] = [{"id": node_id, "role": "router", "position": {"x": x, "y": 0.0}}
                         for node_id, x in ((1, 10.0), (2, 12.0), (3, 14.0), (4, 30.0))]
    config = make_config(doc)
    budgeted = []
    real_link_budget = protocol.link_budget

    def counting_link_budget(config, a, b):
        budgeted.append((a, b))
        return real_link_budget(config, a, b)

    monkeypatch.setattr(protocol, "link_budget", counting_link_budget)
    table = build_parent_table(config)
    assert table.parent == {0: None, 1: 0, 2: 0, 3: 0, 4: 3, 5: 4}
    assert budgeted == [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]
    # the two skipped first-level routers do connect: only the search stopped early
    assert all(reference_link_budget(config, up, 4).received_power >= -40.0
               for up in (1, 2))
    assert reference_link_budget(config, 0, 4).received_power < -40.0
    expected = reference_parent_table(config)
    assert table.parent == expected.parent
    assert repr(received_power(table)) == repr(received_power(expected))


def test_a_negative_obstacle_loss_turns_the_loss_bound_off():
    # unvalidated: a wall with a 100 dB gain brings a 500 m link into range,
    # which a bound of free-space loss alone would have ruled out
    doc = two_node_doc(ed_position={"x": 500.0, "y": 0.0})
    doc["obstacles"] = [{"kind": "brick_wall", "from": {"x": 250.0, "y": -1.0},
                         "to": {"x": 250.0, "y": 1.0}, "attenuation_db": -100.0}]
    table = build_parent_table(make_config(doc))
    assert table.parent == {0: None, 1: 0}
    assert table.links[(0, 1)] == pytest.approx(3.0 + 100.0 - free_space_loss(500.0))


def test_a_router_stacked_above_the_coordinator_builds_and_runs(three_node_config):
    # a router at the coordinator's x/y one floor up: a 0 m in-plane distance
    router = dataclasses.replace(three_node_config.nodes[1], id=3,
                                 position=Position(0.0, 0.0, 1))
    three_node_config = dataclasses.replace(
        three_node_config, nodes=three_node_config.nodes + (router,))
    assert validate_scenario(three_node_config) == []
    sim = Simulation(three_node_config)
    assert sim.parent_table.parent[3] == 0
    assert sim.parent_table.links[(0, 3)] == 3.0 - three_node_config.floor_loss_db
    sim.run_until(86400.0)
    assert sim.stats()["clock_s"] == 86400.0
