"""The records built per event are immutable, compare by value and stay cheap.

A building-scale day builds tens of thousands of frames, delivered frames,
stimuli and timers. They are NamedTuples: immutable and hashable like a
frozen dataclass, but built without a Python-level __setattr__ call per
field, which made a frozen MessageFrame about 2.5 times as slow to build.
"""

import ast
import dataclasses
import inspect

import pytest

from wsn_pathosim import engine, protocol, simulation
from wsn_pathosim.protocol import (DeliveredFrame, ExternalWakeStimulus, GuardExpiredStimulus,
                                   MessageFrame, MessageKind, ResponseTimeoutStimulus,
                                   SampleRecord, WarmupDoneStimulus, decode_frame, encode_frame,
                                   sample_resp_payload)
from wsn_pathosim.sensors import SensorKind
from wsn_pathosim.simulation import SessionTimer, SetPeriodCommand

FRAME = MessageFrame(MessageKind.SAMPLE_RESP, 3, 0, 7,
                     sample_resp_payload(SensorKind.STRAIN_GAUGE, 12.5, 77))


def per_event_records():
    """One record of each type built per event, freshly built on each call."""
    return [
        MessageFrame(MessageKind.ACK, 3, 0, 7),
        DeliveredFrame(MessageFrame(MessageKind.ACK, 3, 0, 7), -61.25),
        SampleRecord(node=3, sensor=SensorKind.STRAIN_GAUGE, value=12.5, sampled_at=77,
                     received_at=90, rssi_dbm=-61.25),
        ExternalWakeStimulus(),
        GuardExpiredStimulus(125_000_000),
        WarmupDoneStimulus(4),
        ResponseTimeoutStimulus(4, 2),
        SessionTimer(3, ResponseTimeoutStimulus(4, 2)),
        SetPeriodCommand(3, 600),
    ]


RECORD_TYPES = [type(record) for record in per_event_records()]


@pytest.mark.parametrize("record", per_event_records(), ids=lambda r: type(r).__name__)
def test_a_record_rejects_attribute_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to put a new attribute in


@pytest.mark.parametrize("pair", zip(per_event_records(), per_event_records()),
                         ids=lambda pair: type(pair[0]).__name__)
def test_equal_records_compare_equal_and_hash_equal(pair):
    first, second = pair
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: "value"}[second] == "value"


def test_records_differing_in_one_field_compare_unequal():
    assert MessageFrame(MessageKind.ACK, 3, 0, 7) != MessageFrame(MessageKind.ACK, 3, 0, 8)
    assert DeliveredFrame(FRAME, -61.25) != DeliveredFrame(FRAME, -61.5)
    assert ResponseTimeoutStimulus(4, 2) != ResponseTimeoutStimulus(4, 3)
    assert SessionTimer(3, WarmupDoneStimulus(4)) != SessionTimer(3, WarmupDoneStimulus(5))


def test_a_decoded_frame_is_the_encoded_one():
    decoded = decode_frame(encode_frame(FRAME))
    assert type(decoded) is MessageFrame
    assert decoded == FRAME and hash(decoded) == hash(FRAME)
    assert decoded.wire_length == FRAME.wire_length == len(encode_frame(FRAME))
    assert decoded.summary() == "SAMPLE_RESP 3->0 seq=7"


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_a_per_event_record_is_a_named_tuple(record_type):
    assert issubclass(record_type, tuple) and hasattr(record_type, "_fields")
    assert not dataclasses.is_dataclass(record_type)
    assert "immutable" in record_type.__doc__


@pytest.mark.parametrize("module", [engine, protocol, simulation],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_no_class_on_the_per_event_path_is_a_frozen_dataclass(module):
    """A frozen dataclass sets each field through object.__setattr__ when it
    is built; none of these modules defines one, so none can be built per
    event."""
    classes = [value for value in vars(module).values()
               if inspect.isclass(value) and value.__module__ == module.__name__]
    assert classes
    frozen = [cls.__name__ for cls in classes
              if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen]
    assert frozen == []


def test_the_queue_builds_its_events_positionally():
    """A SimEvent built from keyword arguments took about twice as long."""
    tree = ast.parse(inspect.getsource(engine.EventQueue))
    builds = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SimEvent"]
    assert len(builds) == 1
    assert builds[0].keywords == [] and len(builds[0].args) == 5
