"""The per-event path reads no Enum member through its class.

On CPython 3.10 and 3.11 the Enum metaclass defines __getattr__, so every
read such as DevicePhase.SLEEPING goes through a generic attribute hook that
costs about ten times a module-global read. The hot modules bind the members
they compare against once, at module level; these tests keep it that way.
"""

import enum
import sys

import pytest

from wsn_pathosim import power, protocol, sensors, simulation
from wsn_pathosim.power import PowerState
from wsn_pathosim.simulation import Simulation

ENUM_TYPE = type(PowerState)  # EnumType, or EnumMeta before 3.11
HOOKED = "__getattr__" in vars(ENUM_TYPE)


@pytest.mark.parametrize("module", [power, protocol, sensors, simulation],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_bound_members_carry_their_names(module):
    """A module global bound to a member is named after it (SLEEPING, or
    PHASE_SLEEPING where two enums share a member name), so a reordered enum
    cannot silently swap the names of an unpacking line."""
    bound = {name: value for name, value in vars(module).items()
             if isinstance(value, enum.Enum)}
    assert bound
    for name, member in bound.items():
        assert name == member.name or name.endswith("_" + member.name), (name, member)


@pytest.mark.skipif(not HOOKED, reason="the Enum metaclass has no __getattr__ from 3.12 on")
def test_a_shipped_day_reads_no_enum_member_through_its_class(three_node_config, monkeypatch):
    sim = Simulation(three_node_config)
    hook_calls: list[str] = []
    member_reads: list[str] = []
    enum_code: list[str] = []
    real_getattr = vars(ENUM_TYPE)["__getattr__"]

    def counting_getattr(cls, name):
        hook_calls.append(name)
        return real_getattr(cls, name)

    def counting_getattribute(cls, name):
        # Members sit in the class dict, so they never reach __getattr__;
        # the slow path is the hook lookup that any class read goes through.
        if name in type.__getattribute__(cls, "_member_map_"):
            member_reads.append(f"{type.__getattribute__(cls, '__name__')}.{name}")
        return type.__getattribute__(cls, name)

    def profile(frame, event, arg):
        # Python-level Enum code: name/value descriptors, Enum.__hash__, ...
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            enum_code.append(frame.f_code.co_name)

    monkeypatch.setattr(ENUM_TYPE, "__getattr__", counting_getattr)
    monkeypatch.setattr(ENUM_TYPE, "__getattribute__", counting_getattribute)
    sys.setprofile(profile)
    try:
        sim.run_until(86400.0)
        stats = sim.stats()
    finally:
        sys.setprofile(None)
    monkeypatch.undo()
    assert stats["rounds"]["2"]["completed"] == 48
    assert hook_calls == []
    assert member_reads == []
    assert enum_code == []


@pytest.mark.skipif(not HOOKED, reason="the Enum metaclass has no __getattr__ from 3.12 on")
def test_the_member_read_counter_sees_a_read(monkeypatch):
    """The counter of the test above does count a read through the class."""
    reads: list[str] = []

    def counting_getattribute(cls, name):
        if name in type.__getattribute__(cls, "_member_map_"):
            reads.append(name)
        return type.__getattribute__(cls, name)

    monkeypatch.setattr(ENUM_TYPE, "__getattribute__", counting_getattribute)
    assert protocol.DevicePhase.HEATING is protocol.HEATING
    monkeypatch.undo()
    assert reads == ["HEATING"]
