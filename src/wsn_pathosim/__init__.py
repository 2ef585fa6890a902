"""Deterministic simulator for cyclic-sleep wireless sensor networks used in
structural monitoring: scenario model, indoor path loss, collection protocol,
battery accounting, and a discrete-event engine gluing them together."""

from .engine import (EventKind, EventQueue, RngStream, SchedulingInPastError,
                     SimEvent, Ticks, Timer, US_PER_SECOND, derive_seed,
                     seconds_from_ticks, ticks_from_seconds)
from .model import (BatteryState, FloorCrossing, NodeRole, NodeSpec, Obstacle,
                    ObstacleCrossing, ObstacleKind, Position, RadioConfig,
                    ScenarioConfig, ScenarioError, ScenarioSyntaxError,
                    SchemaError, UnknownNodeError, Violation, load_scenario,
                    obstacles_on_path, parse_scenario, serialize_scenario,
                    validate_scenario)
from .propagation import (DEFAULT_PATH_LOSS_TABLE, LinkBudget, PathLossTable,
                          free_space_loss, is_connected, link_budget,
                          measure_rssi, select_channel)
from .sensors import (Constant, GaugeNotHeatedError, GaugeState, Ramp,
                      SensorKind, SensorSpec, Sinusoid, ground_truth, sample)
from .power import (ConsumptionProfile, CyclicSleepConfig, PowerLedger,
                    PowerState, average_current, estimate_lifetime, wake_timeline)
from .protocol import (ChecksumError, CoordinatorSession, EndDeviceState,
                       ErrorReason, FrameDecodeError, MessageFrame, MessageKind,
                       ParentTable, SampleRecord, build_parent_table,
                       coordinator_step, decode_frame, encode_frame,
                       end_device_step, err_payload, parse_err,
                       parse_sample_resp, parse_set_period, route_path,
                       sample_resp_payload, set_period_payload)
from .report import build_report, report_json, report_text, samples_csv
from .simulation import InvalidScenarioError, RunStats, Simulation

__version__ = "0.1.0"

__all__ = [
    "BatteryState", "ChecksumError", "Constant", "ConsumptionProfile",
    "CoordinatorSession", "CyclicSleepConfig", "DEFAULT_PATH_LOSS_TABLE",
    "EndDeviceState", "ErrorReason", "EventKind", "EventQueue",
    "FloorCrossing", "FrameDecodeError", "GaugeNotHeatedError", "GaugeState",
    "InvalidScenarioError", "LinkBudget", "MessageFrame", "MessageKind",
    "NodeRole", "NodeSpec", "Obstacle", "ObstacleCrossing", "ObstacleKind",
    "ParentTable", "PathLossTable", "Position", "PowerLedger", "PowerState",
    "RadioConfig", "Ramp", "RngStream", "RunStats", "SampleRecord",
    "ScenarioConfig", "ScenarioError", "ScenarioSyntaxError",
    "SchedulingInPastError", "SchemaError", "SensorKind", "SensorSpec",
    "SimEvent", "Simulation", "Sinusoid", "Ticks", "Timer", "UnknownNodeError",
    "US_PER_SECOND", "Violation", "average_current", "build_parent_table",
    "build_report", "coordinator_step",
    "decode_frame", "derive_seed", "encode_frame", "end_device_step",
    "err_payload", "estimate_lifetime", "free_space_loss", "ground_truth",
    "is_connected", "link_budget", "load_scenario", "measure_rssi",
    "obstacles_on_path", "parse_err", "parse_sample_resp", "parse_scenario",
    "parse_set_period", "report_json", "report_text", "route_path", "sample",
    "sample_resp_payload", "samples_csv", "seconds_from_ticks",
    "select_channel", "serialize_scenario", "set_period_payload",
    "ticks_from_seconds", "validate_scenario", "wake_timeline",
]
