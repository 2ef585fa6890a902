"""Sensor behaviour: synthetic ground-truth signals, read noise, gauge heating.

Units: strain gauges report microstrain, displacement sensors millimetres,
temperature catheters degrees Celsius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .engine import RngStream, Ticks, seconds_from_ticks, ticks_from_seconds

DEFAULT_HEAT_DURATION_S = 120.0


class SensorKind(Enum):
    # Hash by identity, not through Enum.__hash__ (a Python-level call): the
    # kinds key the protocol's code and name tables, and no set of them is
    # iterated.
    __hash__ = object.__hash__

    STRAIN_GAUGE = "strain_gauge"
    DISPLACEMENT = "displacement"
    TEMPERATURE_CATHETER = "temperature_catheter"


# Bound once: on CPython 3.10 and 3.11 the Enum metaclass defines __getattr__,
# so a SensorKind.STRAIN_GAUGE-style read takes a generic attribute lookup,
# about 10x a global read.
STRAIN_GAUGE, DISPLACEMENT, TEMPERATURE_CATHETER = SensorKind


@dataclass(frozen=True)
class Constant:
    level: float


@dataclass(frozen=True)
class Ramp:
    start: float
    slope_per_hour: float


@dataclass(frozen=True)
class Sinusoid:
    mean: float
    amplitude: float
    period_hours: float


Signal = Constant | Ramp | Sinusoid


@dataclass(frozen=True)
class SensorSpec:
    """One physical sensor: what it measures, its true signal, and read noise.

    heat_duration_s applies to strain gauges only: the gauge bridge must heat
    for that long before a reading is trustworthy, and the reading stays valid
    for the same length of time afterwards.
    """

    kind: SensorKind
    signal: Signal
    noise_sigma: float = 0.0
    heat_duration_s: float | None = None

    @property
    def requires_heating(self) -> bool:
        return self.kind is STRAIN_GAUGE

    @property
    def heat_duration_ticks(self) -> Ticks:
        duration = self.heat_duration_s
        if duration is None:
            duration = DEFAULT_HEAT_DURATION_S
        return ticks_from_seconds(duration)


class GaugeNotHeatedError(Exception):
    """Sampling a strain gauge outside its heated-validity window."""


@dataclass
class GaugeState:
    """Heating bookkeeping for one strain gauge.

    heated_from is when heating completes; heated_until closes the validity
    window. A reading is valid iff heated_from <= now <= heated_until
    (both ends inclusive).
    """

    heated_from: Ticks | None = field(init=False, default=None)
    heated_until: Ticks | None = field(init=False, default=None)

    def begin_heating(self, now: Ticks, duration: Ticks) -> None:
        self.heated_from = now + duration
        self.heated_until = self.heated_from + duration

    def is_heated(self, now: Ticks) -> bool:
        if self.heated_from is None or self.heated_until is None:
            return False
        return self.heated_from <= now <= self.heated_until


def ground_truth(spec: SensorSpec, at: Ticks) -> float:
    """Noise-free signal value at virtual time `at`."""
    hours = seconds_from_ticks(at) / 3600.0
    signal = spec.signal
    if isinstance(signal, Constant):
        return signal.level
    if isinstance(signal, Ramp):
        return signal.start + signal.slope_per_hour * hours
    if isinstance(signal, Sinusoid):
        return signal.mean + signal.amplitude * math.sin(
            2.0 * math.pi * hours / signal.period_hours)
    raise TypeError(f"unknown signal {signal!r}")


def sample(spec: SensorSpec, gauge: GaugeState | None, at: Ticks,
           rng: RngStream) -> float:
    """Take one reading: ground truth plus seeded Gaussian read noise.

    Raises GaugeNotHeatedError when a strain gauge is read outside its heated
    window; that signals a protocol ordering bug (or a premature request)
    upstream. Only the caller-supplied stream is consumed, and only when
    noise_sigma > 0.
    """
    if spec.requires_heating:
        if gauge is None or not gauge.is_heated(at):
            raise GaugeNotHeatedError(
                f"strain gauge read at {at} ticks outside its heated window")
    value = ground_truth(spec, at)
    if spec.noise_sigma > 0.0:
        value += rng.normal(0.0, spec.noise_sigma)
    return value
