"""Radio attenuation and received power.

Free-space loss follows one fixed table, the paper's measured indoor anchors,
interpolated linearly in log10(distance); obstacle and floor losses add on
top. Connectivity is a deterministic threshold test; RSSI measurement adds
seeded Gaussian shadowing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

from .engine import RngStream
from .model import ScenarioConfig, obstacles_on_path

DEFAULT_PATH_LOSS_ANCHORS: tuple[tuple[float, float], ...] = (
    (0.5, 0.00),
    (1.0, 8.16),
    (2.0, 11.65),
    (4.0, 19.91),
    (8.0, 23.93),
    (11.0, 29.61),
)
# Distances are positive and strictly increasing, losses non-decreasing: the
# parent search's loss bound relies on it. The log10 of every anchor distance
# and the slope of the last segment are computed once, here.
_XS = tuple(math.log10(d) for d, _ in DEFAULT_PATH_LOSS_ANCHORS)
_YS = tuple(a for _, a in DEFAULT_PATH_LOSS_ANCHORS)
_END_SLOPE = (_YS[-1] - _YS[-2]) / (_XS[-1] - _XS[-2])


class NonPositiveDistanceError(ValueError):
    """Distance must be >= 0 for a loss to be defined."""


class EmptyChannelMapError(ValueError):
    """Channel selection over an empty interference map."""


def free_space_loss(distance_m: float) -> float:
    """Unobstructed attenuation (dB) at a distance, from the anchor table.

    Distances at or below the first anchor, 0 m included (two nodes stacked
    at one x/y point on different floors), clamp to its attenuation; between
    anchors the loss is linear in log10(distance); beyond the last anchor the
    final segment's slope extrapolates, so inf gives inf. A negative or NaN
    distance raises NonPositiveDistanceError.
    """
    if not distance_m >= 0:  # NaN fails every comparison
        raise NonPositiveDistanceError(f"distance must be >= 0 m, got {distance_m}")
    if distance_m <= DEFAULT_PATH_LOSS_ANCHORS[0][0]:
        return DEFAULT_PATH_LOSS_ANCHORS[0][1]
    x = math.log10(distance_m)
    xs, ys = _XS, _YS
    if x >= xs[-1]:
        return ys[-1] + _END_SLOPE * (x - xs[-1])
    # The first segment that ends at or past x: xs[i - 1] < x <= xs[i], or
    # i = 1 when x rounds to xs[0] itself.
    i = bisect_left(xs, x, 1)
    t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] * (1.0 - t) + ys[i] * t


@dataclass(frozen=True)
class LinkBudget:
    """Itemized attenuation of one directed link.

    obstacle_losses holds (label, dB) pairs in path order, floor crossings
    labeled "floor_crossing". total_attenuation = free_space_loss + their sum;
    received_power = tx_power - total_attenuation. All figures in dB(m).
    """

    distance: float
    free_space_loss: float
    obstacle_losses: tuple[tuple[str, float], ...]
    total_attenuation: float
    tx_power: float
    received_power: float


def link_budget(config: ScenarioConfig, a: int, b: int) -> LinkBudget:
    """Budget of the a -> b link using a's transmit power.

    Distance is 2-D (in-plane); floor separation enters as per-floor crossing
    losses instead. Attenuation is symmetric in a and b, so swapping the nodes
    changes the budget only if their transmit powers differ.
    """
    node_a = config.node(a)
    node_b = config.node(b)
    distance = math.hypot(node_b.position.x - node_a.position.x,
                          node_b.position.y - node_a.position.y)
    fsl = free_space_loss(distance)
    losses = obstacles_on_path(config, a, b)
    # Left to right, not sum(): from Python 3.12 sum() compensates float
    # rounding, so its bits would depend on the interpreter.
    obstructed = 0.0
    for _, loss in losses:
        obstructed += loss
    total = fsl + obstructed
    tx_power = node_a.radio.tx_power_dbm
    return LinkBudget(distance=distance, free_space_loss=fsl,
                      obstacle_losses=tuple(losses), total_attenuation=total,
                      tx_power=tx_power, received_power=tx_power - total)


def is_connected(budget: LinkBudget, sensitivity_dbm: float) -> bool:
    """Deterministic link test: received power meets the receiver's sensitivity
    (inclusive). Shadowing plays no part here."""
    return budget.received_power >= sensitivity_dbm


def measure_rssi(budget: LinkBudget, sigma_db: float, n_messages: int,
                 repetitions: int, rng: RngStream) -> float:
    """Grand mean RSSI (dBm) over repetitions x n_messages shadowed readings.

    Each reading is received_power + Normal(0, sigma_db) from the caller's
    stream; sigma 0 returns received_power exactly without consuming it.
    """
    if n_messages < 1 or repetitions < 1:
        raise ValueError("n_messages and repetitions must be >= 1")
    if sigma_db < 0:
        raise ValueError(f"shadowing sigma must be >= 0, got {sigma_db}")
    if sigma_db == 0:
        return budget.received_power
    count = n_messages * repetitions
    readings = (budget.received_power + rng.normal(0.0, sigma_db) for _ in range(count))
    return math.fsum(readings) / count


def select_channel(channels: Mapping[int, float]) -> int:
    """Channel id with the least measured interference, lowest id on ties."""
    if not channels:
        raise EmptyChannelMapError("cannot select a channel from an empty map")
    return min(channels, key=lambda cid: (channels[cid], cid))
