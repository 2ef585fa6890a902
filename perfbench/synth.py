"""Seeded synthetic multi-floor buildings for the benchmark.

Each floor is a grid of equal rooms. Every interior room edge is one obstacle
segment, a brick wall or a wall with a closed door, at the ObstacleKind
default attenuation; floors cost DEFAULT_FLOOR_LOSS_DB each. The coordinator
sits at the centre of floor 0, routers sit on a line through the middle of
every floor (shifted sideways per floor, because two nodes at one x/y point
would make a zero-distance link), and end devices sit inside randomly chosen
rooms, spread evenly over the floors.

Reachability holds by construction: before emitting anything, the generator
bounds each end device's downlink loss from its nearest same-floor
infrastructure node (free-space loss at the 2-D distance plus one wall per
room boundary crossed) and refuses a building in which that bound misses the
device's sensitivity. Routers are stacked close above each other, so each
floor's routers reach the floor below.

Only random.Random.random() is drawn from, and coordinates are rounded to
centimetres, so one seed always gives the same scenario bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from wsn_pathosim.model import DEFAULT_FLOOR_LOSS_DB, ObstacleKind
from wsn_pathosim.propagation import free_space_loss

SENSOR_KINDS = ("strain_gauge", "displacement", "temperature_catheter")
ROOM_W_M, ROOM_D_M = 5.0, 4.0
ROOM_MARGIN_M = 0.3
DOOR_SHARE = 0.3
ROUTER_FLOOR_OFFSET_M = 0.5
TX_POWER_DBM = 3.0
SENSITIVITY_DBM = -60.0
SHADOWING_SIGMA_DB = 2.0


@dataclass(frozen=True)
class BuildingSpec:
    """Everything that shapes one generated building; periods are whole
    seconds, as in the paper's deployment."""

    floors: int
    rooms_x: int
    rooms_y: int
    routers_per_floor: int
    end_devices: int
    sensor_mix: dict[str, float] = field(default_factory=lambda: {
        "strain_gauge": 1.0, "displacement": 1.0, "temperature_catheter": 1.0})
    battery_mah: tuple[float, float] = (1100.0, 1100.0)
    poll_period_s: int = 28
    sample_period_s: int = 1800

    def __post_init__(self) -> None:
        if min(self.floors, self.rooms_x, self.rooms_y, self.routers_per_floor) < 1:
            raise ValueError("floors, room grid and routers per floor must be >= 1")
        if self.end_devices < 1 or 1 + self.floors * self.routers_per_floor + self.end_devices > 0xFFFF:
            raise ValueError("end device count out of range")
        if set(self.sensor_mix) - set(SENSOR_KINDS) or not any(
                weight > 0 for weight in self.sensor_mix.values()):
            raise ValueError(f"sensor mix must weight some of {SENSOR_KINDS}")
        if not 0 < self.battery_mah[0] <= self.battery_mah[1]:
            raise ValueError("battery range must satisfy 0 < low <= high")
        if not 0 < self.poll_period_s <= self.sample_period_s:
            raise ValueError("periods must satisfy 0 < poll <= sample")


def _split(total: int, weights: dict[str, float]) -> list[str]:
    """Exactly `total` labels in proportion to weights (largest remainder)."""
    kinds = [kind for kind in SENSOR_KINDS if weights.get(kind, 0) > 0]
    scale = total / sum(weights[kind] for kind in kinds)
    exact = {kind: weights[kind] * scale for kind in kinds}
    counts = {kind: math.floor(share) for kind, share in exact.items()}
    by_remainder = sorted(kinds, key=lambda kind: (counts[kind] - exact[kind], kinds.index(kind)))
    for kind in by_remainder[:total - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind in kinds for _ in range(counts[kind])]


def _pick(rng: random.Random, n: int) -> int:
    return min(n - 1, int(rng.random() * n))


def _shuffle(rng: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _pick(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _sensor(kind: str, rng: random.Random) -> dict:
    if kind == "strain_gauge":
        return {"kind": kind, "noise_sigma": 0.5,
                "signal": {"shape": "ramp", "start": round(100 + 50 * rng.random(), 2),
                           "slope_per_hour": round(rng.random() - 0.5, 3)}}
    if kind == "displacement":
        return {"kind": kind, "noise_sigma": 0.01,
                "signal": {"shape": "constant", "level": round(rng.random() * 2, 3)}}
    return {"kind": kind, "noise_sigma": 0.2,
            "signal": {"shape": "sinusoid", "mean": round(18 + 6 * rng.random(), 2),
                       "amplitude": 3.0, "period_hours": 24.0}}


def generate_building(spec: BuildingSpec, seed: int) -> str:
    """Scenario JSON text for a building; same spec and seed, same bytes."""
    rng = random.Random(seed)
    width = spec.rooms_x * ROOM_W_M
    depth = spec.rooms_y * ROOM_D_M

    obstacles = []
    for floor in range(spec.floors):
        edges = [((i * ROOM_W_M, j * ROOM_D_M), (i * ROOM_W_M, (j + 1) * ROOM_D_M))
                 for i in range(1, spec.rooms_x) for j in range(spec.rooms_y)]
        edges += [((i * ROOM_W_M, j * ROOM_D_M), ((i + 1) * ROOM_W_M, j * ROOM_D_M))
                  for j in range(1, spec.rooms_y) for i in range(spec.rooms_x)]
        for (x1, y1), (x2, y2) in edges:
            kind = (ObstacleKind.WALL_CLOSED_DOOR if rng.random() < DOOR_SHARE
                    else ObstacleKind.BRICK_WALL)
            obstacles.append({"kind": kind.value, "from": {"x": x1, "y": y1, "floor": floor},
                              "to": {"x": x2, "y": y2, "floor": floor}})

    # (x, y, floor) of every coordinator/router, for the reach bound.
    # Offsets keep infrastructure off the wall grid lines.
    cx, cy = round(width / 2 + 0.13, 2), round(depth / 2 + 0.25, 2)
    infrastructure = [(cx, cy, 0)]
    nodes: list[dict] = [{"id": 0, "role": "coordinator",
                          "position": {"x": cx, "y": cy, "floor": 0}}]
    next_id = 1
    for floor in range(spec.floors):
        for r in range(spec.routers_per_floor):
            x = round((r + 0.5) * width / spec.routers_per_floor
                      + ROUTER_FLOOR_OFFSET_M * floor + 0.13, 2)
            y = round(depth / 2 - 0.35, 2)
            infrastructure.append((x, y, floor))
            nodes.append({"id": next_id, "role": "router",
                          "position": {"x": x, "y": y, "floor": floor}})
            next_id += 1

    wall_db = max(ObstacleKind.BRICK_WALL.attenuation_db,
                  ObstacleKind.WALL_CLOSED_DOOR.attenuation_db)
    budget_db = TX_POWER_DBM - SENSITIVITY_DBM
    kinds = _split(spec.end_devices, spec.sensor_mix)
    _shuffle(rng, kinds)
    low, high = spec.battery_mah
    for i, kind in enumerate(kinds):
        floor = i % spec.floors
        col, row = _pick(rng, spec.rooms_x), _pick(rng, spec.rooms_y)
        x = round(col * ROOM_W_M + ROOM_MARGIN_M
                  + (ROOM_W_M - 2 * ROOM_MARGIN_M) * rng.random(), 2)
        y = round(row * ROOM_D_M + ROOM_MARGIN_M
                  + (ROOM_D_M - 2 * ROOM_MARGIN_M) * rng.random(), 2)
        if any((x, y) == (ix, iy) for ix, iy, _ in infrastructure):
            x = round(x + 0.01, 2)  # a zero 2-D distance has no path loss
        bound = min(_loss_bound(x, y, ix, iy, wall_db)
                    for ix, iy, ifloor in infrastructure if ifloor == floor)
        if bound > budget_db:
            raise ValueError(f"end device {next_id} may be unreachable: loss bound "
                             f"{bound:.2f} dB exceeds the {budget_db:.2f} dB budget")
        nodes.append({
            "id": next_id, "role": "end_device",
            "position": {"x": x, "y": y, "floor": floor},
            "sample_period_s": spec.sample_period_s,
            "battery": {"capacity_mah": round(low + (high - low) * rng.random(), 1)},
            "sensors": [_sensor(kind, rng)],
        })
        next_id += 1

    document = {
        "seed": int(rng.random() * 2 ** 32),
        "channels": {"11": 0.3, "15": 0.1, "20": 0.4, "25": 0.2},
        "defaults": {
            "tx_power_dbm": TX_POWER_DBM,
            "sensitivity_dbm": SENSITIVITY_DBM,
            "shadowing_sigma_db": SHADOWING_SIGMA_DB,
            "poll_period_s": spec.poll_period_s,
            "floor_loss_db": DEFAULT_FLOOR_LOSS_DB,
        },
        "nodes": nodes,
        "obstacles": obstacles,
    }
    return json.dumps(document, separators=(",", ":")) + "\n"


def _loss_bound(x: float, y: float, ix: float, iy: float, wall_db: float) -> float:
    """Upper bound on same-floor path loss: a straight path crosses at most one
    wall per room boundary between its endpoints' rooms."""
    distance = math.hypot(x - ix, y - iy)
    walls = (abs(math.floor(x / ROOM_W_M) - math.floor(ix / ROOM_W_M))
             + abs(math.floor(y / ROOM_D_M) - math.floor(iy / ROOM_D_M)))
    return free_space_loss(distance) + walls * wall_db
