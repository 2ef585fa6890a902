"""Brute-force topology code and the buildings the equivalence tests feed it.

The reference functions are the straightforward scans the simulator's indexed
topology replaces: a linear search for every node id, every obstacle of every
floor segment-tested for every path, and a full link budget for every pair
the parent search looks at. The indexed versions must agree with them
exactly, float bits and ordering included.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from wsn_pathosim.model import (FLOOR_CROSSING_LABEL, BatteryState, NodeRole, NodeSpec,
                                Obstacle, ObstacleKind, Position, RadioConfig, ScenarioConfig,
                                UnknownNodeError, _crossing_param)
from wsn_pathosim.propagation import LinkBudget, free_space_loss
from wsn_pathosim.protocol import ParentTable


def scan_node(config: ScenarioConfig, node_id: int) -> NodeSpec:
    for node in config.nodes:
        if node.id == node_id:
            return node
    raise UnknownNodeError(f"no node with id {node_id}")


def reference_obstacles_on_path(config: ScenarioConfig, a: int, b: int) -> list:
    pa, pb = scan_node(config, a).position, scan_node(config, b).position
    lo, hi = min(pa.floor, pb.floor), max(pa.floor, pb.floor)
    hits = []
    for obstacle in config.obstacles:
        if not lo <= obstacle.start.floor <= hi:
            continue
        t = _crossing_param(pa.x, pa.y, pb.x, pb.y,
                            obstacle.start.x, obstacle.start.y,
                            obstacle.end.x, obstacle.end.y)
        if t is not None:
            hits.append((t, (obstacle.kind.value, obstacle.loss_db)))
    hits.sort(key=lambda item: item[0])
    crossings = [crossing for _, crossing in hits]
    crossings.extend((FLOOR_CROSSING_LABEL, config.floor_loss_db) for _ in range(hi - lo))
    return crossings


def exact_crossing(ax: float, ay: float, bx: float, by: float,
                   cx: float, cy: float, dx: float, dy: float) -> Fraction | None:
    """The parameter along a->b of a proper crossing with segment c->d, else
    None, in rational arithmetic on the floats as given: Cramer's rule for
    a + t (b - a) = c + u (d - c), and a crossing when 0 < t, u < 1."""
    ax, ay, bx, by, cx, cy, dx, dy = map(Fraction, (ax, ay, bx, by, cx, cy, dx, dy))
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    denominator = rx * sy - ry * sx
    if denominator == 0:
        return None
    t = ((cx - ax) * sy - (cy - ay) * sx) / denominator
    u = ((cx - ax) * ry - (cy - ay) * rx) / denominator
    return t if 0 < t < 1 and 0 < u < 1 else None


def path_and_wall(a: tuple[float, float], b: tuple[float, float], start: tuple[float, float],
                  end: tuple[float, float], kind: ObstacleKind) -> ScenarioConfig:
    """Two nodes at a and b on floor 0, and one wall from start to end."""
    return ScenarioConfig(
        nodes=(NodeSpec(0, NodeRole.COORDINATOR, Position(*a), RadioConfig(-40.0)),
               NodeSpec(1, NodeRole.ROUTER, Position(*b), RadioConfig(-40.0))),
        obstacles=(Obstacle(kind, Position(*start), Position(*end)),))


# Falsifying examples of the index against the full scan when crossings were
# decided in floats: each wall ends just outside the path's bounding box, and
# the rounded parameters put the crossing at t = u = 0.9999999999999998.
FLOAT_CROSSING_CASES = (
    path_and_wall((6.0, 0.0), (0.0, 5.0), (-10.503238454750212, 0.0),
                  (-7.306833761509982e-197, 5.0), ObstacleKind.WINDOW_OPEN_BLINDS),
    path_and_wall((8.0, -6.0), (-7.0, 0.0), (3.795537844298938, 13.0),
                  (-7.0, 1.5021069440635825e-137), ObstacleKind.BRICK_WALL),
)


def reference_link_budget(config: ScenarioConfig, a: int, b: int) -> LinkBudget:
    node_a, node_b = scan_node(config, a), scan_node(config, b)
    distance = math.hypot(node_b.position.x - node_a.position.x,
                          node_b.position.y - node_a.position.y)
    fsl = free_space_loss(distance)
    losses = reference_obstacles_on_path(config, a, b)
    # Left to right, as link_budget documents: from Python 3.12 sum()
    # compensates float rounding.
    obstructed = 0.0
    for _, loss in losses:
        obstructed += loss
    total = fsl + obstructed
    tx_power = node_a.radio.tx_power_dbm
    return LinkBudget(distance=distance, free_space_loss=fsl,
                      obstacle_losses=tuple(losses), total_attenuation=total,
                      tx_power=tx_power, received_power=tx_power - total)


def reference_parent_table(config: ScenarioConfig) -> ParentTable:
    """The parent search with a full budget for every pair it looks at."""
    coordinator = config.coordinator()
    budgets: dict[tuple[int, int], float] = {}

    def received_at(child: NodeSpec, parent: NodeSpec) -> float:
        key = (parent.id, child.id)
        if key not in budgets:
            budgets[key] = reference_link_budget(config, parent.id, child.id).received_power
        return budgets[key]

    def connected(child: NodeSpec, parent: NodeSpec) -> bool:
        return received_at(child, parent) >= child.radio.sensitivity_dbm

    infrastructure = [coordinator] + config.routers()
    hops = {coordinator.id: 0}
    frontier = [coordinator]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for candidate in infrastructure:
            if candidate.id in hops:
                continue
            if any(connected(candidate, up) for up in frontier):
                hops[candidate.id] = level
                nxt.append(candidate)
        frontier = nxt

    parent: dict[int, int | None] = {coordinator.id: None}
    unreachable: list[int] = []
    for router in config.routers():
        if router.id not in hops:
            unreachable.append(router.id)
            continue
        options = [up for up in infrastructure
                   if hops.get(up.id) == hops[router.id] - 1 and connected(router, up)]
        best = max(options, key=lambda up: (received_at(router, up), -up.id))
        parent[router.id] = best.id
    for device in config.end_devices():
        options = [up for up in infrastructure if up.id in parent and connected(device, up)]
        if not options:
            unreachable.append(device.id)
            continue
        best = max(options, key=lambda up: (received_at(device, up), -up.id))
        parent[device.id] = best.id
    return ParentTable(parent=parent, unreachable=tuple(sorted(unreachable)), links=budgets)


def received_power(table: ParentTable) -> dict[int, float]:
    """Each attached node's received power from its parent, in table order."""
    return {child: table.links[(up, child)]
            for child, up in table.parent.items() if up is not None}


# Magnitudes at which float products overflow or underflow.
EXTREMES = (1e308, -1e308, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 0.0)


@st.composite
def near_degenerate_crossings(draw) -> tuple[float, ...]:
    """A path a->b and a wall c->d, as the 8 coordinates _crossing_param takes.
    Each wall end sits a few float steps from a path end, from a point
    rounded onto the path's line, from a grid point, or at an extreme
    magnitude, so touching, near-touching and overflowing cases are common."""
    a = (draw(coordinates), draw(coordinates))
    b = (draw(coordinates), draw(coordinates))

    def nudged(value: float) -> float:
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            value = math.nextafter(value, math.copysign(math.inf, steps))
        return value

    def end() -> tuple[float, float]:
        anchor = draw(st.sampled_from(["a", "b", "line", "grid", "extreme"]))
        if anchor == "line":
            t = draw(st.floats(-1.0, 2.0))
            x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        elif anchor == "grid":
            x, y = draw(coordinates), draw(coordinates)
        elif anchor == "extreme":
            x, y = draw(st.sampled_from(EXTREMES)), draw(st.one_of(coordinates,
                                                                   st.sampled_from(EXTREMES)))
            if draw(st.booleans()):
                x, y = y, x
        else:
            x, y = a if anchor == "a" else b
        return nudged(x), nudged(y)

    return (*a, *b, *end(), *end())


# Coarse grid values make shared coordinates, touching and collinear segments
# common; arbitrary floats cover the general position.
coordinates = st.one_of(st.integers(-24, 24).map(float),
                        st.floats(-24.0, 24.0, allow_nan=False, allow_infinity=False))
floors = st.integers(-1, 3)
attenuations = st.one_of(st.none(), st.sampled_from([0.0, 0.1, 1.46]), st.floats(0.0, 20.0))


@st.composite
def walls(draw) -> list[Obstacle]:
    """One wall segment stacked at the same x/y on one or more floors, each
    copy with its own kind and attenuation, so the order of copies crossed at
    the same point shows in the summed loss."""
    x0, y0, x1, y1 = (draw(coordinates) for _ in range(4))
    if (x0, y0) == (x1, y1):
        x1 += 1.0
    return [Obstacle(kind=draw(st.sampled_from(ObstacleKind)),
                     start=Position(x0, y0, floor), end=Position(x1, y1, floor),
                     attenuation_db=draw(attenuations))
            for floor in draw(st.lists(floors, min_size=1, max_size=4, unique=True))]


@st.composite
def buildings(draw, max_nodes: int = 9, max_walls: int = 8) -> ScenarioConfig:
    """A coordinator, routers and end devices spread over floors -1..3, with
    walls (some stacked on several floors) listed in shuffled floor order.
    Sometimes one wall spans the whole floor, so the running maximum of the
    walls' xmax (obstacles_on_path's x-slice) stays past every short wall
    listed after it."""
    count = draw(st.integers(2, max_nodes))
    nodes = []
    for node_id in range(count):
        role = (NodeRole.COORDINATOR if node_id == 0
                else draw(st.sampled_from([NodeRole.ROUTER, NodeRole.END_DEVICE])))
        radio = RadioConfig(sensitivity_dbm=draw(st.floats(-60.0, -20.0)),
                            tx_power_dbm=draw(st.sampled_from([0.0, 3.0, 8.0])))
        end_device = role is NodeRole.END_DEVICE
        nodes.append(NodeSpec(id=node_id, role=role,
                              position=Position(draw(coordinates), draw(coordinates),
                                                draw(floors)),
                              radio=radio,
                              battery=BatteryState() if end_device else None,
                              sample_period_s=120.0 if end_device else None))
    stacked = [o for group in draw(st.lists(walls(), max_size=max_walls)) for o in group]
    if draw(st.booleans()):
        floor = draw(floors)
        stacked.append(Obstacle(kind=draw(st.sampled_from(ObstacleKind)),
                                start=Position(-30.0, draw(coordinates), floor),
                                end=Position(30.0, draw(coordinates), floor),
                                attenuation_db=draw(attenuations)))
    obstacles = draw(st.permutations(stacked))
    floor_loss = draw(st.one_of(st.sampled_from([0.0, 13.08]), st.floats(0.0, 30.0)))
    return ScenarioConfig(nodes=tuple(nodes), obstacles=tuple(obstacles),
                          floor_loss_db=floor_loss)


offsets = st.integers(-12, 12).map(float)


@st.composite
def mirrored_buildings(draw, max_pairs: int = 3, max_walls: int = 3) -> ScenarioConfig:
    """One end device, and routers and walls in mirror pairs about it (point
    reflection in x, y and floor) on a whole-metre grid.

    The two routers of a pair have the same transmit power, distance and
    floor separation to the device, and cross mirrored walls in the same
    order, so their loss bounds tie exactly and so, most often, do their
    received powers. Router ids are shuffled, so either side of a pair may
    hold the lower id and the node order differs from the id order, and the
    coordinator may take the place of one side.
    """
    cx, cy, cf = draw(offsets), draw(offsets), draw(st.integers(0, 2))

    def mirror(p: Position) -> Position:
        return Position(2 * cx - p.x, 2 * cy - p.y, 2 * cf - p.floor)

    def spot() -> Position:
        dx, dy = draw(offsets), draw(offsets)
        if (dx, dy) == (0.0, 0.0):
            dx = 1.0  # never on top of the device
        return Position(cx + dx, cy + dy, cf + draw(st.integers(-1, 1)))

    def radio(tx_power: float) -> RadioConfig:
        return RadioConfig(sensitivity_dbm=draw(st.sampled_from([-60.0, -45.0, -30.0])),
                           tx_power_dbm=tx_power)

    pairs = [(spot(), draw(st.sampled_from([0.0, 3.0, 8.0])))
             for _ in range(draw(st.integers(1, max_pairs)))]
    placed = pairs + [(mirror(position), tx) for position, tx in pairs]
    if draw(st.booleans()):
        coordinator_at, coordinator_tx = placed.pop()  # the coordinator mirrors a router
    else:
        coordinator_at, coordinator_tx = spot(), 3.0
    router_ids = draw(st.permutations(range(1, len(placed) + 1)))
    device_id = len(placed) + 1
    nodes = [NodeSpec(id=0, role=NodeRole.COORDINATOR, position=coordinator_at,
                      radio=radio(coordinator_tx))]
    nodes += [NodeSpec(id=node_id, role=NodeRole.ROUTER, position=position, radio=radio(tx))
              for node_id, (position, tx) in zip(router_ids, placed)]
    nodes.append(NodeSpec(id=device_id, role=NodeRole.END_DEVICE,
                          position=Position(cx, cy, cf), radio=radio(3.0),
                          battery=BatteryState(), sample_period_s=120.0))
    obstacles = []
    for _ in range(draw(st.integers(0, max_walls))):
        start = spot()
        end = Position(cx + draw(offsets), cy + draw(offsets), start.floor)
        if (start.x, start.y) == (end.x, end.y):
            end = Position(end.x + 1.0, end.y, end.floor)
        wall = Obstacle(kind=draw(st.sampled_from(ObstacleKind)), start=start, end=end,
                        attenuation_db=draw(attenuations))
        obstacles += [wall, Obstacle(kind=wall.kind, start=mirror(start), end=mirror(end),
                                     attenuation_db=wall.attenuation_db)]
    floor_loss = draw(st.sampled_from([0.0, 1.46, 13.08]))
    return ScenarioConfig(nodes=tuple(nodes), obstacles=tuple(obstacles),
                          floor_loss_db=floor_loss)
