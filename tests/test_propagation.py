import math

import pytest
from hypothesis import given, strategies as st

from wsn_pathosim.engine import RngStream
from wsn_pathosim.propagation import (DEFAULT_PATH_LOSS_ANCHORS, EmptyChannelMapError,
                                      NonPositiveDistanceError, free_space_loss,
                                      is_connected, link_budget, measure_rssi,
                                      select_channel)

ANCHORS = [(0.5, 0.00), (1.0, 8.16), (2.0, 11.65), (4.0, 19.91),
           (8.0, 23.93), (11.0, 29.61)]


def test_anchor_distances_reproduce_exact_losses():
    for distance, loss in ANCHORS:
        assert free_space_loss(distance) == pytest.approx(loss, abs=1e-12)


def test_short_range_clamps_to_first_anchor():
    assert free_space_loss(0.5) == 0.0
    assert free_space_loss(0.2) == 0.0
    assert free_space_loss(0.05) == 0.0
    assert free_space_loss(0.0) == 0.0  # two nodes stacked at one x/y point


def test_interpolation_is_linear_in_log_distance():
    # the log-midpoint of the 4 m and 8 m anchors is sqrt(32) m
    midpoint = math.sqrt(4.0 * 8.0)
    assert free_space_loss(midpoint) == pytest.approx((19.91 + 23.93) / 2, abs=1e-9)


def test_extrapolation_continues_final_segment_slope():
    slope = (29.61 - 23.93) / (math.log10(11.0) - math.log10(8.0))
    expected = 29.61 + slope * math.log10(22.0 / 11.0)
    assert free_space_loss(22.0) == pytest.approx(expected, abs=1e-9)
    assert free_space_loss(11.0) == pytest.approx(29.61, abs=1e-12)


def test_non_positive_distance_rejected():
    with pytest.raises(NonPositiveDistanceError, match=">= 0 m, got -3.0"):
        free_space_loss(-3.0)


@given(st.floats(min_value=0.01, max_value=500.0),
       st.floats(min_value=0.01, max_value=500.0))
def test_loss_never_decreases_with_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert free_space_loss(lo) <= free_space_loss(hi) + 1e-12


def test_the_measured_anchors_form_a_valid_table():
    """At least two anchors, a positive first distance, strictly increasing
    distances and non-decreasing losses: interpolation needs the first three,
    and the parent search's loss bound needs the loss to grow with distance."""
    anchors = DEFAULT_PATH_LOSS_ANCHORS
    assert list(anchors) == ANCHORS
    assert len(anchors) >= 2
    assert anchors[0][0] > 0
    for (d1, a1), (d2, a2) in zip(anchors, anchors[1:]):
        assert d2 > d1
        assert a2 >= a1


def test_link_budget_breakdown_through_two_walls(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    assert budget.distance == pytest.approx(11.0)
    assert budget.free_space_loss == pytest.approx(29.61)
    assert budget.obstacle_losses == (("brick_wall", 1.46), ("brick_wall", 1.46))
    assert budget.total_attenuation == pytest.approx(32.53)
    assert budget.tx_power == 3.0
    assert budget.received_power == pytest.approx(-29.53)


def test_link_budget_direct_path_crosses_all_four_walls(three_node_config):
    budget = link_budget(three_node_config, 0, 2)
    assert budget.distance == pytest.approx(22.0)
    assert len(budget.obstacle_losses) == 4
    assert budget.received_power < -40.0  # below the scenario sensitivity


def test_connectivity_threshold_is_inclusive(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    assert is_connected(budget, budget.received_power)
    assert is_connected(budget, budget.received_power - 0.001)
    assert not is_connected(budget, budget.received_power + 0.001)


def test_rssi_with_zero_sigma_is_exact(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    rng = RngStream(1)
    estimate = measure_rssi(budget, 0.0, 1, 1, rng)
    assert estimate == budget.received_power
    # no draws consumed when sigma is zero
    assert rng.uniform() == RngStream(1).uniform()


def test_rssi_estimate_is_reproducible(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    a = measure_rssi(budget, 2.0, 10, 10, RngStream(77))
    b = measure_rssi(budget, 2.0, 10, 10, RngStream(77))
    assert a == b
    assert a != budget.received_power


def test_rssi_averaging_tightens_with_more_messages(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    few = [abs(measure_rssi(budget, 2.0, 2, 1, RngStream(s)) - budget.received_power)
           for s in range(40)]
    many = [abs(measure_rssi(budget, 2.0, 50, 4, RngStream(s)) - budget.received_power)
            for s in range(40)]
    assert sum(many) / len(many) < sum(few) / len(few)


def test_rssi_rejects_bad_arguments(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    rng = RngStream(0)
    with pytest.raises(ValueError):
        measure_rssi(budget, 2.0, 0, 1, rng)
    with pytest.raises(ValueError):
        measure_rssi(budget, 2.0, 1, 0, rng)
    with pytest.raises(ValueError):
        measure_rssi(budget, -1.0, 1, 1, rng)


def test_select_channel_prefers_least_interference():
    assert select_channel({11: 0.3, 15: 0.1, 20: 0.4}) == 15


def test_select_channel_breaks_ties_by_lowest_id():
    assert select_channel({14: 0.2, 12: 0.2, 13: 0.2}) == 12


def test_select_channel_requires_candidates():
    with pytest.raises(EmptyChannelMapError):
        select_channel({})


def _free_space_loss_inline(distance_m: float, anchors) -> float:
    """The loss formula with every anchor's log10 taken at the call."""
    if distance_m <= anchors[0][0]:
        return anchors[0][1]
    x = math.log10(distance_m)
    xs = [math.log10(d) for d, _ in anchors]
    ys = [a for _, a in anchors]
    if x >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return ys[-1] + slope * (x - xs[-1])
    for i in range(len(xs) - 1):
        if x <= xs[i + 1]:
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] * (1.0 - t) + ys[i + 1] * t
    raise AssertionError("unreachable")


@given(st.lists(st.floats(min_value=1e-3, max_value=1e4), max_size=20))
def test_precomputed_anchors_give_the_formula_bit_for_bit(distances):
    anchors = DEFAULT_PATH_LOSS_ANCHORS
    probes = list(distances) + [d for d, _ in anchors]          # each anchor
    probes += [anchors[0][0] / 2, anchors[0][0]]                # clamp region
    probes += [anchors[-1][0] * 1.5, anchors[-1][0] * 100]      # extrapolation
    probes += [math.sqrt(a * b) for (a, _), (b, _) in zip(anchors, anchors[1:])]
    for distance in probes:
        assert free_space_loss(distance) == _free_space_loss_inline(distance, anchors)
