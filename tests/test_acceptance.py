"""End-to-end acceptance checks, one per shipped capability.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
all; a red test prints its line in the failure output either way). The checks
exercise the package through its public surface only.
"""

import random

from conftest import make_config, random_scenario_doc, two_node_doc
from wsn_pathosim.engine import RngStream, derive_seed, ticks_from_seconds
from wsn_pathosim.model import DEFAULT_FLOOR_LOSS_DB, ObstacleKind
from wsn_pathosim.power import CyclicSleepConfig, PowerState, average_current, estimate_lifetime
from wsn_pathosim.propagation import free_space_loss, link_budget, measure_rssi
from wsn_pathosim.protocol import ChecksumError, ErrorReason, MessageFrame, MessageKind, decode_frame, encode_frame, err_payload, sample_resp_payload, set_period_payload
from wsn_pathosim.report import report_json, samples_csv
from wsn_pathosim.sensors import SensorKind
from wsn_pathosim.simulation import Simulation


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_acceptance_1_attenuation_constants():
    anchors = {0.5: 0.00, 1.0: 8.16, 2.0: 11.65, 4.0: 19.91, 8.0: 23.93, 11.0: 29.61}
    worst = max(abs(free_space_loss(d) - loss) for d, loss in anchors.items())
    kinds = {ObstacleKind.WINDOW_OPEN_BLINDS: 1.04,
             ObstacleKind.WINDOW_CLOSED_BLINDS: 3.95,
             ObstacleKind.WALL_OPEN_DOOR: 0.39,
             ObstacleKind.WALL_CLOSED_DOOR: 1.19,
             ObstacleKind.BRICK_WALL: 1.46}
    kinds_ok = all(kind.attenuation_db == loss for kind, loss in kinds.items())
    floor_ok = DEFAULT_FLOOR_LOSS_DB == 13.08
    _verdict("1 attenuation constants", worst <= 0.005 and kinds_ok and floor_ok,
             f"anchor error {worst:.4f} dB, {len(kinds)} obstacle kinds,"
             f" floor {DEFAULT_FLOOR_LOSS_DB} dB")


def test_acceptance_2_link_budget_breakdown(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    itemized = (budget.tx_power == 3.0
                and abs(budget.free_space_loss - 29.61) <= 0.005
                and budget.obstacle_losses == (("brick_wall", 1.46),) * 2)
    ok = itemized and abs(budget.received_power - (-29.53)) <= 0.01
    _verdict("2 link budget", ok,
             f"3.00 - 29.61 - 2x1.46 -> {budget.received_power:.2f} dBm")


def test_acceptance_3_daily_collection(three_node_config, router_off_config):
    healthy, severed = Simulation(three_node_config), Simulation(router_off_config)
    healthy.run_until(86400.0)
    severed.run_until(86400.0)
    samples = healthy.stats()["samples_per_node"].get("2", 0)
    cut = severed.stats()
    ok = (47 <= samples <= 49 and cut["samples_per_node"] == {}
          and cut["unreachable"] == [2])
    _verdict("3 daily collection", ok,
             f"{samples} samples with the router, {sum(cut['samples_per_node'].values())}"
             f" without (node 2 unreachable: {2 in cut['unreachable']})")


def test_acceptance_4_cyclic_sleep_grid():
    sleep = CyclicSleepConfig.from_periods(120.0, 28.0)
    sim = Simulation(make_config(two_node_doc(sample_period_s=120.0)), trace=True)
    sim.run_until(3600.0)
    wakes = [int(line.split("\t")[0]) for line in sim.trace_lines
             if line.split("\t")[2] == "external_wake" and line.split("\t")[3] == "1"]
    grid = [k * ticks_from_seconds(112.0) for k in range(1, 33)]
    ok = (sleep.multiplier, sleep.effective_period_s) == (4, 112.0) and wakes == grid
    _verdict("4 cyclic sleep", ok,
             f"multiplier {sleep.multiplier}, effective {sleep.effective_period_s} s,"
             f" {len(wakes)} wakes all on the 112 s grid: {wakes == grid}")


def test_acceptance_5_battery_lifetime(lifetime_config):
    node = lifetime_config.node(1)
    sleep = CyclicSleepConfig.from_periods(node.sample_period_s,
                                           node.radio.poll_period_s)
    average = average_current(lifetime_config.consumption,
                              sleep.effective_period_s, 5.0,
                              PowerState.TRANSMITTING)
    hours = estimate_lifetime(node.battery.capacity_mah, average)
    sim = Simulation(lifetime_config)
    sim.run_until(60.0 * 3600.0)
    dead_at_s = sim.stats()["power"]["1"]["dead_at_s"]
    simulated_h = dead_at_s / 3600.0 if dead_at_s is not None else float("inf")
    gap = (simulated_h - hours) / hours
    ok = 50.0 <= hours <= 53.0 and abs(gap) <= 0.05
    _verdict("5 battery lifetime", ok,
             f"closed form {hours:.2f} h, simulated {simulated_h:.2f} h"
             f" ({gap * 100.0:+.1f}%)")


def test_acceptance_6_rssi_averaging(three_node_config):
    budget = link_budget(three_node_config, 0, 1)
    errors = []
    for seed in range(100):
        rng = RngStream(derive_seed(seed, "rssi-acceptance"))
        estimate = measure_rssi(budget, 2.0, 10, 10, rng)
        errors.append(abs(estimate - budget.received_power))
    within = sum(1 for err in errors if err <= 0.5)
    mean_err = sum(errors) / len(errors)
    ok = within >= 95 and mean_err <= 0.2
    _verdict("6 rssi averaging", ok,
             f"{within}/100 estimates within 0.5 dB, mean error {mean_err:.3f} dB")


def _random_frame(rng: random.Random) -> MessageFrame:
    kind = rng.choice(list(MessageKind))
    if kind is MessageKind.SAMPLE_RESP:
        payload = sample_resp_payload(rng.choice(list(SensorKind)),
                                      rng.uniform(-1e6, 1e6),
                                      rng.getrandbits(64))
    elif kind is MessageKind.SET_PERIOD:
        payload = set_period_payload(rng.getrandbits(32))
    elif kind is MessageKind.ERR:
        payload = err_payload(rng.choice(list(ErrorReason)))
    else:
        payload = b""
    return MessageFrame(kind, rng.getrandbits(16), rng.getrandbits(16),
                        rng.getrandbits(16), payload)


def _check_codec(cases: int) -> int:
    rng = random.Random(20260815)
    for _ in range(cases):
        frame = _random_frame(rng)
        data = encode_frame(frame)
        assert decode_frame(data) == frame
        flipped = bytearray(data)
        bit = rng.randrange(len(data) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_frame(bytes(flipped))
        except ChecksumError:
            pass
        else:
            raise AssertionError(f"bit flip {bit} went unnoticed in {data.hex()}")
    return cases


def _check_parent_table(sim: Simulation, config) -> None:
    table = sim.parent_table
    for child, parent in table.parent.items():
        if parent is None:
            assert child == table.root
            continue
        assert config.node(parent).role.value != "end_device"
        assert table.received_power[child] >= config.node(child).radio.sensitivity_dbm
        hops, seen = child, set()
        while hops != table.root:
            assert hops not in seen, f"cycle through {hops}"
            seen.add(hops)
            hops = table.parent[hops]
    for node in table.unreachable:
        assert node not in table.parent


def _check_rounds(sim: Simulation) -> None:
    heated = {node.id: node.sensors[0].requires_heating
              for node in sim.config.nodes if node.sensors}
    frames: dict[int, list] = {}
    warmup_pos: dict[int, int] = {}
    responses_delivered = 0
    for i, line in enumerate(sim.trace_lines):
        _, seq, kind, node, detail = line.split("\t")
        if kind == "external_wake":
            frames[int(node)] = []
        elif kind == "warmup_done":
            warmup_pos[int(detail.split()[0].removeprefix("device="))] = i
        elif kind == "frame_delivered":
            if node == "0" and detail.startswith("SAMPLE_RESP"):
                responses_delivered += 1
        elif kind == "send":
            name, hop = detail.split()[:2]
            src, dst = (int(v) for v in hop.split("->"))
            for device in (src, dst):
                if device in frames:
                    frames[device].append((i, name, src))
        elif kind == "round" and detail == "outcome=completed":
            device = int(node)
            window = frames.get(device, [])
            assert window and window[0][1] == "AWAKE" and window[0][2] == device
            from_root = [(i, name) for i, name, src in window if src == sim.parent_table.root]
            assert from_root and from_root[-1][1] == "SLEEP_REQ"
            if heated.get(device):
                first_req = next(i for i, name in from_root if name == "SAMPLE_REQ")
                assert device in warmup_pos and warmup_pos[device] < first_req
    # persisted records match SAMPLE_RESP frames delivered to the root exactly
    assert responses_delivered == len(sim.records)
    by_node: dict[int, list] = {}
    for record in sim.records:
        by_node.setdefault(record.node, []).append(record)
    for records in by_node.values():
        assert all(r.sampled_at <= r.received_at for r in records)
        times = [r.received_at for r in records]
        assert times == sorted(times)


def _check_energy(sim: Simulation) -> None:
    for runtime in sim.runtimes.values():
        ledger = runtime.ledger
        # every booked tick is single-counted; the cursor may sit slightly past
        # the clock when a poll window or airtime slice straddled the horizon
        assert sum(ledger.durations.values()) == ledger.cursor
        assert ledger.cursor >= sim.queue.now
        assert ledger.conservation_error_mah() < 1e-6


def test_acceptance_7_property_suites():
    cases = 1000
    codec_cases = _check_codec(cases)
    for seed in range(cases):
        doc, horizon = random_scenario_doc(seed)
        config = make_config(doc)
        first = Simulation(config, trace=True)
        first.run_until(horizon)
        second = Simulation(config, trace=True)
        second.run_until(horizon)
        assert (report_json(first), samples_csv(first), first.trace_text()) \
            == (report_json(second), samples_csv(second), second.trace_text())
        _check_parent_table(first, config)
        _check_rounds(first)
        _check_energy(first)
        frames = first.stats()["frames"]
        assert frames["sent"] == (frames["delivered"] + frames["dropped"]
                                  + frames["buffered_pending"] + frames["in_flight"])
    _verdict("7 property suites", True,
             f"codec round-trip + bit flips, parent tables, round ordering,"
             f" energy conservation, determinism: {codec_cases} cases each")


def test_acceptance_8_gauge_heat_deficit():
    doc = two_node_doc(
        sensor={"kind": "strain_gauge", "heat_duration_s": 120.0,
                "signal": {"shape": "constant", "level": 2.0}},
        defaults={"warmup_delay_s": 10.0})
    sim = Simulation(make_config(doc))
    # the 32nd wake lands at 3584 s and its round aborts at about 3609 s
    sim.run_until(3620.0)
    stats = sim.stats()
    counts = stats["rounds"]["1"]
    errors = stats["errors_seen"].get("gauge_not_heated", 0)
    # 32 wakes on the 112 s grid, three failed attempts per round
    ok = (len(sim.records) == 0 and counts["completed"] == 0
          and counts["aborted"] == 32 and errors == 96)
    _verdict("8 gauge heat deficit", ok,
             f"{errors} not-heated refusals, {counts['aborted']} aborted rounds,"
             f" {len(sim.records)} samples persisted")
