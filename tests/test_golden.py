"""Golden outputs: the simulated results of fixed runs, pinned by digest.

Each case is digested four ways:
  * report.json without its event counters (events_processed and
    poll_wakes_elided), so a change may alter how much work a run does but
    not what it finds;
  * report.txt without the lines of the same two counters;
  * samples.csv, byte for byte;
  * trace.tsv without the seq column and without poll_wake lines: a no-op
    poll is booked in closed form and leaves no line, and seq numbers count
    scheduled events, so both vary with the work done while every remaining
    line, and the order of the lines, must not.

Re-recorded when polls began to run last in their tick, after every other
event of it. Before, a poll took the place among same-tick events that a
poll scheduled at the previous grid tick would have had. Five random seeds
and the eight aligned cases moved; the shipped, drain and other random
cases kept the digests recorded before poll fast-forward (report, samples)
and when superseded timers began to be cancelled (trace, counters).

The counters alone were re-recorded when every poll of a device whose
battery may run out before its next own event became a real poll: twelve
cases (lifetime_single_hop_to_death, the four drain cases and aligned 0, 1
and 3-7) moved polls from poll_wakes_elided to events_processed, each pair
keeping its sum, and no digest moved. They were re-recorded again, for
eleven of those cases (all but aligned/5), when the first real poll near a
death became the first poll the death bound cannot clear instead of every
poll from the first event at which it could not: polls moved back from
events_processed to poll_wakes_elided, each pair keeping its sum, and no
digest moved.

The report.txt column was recorded later, from the code that rendered every
line of the text on its own, before render_text began to join each node's
power lines into one string; no other digest moved.

The report and report.txt columns of random seeds 0, 6, 8, 9, 15, 16 and
19 were re-recorded when the wake schedule began to be worked out in ticks:
a device's effective period became its wake period in ticks, as seconds,
instead of the float product of multiplier and poll period, which differed
in the last bits (67.80000000000001 s for a device waking every 67,800,000
ticks). Only effective_period_s and its report.txt field moved; no
multiplier, sample or trace line did.

The report column of random/10, aligned/5 and aligned/7 was re-recorded
when a ledger's charge began to be summed over sleeping, awake_idle and
transmitting in that fixed order, instead of in the order in which each
state was first booked. In these three, a device woke and sent before it
had booked any poll window (it wakes at every poll, or its poll window is
0 s), so it booked transmitting before awake_idle. Only the last digit
of consumed_mah and average_ma moved (random/10 node 2, aligned/5 node 3,
aligned/7 node 4), and projected_lifetime_h of random/10 node 2; no
report.txt line, sample, trace line, counter or death tick did.

The cases: the shipped scenarios, 20 seeds of random_scenario_doc, small
batteries that die, several inside a poll window, while SET_PERIOD frames
wait at their parents, and "aligned" scenarios whose airtime, warm-up and
timeouts are whole seconds on 1-3 s poll grids, so that events of every kind
fall on poll ticks and their order against the poll matters.
"""

import copy
import hashlib
import json
import random

import pytest

from conftest import SCENARIO_DIR, make_config, random_scenario_doc
from wsn_pathosim.report import (build_report, render_json, report_json, report_text,
                                 samples_csv)
from wsn_pathosim.simulation import Simulation

EVENT_COUNTERS = ("events_processed", "poll_wakes_elided")
TEXT_COUNTER_LINES = ("events processed ", "polls elided ")  # their lines in report.txt
SHIPPED = {"three_node_building": ("three_node_building", 86400.0),
           "three_node_router_off": ("three_node_router_off", 86400.0),
           "lifetime_single_hop": ("lifetime_single_hop", 86400.0),
           "lifetime_single_hop_to_death": ("lifetime_single_hop", 190000.0)}
DRAIN_POLLS_S = (10.0, 10.0, 7.0, 13.0, 10.0, 7.0)
DRAIN_BASES_MAH = (0.30, 0.35, 0.36, 0.42)


def drain_doc(base_mah: float) -> dict:
    """A coordinator, a router and six end devices whose batteries (base_mah
    plus 0.037 mAh per device) empty within about 80 s; 1.5 s poll windows
    make a death inside a window likely."""
    nodes = [{"id": 0, "role": "coordinator", "position": {"x": 0.0, "y": 0.0}},
             {"id": 1, "role": "router", "position": {"x": 6.0, "y": 0.0}}]
    for i, poll in enumerate(DRAIN_POLLS_S):
        nodes.append({"id": i + 2, "role": "end_device",
                      "position": {"x": 2.0 + 1.5 * i, "y": 1.0 + 0.5 * i},
                      "radio": {"poll_period_s": poll}, "sample_period_s": poll * 3,
                      "battery": {"capacity_mah": round(base_mah + 0.037 * i, 4)},
                      "sensors": [{"kind": "displacement",
                                   "signal": {"shape": "constant", "level": 1.0}}]})
    return {"seed": 5, "channels": {},
            "defaults": {"sensitivity_dbm": -60.0, "shadowing_sigma_db": 1.0,
                         "warmup_delay_s": 2.0, "response_timeout_s": 1.5,
                         "max_retries": 1, "poll_wake_duration_s": 1.5},
            "nodes": nodes, "obstacles": []}


def aligned_doc(seed: int) -> dict:
    """Whole-second timing on small poll grids, small batteries and a
    mains-powered router, all drawn from one seed."""
    rng = random.Random(seed)
    nodes = [{"id": 0, "role": "coordinator", "position": {"x": 0.0, "y": 0.0}},
             {"id": 1, "role": "router", "position": {"x": 5.0, "y": 0.0}}]
    for node in range(2, 2 + rng.randint(2, 5)):
        poll = float(rng.choice((1, 2, 2, 3)))
        nodes.append({"id": node, "role": "end_device",
                      "position": {"x": rng.choice((2.0, 7.0, 9.0)), "y": float(node)},
                      "radio": {"poll_period_s": poll},
                      "sample_period_s": poll * rng.randint(1, 4),
                      "battery": {"capacity_mah": round(rng.uniform(0.3, 3.0), 3)},
                      "sensors": [{"kind": rng.choice(("displacement", "strain_gauge")),
                                   "heat_duration_s": 2.0,
                                   "signal": {"shape": "constant", "level": 1.0}}]})
        if nodes[-1]["sensors"][0]["kind"] == "displacement":
            del nodes[-1]["sensors"][0]["heat_duration_s"]
    return {"seed": seed, "channels": {},
            "defaults": {"sensitivity_dbm": -45.0, "shadowing_sigma_db": 0.5,
                         "tx_airtime_s": float(rng.choice((1, 2))),
                         "warmup_delay_s": float(rng.choice((0, 2, 4))),
                         "response_timeout_s": float(rng.choice((1, 2, 3))),
                         "max_retries": rng.randint(0, 2),
                         "poll_wake_duration_s": rng.choice((0.0, 0.5))},
            "nodes": nodes, "obstacles": []}


def run_aligned(doc: dict, cls: type[Simulation] = Simulation) -> Simulation:
    """An aligned scenario to 150 s, with a SET_PERIOD for node 2 every 6 s."""
    sim = cls(make_config(doc), trace=True)
    for stage in range(1, 8):
        sim.run_until(6.0 * stage)
        sim.inject_set_period(2, stage % 3 + 1)
    sim.run_until(150.0)
    return sim


def run_case(name: str, cls: type[Simulation] = Simulation) -> Simulation:
    kind, _, arg = name.partition("/")
    if kind == "shipped":
        stem, horizon = SHIPPED[arg]
        sim = cls(make_config(json.loads(
            (SCENARIO_DIR / f"{stem}.json").read_text())), trace=True)
        sim.run_until(horizon)
    elif kind == "random":
        doc, horizon = random_scenario_doc(int(arg))
        sim = cls(make_config(doc), trace=True)
        sim.run_until(20 * horizon)
    elif kind == "aligned":
        sim = run_aligned(aligned_doc(int(arg)), cls)
    else:
        sim = cls(make_config(drain_doc(float(arg))), trace=True)
        for stage, horizon in enumerate(range(25, 100, 5)):
            sim.run_until(float(horizon))
            for node in range(2, 8):
                if (node + stage) % 2 == 0:
                    sim.inject_set_period(node, 20 + 10 * ((node + stage) % 3))
        sim.run_until(200.0)
    return sim


def digests(sim: Simulation) -> dict[str, str]:
    report = {key: value for key, value in json.loads(report_json(sim)).items()
              if key not in EVENT_COUNTERS}
    trace = []
    for line in sim.trace_text().splitlines():
        fields = line.split("\t")
        if fields[2] != "poll_wake":
            trace.append("\t".join(fields[:1] + fields[2:]))
    text = "".join(line for line in report_text(sim).splitlines(keepends=True)
                   if not line.startswith(TEXT_COUNTER_LINES))

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {"report": sha(json.dumps(report, indent=2)), "samples": sha(samples_csv(sim)),
            "trace": sha("\n".join(trace)), "text": sha(text)}


CASES = ([f"shipped/{name}" for name in SHIPPED]
         + [f"random/{seed}" for seed in range(20)]
         + [f"drain/{base}" for base in DRAIN_BASES_MAH]
         + [f"aligned/{seed}" for seed in range(8)])

# name: (report, samples, trace, report.txt sha256 prefixes, events_processed,
# poll_wakes_elided)
GOLDEN = {
    "shipped/three_node_building":        ("0d1b2da9a39ad4dd", "cd3b0d10222e867d", "1846e71e446ef894", "23149ddef32f7037", 288, 3085),
    "shipped/three_node_router_off":      ("a3426c9e60de759c", "19318079f5360c46", "bb32c0e7a17b7554", "ac6847a7cff15fe2", 96, 3085),
    "shipped/lifetime_single_hop":        ("3978f7b473485098", "2afb34618f307dd4", "6634e3d7f818b896", "3453ae7a507efeb6", 283, 2880),
    "shipped/lifetime_single_hop_to_death":("a889c52ccdf149b5", "2ac2f4b0ab47697d", "a97cc125312b3309", "566e6a96392e280f", 617, 6102),
    "random/0":                           ("c22e9de1d69d4caa", "325e2d441b1ca1b4", "dd8b8496d2fcba45", "4a77c993be8cf938", 426, 194),
    "random/1":                           ("4c32e78b9e6a0694", "34fbc2f3eb144f9f", "1b6b5f14575faae0", "082735ff08c67e29", 582, 172),
    "random/2":                           ("71402fe30a4bd720", "aab55e04e72a6f04", "7bc626a18db19690", "808796d596387828", 792, 354),
    "random/3":                           ("6d0f58af37bcf537", "50738c15a5aca6ab", "4f81a6cecd158d67", "7dac5722ef6b408b", 243, 55),
    "random/4":                           ("03157c0afcb95829", "22b83f049d60dc1d", "aa79ac32bddc9257", "f28696cab6e549e7", 396, 132),
    "random/5":                           ("d25793a0e60a5d46", "19318079f5360c46", "f4632e8bf8d6cbc8", "7aa10008ec9fe45e", 50, 101),
    "random/6":                           ("6c0c292922af4317", "6ae9da55dd199236", "17df0a67443d44df", "ffebed4b30ea71a3", 228, 115),
    "random/7":                           ("d2b9847e30cb6da6", "ddffd88915d09677", "e7ab0a6dbaf61665", "0643d2e3545396eb", 276, 46),
    "random/8":                           ("7ade084c801cb27b", "15af0b97d5d24ae1", "c31b0ca8bec4a436", "0f23640c14020585", 228, 114),
    "random/9":                           ("42f9020bdf619536", "847bf2c81d7b2d92", "61b50feb8058e175", "9654a6fe59e5675e", 1617, 345),
    "random/10":                          ("4f8cdad8b3657e2f", "f9e5514db2561ac5", "b42ebcf902d4dbaa", "aa617ece8a345313", 1050, 279),
    "random/11":                          ("8b04ca2d3b5c0697", "f3e27398cc91225f", "8175c2e1eb709d07", "eb1a0e86b4d976f0", 295, 100),
    "random/12":                          ("8320756cf82982c3", "41830077b42defbc", "7b08d40e26144718", "6cf8ad6901b7e917", 585, 203),
    "random/13":                          ("1682659b1f487729", "8145d54865a8612f", "95af55801c49c5d6", "3774f8b9ff3a496a", 3417, 464),
    "random/14":                          ("e6fbee6a439e054f", "827e4722f1bc9b0d", "d2425225d5ce34fd", "38efadfbfeaf9cdd", 366, 186),
    "random/15":                          ("1e2f74110385f4a0", "25a36f0ed6479729", "bbe060e76284f74d", "6317329d58a6f744", 252, 128),
    "random/16":                          ("d326224186af6066", "24e6ccc7edd8704e", "25c371f297fb9783", "b3afd9723e0263ee", 477, 161),
    "random/17":                          ("a9cd402cda96cb4e", "323b02f3a679117d", "6ab1dd884a7a7564", "7cca6e7acf20490c", 516, 231),
    "random/18":                          ("0fcb573b9469db7d", "d56a5619beb2b540", "42d952aa5970f75f", "fdf97e9f7fe68bd9", 612, 206),
    "random/19":                          ("910a350808000b02", "432fc7656976090d", "fd78a13d47f9a9ef", "bce2d348d20d0cd1", 684, 261),
    "drain/0.3":                          ("2a57f9dcc1e722bc", "3d383e7d9102741c", "6c6d252acf3f1b7e", "e97a8cffda0acbf7", 125, 19),
    "drain/0.35":                         ("40123ebcfbc3b0fa", "dac4c2d73e63dd2f", "8d6aad12216fe9a3", "353310057d49eea3", 134, 20),
    "drain/0.36":                         ("93f8d974a23f3040", "dac4c2d73e63dd2f", "185e360118af3532", "6b67630b28f11b67", 136, 20),
    "drain/0.42":                         ("e11077762ee262ca", "3234208803e83155", "aee022c09888268f", "7907d461fc6e1a8b", 149, 23),
    "aligned/0":                          ("371ff63ad65e01eb", "0752f8302171cc74", "a0f506d07d25ab68", "ca7ec58007a55b4e", 427, 183),
    "aligned/1":                          ("3d0daa2c665127a1", "8572062f10363b59", "a3687c2bd356aad9", "a045aa31200b32ab", 186, 92),
    "aligned/2":                          ("b84456d34c76002d", "dc76b5c846b61209", "7969f6b0d43032d8", "ea7d9964c4ba9a9b", 173, 107),
    "aligned/3":                          ("d35500d879429ca7", "ec7ea0587b5a6297", "3da4ffc08f19ebb9", "73b7e5efcf55c726", 305, 132),
    "aligned/4":                          ("66a97e1826d2c3e2", "40e35e4c31820c7e", "5ef57b640e4e9bc1", "d33500a448bd5c4a", 256, 147),
    "aligned/5":                          ("a622284120c6d330", "f7cffec4bc3d3a95", "7601cd384c23f115", "e13ebc4e1fee450e", 567, 74),
    "aligned/6":                          ("da9a672bba7b623c", "a0a29ddcaef80dad", "45e810b36a9a8cfc", "649752674d167734", 53, 24),
    "aligned/7":                          ("e7783a541aa4ea48", "c09c5f8cc200816b", "aef12ad072e3f65a", "92c5d41e8c4271c5", 220, 170),
}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_golden_run(name):
    sim = run_case(name)
    report, samples, trace, text, events, elided = GOLDEN[name]
    got = digests(sim)
    assert (got["report"][:16], got["samples"][:16], got["trace"][:16], got["text"][:16]) == (
        report, samples, trace, text)
    assert (sim.events_processed, sim.poll_wakes_elided) == (events, elided)
    stats_json = json.loads(report_json(sim))
    assert (stats_json["events_processed"], stats_json["poll_wakes_elided"]) == (
        sim.events_processed, sim.poll_wakes_elided)
    # report.json is written without json.dumps, to the same bytes
    report = build_report(sim)
    assert render_json(report) == json.dumps(report, indent=2) + "\n"


def _mark_every_container(value) -> None:
    """Add a key to every dict, and an item to every list, nested in value."""
    children = value.values() if isinstance(value, dict) else value
    for child in list(children):
        if isinstance(child, (dict, list)):
            _mark_every_container(child)
    if isinstance(value, dict):
        value["marked"] = True
    else:
        value.append("marked")


@pytest.mark.parametrize("name", CASES)
def test_the_run_summary_is_report_json(name):
    sim = run_case(name)
    summary = sim.stats()
    assert render_json(summary) == report_json(sim)
    assert json.loads(report_json(sim)) == summary
    second = sim.stats()
    assert second == summary
    kept = copy.deepcopy(second)
    _mark_every_container(summary)  # each call builds its own containers
    assert second == kept == sim.stats() != summary


def test_drain_cases_die_inside_and_between_poll_windows():
    inside = between = 0
    for base in DRAIN_BASES_MAH:
        stats = run_case(f"drain/{base}").stats()
        for node, poll in enumerate(DRAIN_POLLS_S, start=2):
            dead_at = stats["power"][str(node)]["dead_at_s"]
            assert dead_at is not None
            if dead_at % poll < 1.5:
                inside += 1
            else:
                between += 1
        assert stats["frames"]["dropped_by_reason"]["node_dead"] > 0
    assert inside >= 5 and between >= 5
