import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wsn_pathosim
from conftest import SCENARIO_DIR, make_config, two_node_doc
import wsn_pathosim.report as report_module
from test_golden import drain_doc
from wsn_pathosim.cli import _repl_status, main
from wsn_pathosim.simulation import Simulation

THREE_NODE = str(SCENARIO_DIR / "three_node_building.json")
LIFETIME = str(SCENARIO_DIR / "lifetime_single_hop.json")


def test_run_writes_the_output_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    trace = tmp_path / "trace.tsv"
    code = main(["run", "--scenario", THREE_NODE, "--until", "7200",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 42
    assert report["clock_s"] == 7200.0
    assert report["frames"]["sent"] == 20
    assert report["samples_per_node"] == {"2": 4}
    csv = (out / "samples.csv").read_text().splitlines()
    assert csv[0] == "ticks,node,sensor,value,sampled_ticks,rssi_dbm"
    assert len(csv) == 5
    text = (out / "report.txt").read_text()
    assert "cyclic sleep" in text
    assert capsys.readouterr().out == text
    lines = [line.split("\t") for line in trace.read_text().splitlines()]
    assert sum(1 for line in lines if line[1] != "-") == report["events_processed"]
    assert sum(1 for line in lines if line[2] == "send") == report["frames"]["sent"]


def test_run_builds_the_report_once(tmp_path, capsys, monkeypatch):
    build_report = report_module.build_report
    calls = []

    def counting_build_report(sim):
        calls.append(sim)
        return build_report(sim)

    monkeypatch.setattr(report_module, "build_report", counting_build_report)
    out = tmp_path / "out"
    assert main(["run", "--scenario", THREE_NODE, "--until", "7200", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    assert json.loads((out / "report.json").read_text()) == build_report(calls[0])


def test_run_with_seed_override_changes_values(tmp_path):
    outs = []
    for seed, name in ((None, "a"), (7, "b")):
        argv = ["run", "--scenario", THREE_NODE, "--until", "7200",
                "--out", str(tmp_path / name)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        outs.append((tmp_path / name / "samples.csv").read_text())
    assert outs[0] != outs[1]


OUTPUT_FILES = ("report.json", "report.txt", "samples.csv", "trace.tsv")


def _with_seed(tmp_path, seed: int) -> str:
    """A copy of three_node_building.json whose seed field reads `seed`."""
    doc = json.loads(Path(THREE_NODE).read_text())
    doc["seed"] = seed
    path = tmp_path / f"seed_{seed}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_seed_flag_runs_the_scenario_with_that_seed(tmp_path, capsys, monkeypatch):
    """`--seed N` on run and on a scripted repl session writes the four files
    a scenario whose seed field reads N writes, byte for byte."""
    edited = _with_seed(tmp_path, 7)
    for name, argv in (("flag", ["--scenario", THREE_NODE, "--seed", "7"]),
                       ("file", ["--scenario", edited])):
        out = tmp_path / "run" / name
        assert main(["run", "--until", "7200", "--out", str(out),
                     "--trace", str(out / "trace.tsv")] + argv) == 0
        out = tmp_path / "repl" / name
        assert _run_repl(monkeypatch, REPL_SCRIPT,
                         argv + ["--out", str(out), "--trace", str(out / "trace.tsv")]) == 0
    capsys.readouterr()
    for command in ("run", "repl"):
        assert json.loads((tmp_path / command / "flag" / "report.json").read_text())["seed"] == 7
        for file in OUTPUT_FILES:
            assert ((tmp_path / command / "flag" / file).read_bytes()
                    == (tmp_path / command / "file" / file).read_bytes()), (command, file)


@pytest.mark.parametrize("command", ["run", "repl"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_a_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, monkeypatch, command, seed):
    """A seed the scenario file could not hold is refused on the command line
    too: -1 and 2^64 would otherwise name the runs of 2^64 - 1 and 0."""
    argv = ["--scenario", THREE_NODE, "--seed", seed, "--out", str(tmp_path)]
    if command == "run":
        code = main(["run", "--until", "3600"] + argv)
    else:
        code = _run_repl(monkeypatch, ["quit"], argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed must be an unsigned 64-bit integer" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_the_largest_64_bit_seed_runs(tmp_path, capsys):
    assert main(["run", "--scenario", THREE_NODE, "--until", "3600", "--out", str(tmp_path),
                 "--seed", str((1 << 64) - 1)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == (1 << 64) - 1


def test_linkbudget_text_breakdown(capsys):
    code = main(["linkbudget", "--scenario", THREE_NODE, "--from", "0", "--to", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "free space loss   29.61 dB" in out
    assert out.count("brick_wall        1.46 dB") == 2
    assert "total attenuation 32.53 dB" in out
    assert "received power    -29.53 dBm" in out
    assert "connected         yes" in out


def test_linkbudget_json_fields(capsys):
    code = main(["linkbudget", "--scenario", THREE_NODE,
                 "--from", "0", "--to", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["from"] == 0 and doc["to"] == 2
    assert doc["distance_m"] == 22.0
    assert doc["obstacle_losses_db"] == [["brick_wall", 1.46]] * 4
    assert doc["received_power_dbm"] == pytest.approx(
        doc["tx_power_dbm"] - doc["total_attenuation_db"])
    assert doc["connected"] is False  # four walls over 22 m beat -40 dBm


def test_linkbudget_rejects_same_node(capsys):
    code = main(["linkbudget", "--scenario", THREE_NODE, "--from", "1", "--to", "1"])
    assert code == 2
    assert "must differ" in capsys.readouterr().err


def test_linkbudget_rejects_unknown_node(capsys):
    code = main(["linkbudget", "--scenario", THREE_NODE, "--from", "0", "--to", "9"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file_is_a_usage_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--until", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--until", "10"]) == 2
    assert "error:" in capsys.readouterr().err


HORIZON_ERRORS = {
    "inf": "error: horizon must be a finite number of seconds, got inf",
    "nan": "error: horizon must be a finite number of seconds, got nan",
    "1e303": "error: horizon must be a finite number of 1 us ticks, got 1e+303 s",
}


@pytest.mark.parametrize("horizon", list(HORIZON_ERRORS))
def test_run_until_a_horizon_that_is_not_finite_is_a_usage_error(tmp_path, capsys, horizon):
    code = main(["run", "--scenario", THREE_NODE, "--until", horizon,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == HORIZON_ERRORS[horizon] + "\n"


def test_repl_reports_a_horizon_that_is_not_finite_and_carries_on(monkeypatch, capsys):
    commands = [f"run-until {horizon}" for horizon in HORIZON_ERRORS]
    code = _run_repl(monkeypatch, commands + ["run-until 100", "quit"],
                     ["--scenario", THREE_NODE])
    assert code == 0
    out = capsys.readouterr().out
    for error in HORIZON_ERRORS.values():
        assert error in out
    assert "clock 100.000000 s" in out


def test_invalid_scenario_reports_violations(tmp_path, capsys):
    doc = two_node_doc(sample_period_s=10.0, poll_period_s=28.0)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--until", "10"]) == 2
    assert "node 1" in capsys.readouterr().err


def _refused_run(tmp_path, doc: dict | str) -> str:
    """Run the scenario (a document, or its text) in a fresh interpreter,
    check that it is refused as a usage error with nothing on stdout, and
    return the one stderr line."""
    path = tmp_path / "refused.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    package_root = Path(wsn_pathosim.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "wsn_pathosim", "run", "--scenario", str(path),
         "--until", "60", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PATH": "/usr/local/bin:/usr/bin:/bin", "PYTHONPATH": str(package_root)})
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("radio, defaults", [
    ({"poll_period_s": 1e-7}, {}),               # rounds to 0 ticks
    ({}, {"poll_wake_duration_s": 28.0}),         # windows overlap
    ({"poll_period_s": 1e303}, {}),               # too many ticks for a float
    ({"bitrate_bps": 1e-305}, {}),                # a frame's airtime is too many ticks
])
def test_run_refuses_a_scenario_that_would_stall_the_clock(tmp_path, radio, defaults):
    doc = two_node_doc(sample_period_s=120.0, defaults=defaults)
    doc["nodes"][1]["radio"] = radio
    assert _refused_run(tmp_path, doc).startswith("error: node 1.")


def test_run_refuses_an_integer_too_large_for_a_float(tmp_path):
    doc = two_node_doc(sample_period_s=120.0, defaults={"warmup_delay_s": 10**401})
    assert _refused_run(tmp_path, doc) == (
        "error: $.defaults.warmup_delay_s: expected a finite number, got an integer too"
        " large for a float")


def test_run_refuses_an_integer_literal_past_the_digit_limit(tmp_path):
    # The fresh interpreter keeps CPython's default limit of 4300 digits.
    line = _refused_run(tmp_path, '{"nodes": [], "seed": ' + "7" * 5000 + "}")
    assert line.startswith("error: ") and "limit" in line


GAUGE = {"kind": "strain_gauge", "signal": {"shape": "constant", "level": 1.0}}


@pytest.mark.parametrize("node, defaults, where", [
    # the node-level durations that sit outside the radio block
    ({"sensors": [dict(GAUGE, heat_duration_s=1e303)]}, {}, "node 1.sensors[0]"),
    ({"sample_period_s": 1e303, "radio": {"poll_period_s": 1e-6}},
     {"poll_wake_duration_s": 0.0}, "node 1.sample_period_s"),
    # the scenario-level durations
    ({}, {"tx_airtime_s": 1e303}, "scenario.tx_airtime_s"),
    ({}, {"warmup_delay_s": 1e303}, "scenario.warmup_delay_s"),
    ({}, {"response_timeout_s": 1e303}, "scenario.response_timeout_s"),
    ({}, {"poll_wake_duration_s": 1e303}, "scenario.poll_wake_duration_s"),
    ({}, {"warmup_delay_s": 1.5e302, "response_timeout_s": 1.5e302},
     "scenario.warmup_delay_s + response_timeout_s"),  # each part fits, the guard does not
])
def test_run_refuses_a_duration_with_no_finite_tick_count(tmp_path, node, defaults, where):
    doc = two_node_doc(sample_period_s=120.0, defaults=defaults)
    doc["nodes"][1].update(node)
    line = _refused_run(tmp_path, doc)
    assert line.startswith(f"error: {where}") and "finite number of 1 us ticks" in line


@pytest.mark.parametrize("node, defaults, where", [
    ({}, {"tx_airtime_s": 1e-7}, "scenario.tx_airtime_s: airtime override"),
    ({}, {"response_timeout_s": 1e-7}, "scenario.response_timeout_s: response timeout"),
    ({"sensors": [dict(GAUGE, heat_duration_s=1e-7)]}, {},
     "node 1.sensors[0].heat_duration_s: heat duration"),
    # no airtime override: the 10-byte frame takes 0.08 us at 1 Gb/s
    ({"radio": {"bitrate_bps": 1e9}}, {},
     "node 1.radio.bitrate_bps: the shortest frame's airtime"),
], ids=["tx_airtime_s", "response_timeout_s", "heat_duration_s", "bitrate_bps"])
def test_run_refuses_a_duration_that_rounds_to_zero_ticks(tmp_path, node, defaults, where):
    doc = two_node_doc(sample_period_s=120.0, defaults=defaults)
    doc["nodes"][1].update(node)
    seconds = "8e-08" if "bitrate" in where else "1e-07"
    assert _refused_run(tmp_path, doc) == (
        f"error: {where} must round to at least one 1 us tick ({seconds} s)")


@pytest.mark.parametrize("radio, defaults", [
    ({}, {"tx_airtime_s": 1e-6}),
    ({"bitrate_bps": 8e7}, {}),  # the 10-byte frame takes 1 us
], ids=["tx_airtime_s", "bitrate_bps"])
def test_run_accepts_durations_of_exactly_one_tick(tmp_path, capsys, radio, defaults):
    doc = two_node_doc(sample_period_s=120.0, sensor=dict(GAUGE, heat_duration_s=1e-6),
                       defaults=dict(defaults, response_timeout_s=1e-6, warmup_delay_s=0.0))
    doc["nodes"][1]["radio"] = radio
    path = tmp_path / "one_tick.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--until", "600", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    assert json.loads((out / "report.json").read_text())["frames"]["sent"] > 0


def test_lifetime_matches_the_closed_form(capsys):
    code = main(["lifetime", "--scenario", LIFETIME, "--node", "1",
                 "--active-s", "5", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["effective_period_s"] == 1800.0
    assert doc["multiplier"] == 60
    assert doc["average_ma"] == pytest.approx(21.3464, abs=5e-5)
    assert doc["lifetime_h"] == pytest.approx(51.53, abs=0.005)


def test_lifetime_text_output(capsys):
    assert main(["lifetime", "--scenario", LIFETIME, "--node", "1"]) == 0
    out = capsys.readouterr().out
    assert "lifetime          52.13 h" in out


def _refused_as_run_refuses(tmp_path, capsys, doc: dict, argv: list[str]) -> str:
    """Check that the subcommand of argv (without --scenario) refuses the
    scenario as run does: exit 2, nothing on stdout and run's one stderr
    line. Returns that line."""
    line = _refused_run(tmp_path, doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(argv[:1] + ["--scenario", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    return line


def test_lifetime_refuses_a_wake_period_past_the_last_finite_tick(tmp_path, capsys):
    doc = two_node_doc(sample_period_s=1e303, poll_period_s=1e-6)
    line = _refused_as_run_refuses(tmp_path, capsys, doc, ["lifetime", "--node", "1"])
    assert line.startswith("error: node 1.sample_period_s: sample period must be a finite")


def test_lifetime_refuses_a_poll_period_that_run_refuses(tmp_path, capsys):
    doc = two_node_doc(sample_period_s=1.0)
    doc["nodes"][1]["radio"] = {"poll_period_s": 1e-7}
    line = _refused_as_run_refuses(tmp_path, capsys, doc, ["lifetime", "--node", "1"])
    assert line.startswith("error: node 1.radio.poll_period_s")


def _sample_faster_than_poll() -> dict:
    return two_node_doc(sample_period_s=5.0)  # on 28 s polls


def _wall_that_amplifies() -> dict:
    doc = two_node_doc()
    doc["obstacles"] = [{"kind": "brick_wall", "from": {"x": 1.0, "y": -1.0},
                         "to": {"x": 1.0, "y": 1.0}, "attenuation_db": -5}]
    return doc


@pytest.mark.parametrize("output", [[], ["--json"]])
@pytest.mark.parametrize("argv", [["lifetime", "--node", "1"],
                                  ["linkbudget", "--from", "1", "--to", "0"]])
@pytest.mark.parametrize("doc, rule", [
    (_sample_faster_than_poll(), "sample period must be >= poll period (5.0 < 28.0)"),
    (_wall_that_amplifies(), "obstacle attenuation must be >= 0"),
])
def test_every_subcommand_refuses_what_run_refuses(tmp_path, capsys, doc, rule, argv, output):
    line = _refused_as_run_refuses(tmp_path, capsys, doc, argv + output)
    assert line.endswith(rule)


@pytest.mark.parametrize("output", [[], ["--json"]])
def test_lifetime_refuses_a_nan_active_time(capsys, output):
    assert main(["lifetime", "--scenario", LIFETIME, "--node", "1",
                 "--active-s", "nan"] + output) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: active time nan s does not fit in a 1800.0 s cycle\n"


def test_lifetime_rejects_the_coordinator(capsys):
    assert main(["lifetime", "--scenario", LIFETIME, "--node", "0"]) == 2
    assert "not a battery-powered end device" in capsys.readouterr().err


def _run_repl(monkeypatch, commands, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(commands) + "\n"))
    return main(["repl"] + argv)


def test_repl_session(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "dump.csv"
    code = _run_repl(monkeypatch, [
        "status",
        "step",
        "run-until 2000",
        "set-period 2 600",
        "run-until 2100",
        "status",
        "run-until 4000",
        "status",
        f"dump-samples {dump}",
        "bogus",
        "set-period 2 0",
        "quit",
    ], ["--scenario", THREE_NODE])
    assert code == 0
    out = capsys.readouterr().out
    assert "commands: step" in out
    # no-op polls are not events: the first step is the first external wake
    assert "t=1792.000000 s external_wake node=2" in out
    assert "clock 2000.000000 s" in out
    assert "queued set-period 600 s for node 2" in out
    assert "pending=600.0 s" in out       # delivered at the 2016 s poll
    assert "period=600.0 s" in out        # committed at the 3584 s round end
    assert "phase=sleeping" in out
    assert "parent=1" in out
    assert "unknown command: bogus" in out
    assert "error: period must be in" in out
    assert dump.read_text().count("\n") == 3  # header + rounds at 1792 and 3584


# The whole stdout of a scripted session.
REPL_SCRIPT = ["status", "step", "run-until 2000", "set-period 2 600", "run-until 2100",
               "status", "run-until 4000", "status", "bogus", "quit"]
REPL_TRANSCRIPT = (
    "commands: step, run-until <s>, set-period <node> <seconds>, status,"
    " dump-samples <path>, quit\n"
    "clock 0.000000 s, 0 events processed, 1 pending\n"
    "  node 0 coordinator\n"
    "  node 1 router\n"
    "  node 2 end_device phase=sleeping battery=1100.000/1100.0 mAh period=1800.0 s parent=1\n"
    "t=1792.000000 s external_wake node=2\n"
    "clock 2000.000000 s, 6 events processed\n"
    "queued set-period 600 s for node 2\n"
    "clock 2100.000000 s, 9 events processed\n"
    "clock 2100.000000 s, 9 events processed, 1 pending\n"
    "  node 0 coordinator\n"
    "  node 1 router\n"
    "  node 2 end_device phase=sleeping battery=1087.591/1100.0 mAh period=1800.0 s"
    " pending=600.0 s parent=1\n"
    "clock 4000.000000 s, 15 events processed\n"
    "clock 4000.000000 s, 15 events processed, 1 pending\n"
    "  node 0 coordinator\n"
    "  node 1 router\n"
    "  node 2 end_device phase=sleeping battery=1076.366/1100.0 mAh period=600.0 s parent=1\n"
    "unknown command: bogus\n"
)


def test_repl_transcript(capsys, monkeypatch):
    assert _run_repl(monkeypatch, REPL_SCRIPT, ["--scenario", THREE_NODE]) == 0
    assert capsys.readouterr().out == REPL_TRANSCRIPT


def test_repl_status_figures_equal_the_run_summary():
    """At each single step after a run in which one device has died and
    another has committed a SET_PERIOD, each device's battery and period on
    a status line equal the same fields of stats(), taken after it. The
    other devices' batteries last, so their polls are booked without events:
    a step leaves those since each device's last event unbooked, and status
    must book them itself."""
    doc = drain_doc(0.3)
    for node in doc["nodes"][3:]:
        node["battery"]["capacity_mah"] = 50.0
    sim = Simulation(make_config(doc))
    sim.run_until(30.0)
    sim.inject_set_period(3, 40)
    sim.run_until(40.0)
    steps = 0
    while sim.step().at < 100_000_000:
        steps += 1
        status = _repl_status(sim)
        stats = sim.stats()
        assert [node for node, energy in stats["power"].items()
                if energy.get("dead_at_s") is not None] == ["2"]
        assert stats["cyclic_sleep"]["3"]["requested_period_s"] == 40
        devices = re.findall(r"node (\d+) end_device \S+ battery=(\S+)/(\S+) mAh"
                             r" period=(\S+) s", status)
        assert [node for node, *_ in devices] == [str(node) for node in range(2, 8)]
        for node, remaining, capacity, period in devices:
            energy = stats["power"][node]
            assert remaining == f"{energy['remaining_mah']:.3f}"
            assert capacity == f"{energy['battery_capacity_mah']:.1f}"
            assert period == str(stats["cyclic_sleep"][node]["requested_period_s"])
    assert steps > 50


def test_repl_outputs_match_a_straight_run(tmp_path, capsys, monkeypatch):
    run_out = tmp_path / "run"
    assert main(["run", "--scenario", THREE_NODE, "--until", "7200",
                 "--out", str(run_out), "--trace", str(run_out / "trace.tsv")]) == 0
    repl_out = tmp_path / "repl"
    code = _run_repl(monkeypatch, ["run-until 7200", "quit"],
                     ["--scenario", THREE_NODE, "--out", str(repl_out),
                      "--trace", str(repl_out / "trace.tsv")])
    assert code == 0
    capsys.readouterr()
    for name in ("samples.csv", "report.json", "report.txt", "trace.tsv"):
        assert (repl_out / name).read_bytes() == (run_out / name).read_bytes(), name


def test_repl_writes_a_trace_without_outputs_into_a_new_directory(tmp_path, capsys,
                                                                  monkeypatch):
    run_out = tmp_path / "run"
    assert main(["run", "--scenario", THREE_NODE, "--until", "7200",
                 "--out", str(run_out), "--trace", str(run_out / "trace.tsv")]) == 0
    trace = tmp_path / "sub" / "dir" / "t.tsv"
    code = _run_repl(monkeypatch, ["run-until 7200", "quit"],
                     ["--scenario", THREE_NODE, "--trace", str(trace)])
    assert code == 0
    capsys.readouterr()
    assert trace.read_bytes() == (run_out / "trace.tsv").read_bytes()


def test_a_run_to_zero_reports_no_charge(tmp_path, capsys):
    """A ledger that booked no tick lists no state and reports the int 0."""
    assert main(["run", "--scenario", THREE_NODE, "--until", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "report.json").read_text()
    power = json.loads(text)["power"]
    assert len(power) == 3
    for entry in power.values():
        assert entry["state_durations_s"] == {}
        assert type(entry["consumed_mah"]) is int and entry["consumed_mah"] == 0
    assert text.count('"consumed_mah": 0,') == 3


def test_repl_reports_a_bad_dump_path_and_carries_on(tmp_path, capsys, monkeypatch):
    repl_out = tmp_path / "repl"
    bad = tmp_path / "missing" / "x.csv"
    code = _run_repl(monkeypatch, ["step", f"dump-samples {bad}", "step", "quit"],
                     ["--scenario", THREE_NODE, "--out", str(repl_out)])
    assert code == 0
    out = capsys.readouterr().out
    errors = [line for line in out.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(bad) in errors[0]
    assert sum(line.startswith("t=") for line in out.splitlines()) == 2  # both steps ran
    for name in ("samples.csv", "report.json", "report.txt"):
        assert (repl_out / name).is_file(), name


def test_repl_quits_on_eof(monkeypatch, capsys):
    assert _run_repl(monkeypatch, [""], ["--scenario", THREE_NODE]) == 0
    capsys.readouterr()


def _console_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of pyproject.toml, read as text (no
    ``tomllib`` on Python 3.10)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table is not None, "pyproject.toml has no [project.scripts] table"
    return dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]*)"', table.group(1), re.M))


def test_console_script_smoke(tmp_path):
    # `python -m wsn_pathosim` runs the same callable as the installed script,
    # so the check needs neither an install nor a particular PATH.
    assert _console_scripts().get("wsn-pathosim") == "wsn_pathosim.cli:main"
    package_root = Path(wsn_pathosim.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "wsn_pathosim", "linkbudget", "--scenario", THREE_NODE,
         "--from", "0", "--to", "1", "--json"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/local/bin:/usr/bin:/bin", "PYTHONPATH": str(package_root)})
    assert result.returncode == 0
    assert result.stderr == ""  # a successful command writes nothing to stderr
    assert json.loads(result.stdout)["received_power_dbm"] == pytest.approx(-29.53)
