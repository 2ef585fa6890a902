import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wsn_pathosim
from conftest import SCENARIO_DIR, two_node_doc
import wsn_pathosim.report as report_module
from wsn_pathosim.cli import main

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


def test_lifetime_refuses_a_wake_period_past_the_last_finite_tick(tmp_path, capsys):
    doc = two_node_doc(sample_period_s=1e303, poll_period_s=1e-6)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["lifetime", "--scenario", str(path), "--node", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: sample period 1e+303 s is not a finite number of 1 us ticks\n")


def test_lifetime_refuses_a_poll_period_that_run_refuses(tmp_path, capsys):
    doc = two_node_doc(sample_period_s=1.0)
    doc["nodes"][1]["radio"] = {"poll_period_s": 1e-7}
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    assert _refused_run(tmp_path, doc).startswith("error: node 1.radio.poll_period_s")
    assert main(["lifetime", "--scenario", str(path), "--node", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: poll period 1e-07 s rounds to 0 ticks of 1 us\n"


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
        env={"PATH": "/usr/local/bin:/usr/bin:/bin", "PATHOSIM_LOG": "debug",
             "PYTHONPATH": str(package_root)})
    assert result.returncode == 0
    # the subcommand logs at debug level, so a log handler pointed at stdout
    # would break the JSON below
    assert "DEBUG wsn_pathosim.cli: link 0 -> 1" in result.stderr
    assert json.loads(result.stdout)["received_power_dbm"] == pytest.approx(-29.53)
