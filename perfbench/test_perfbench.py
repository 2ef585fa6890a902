"""Tests of the benchmark itself: generator, gate, traced pass and a reduced
smoke run of every workload through the real entry point."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
from wsn_pathosim import build_parent_table, parse_scenario, validate_scenario  # noqa: E402
from workloads import WORKLOADS, run_once  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Reduced sizes: (end devices, horizon s). drain_traced keeps its staged
# horizon so injections still land between stages.
SMOKE = {"building_day": (6, 7200.0), "campus_build": (40, 600.0),
         "drain_traced": (10, 7260.0)}
UNRECORDED_SEED = 1000


def small(name: str):
    return WORKLOADS[name].scaled(*SMOKE[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_valid_and_reachable(name):
    building = WORKLOADS[name].building
    if name == "campus_build":  # same layout, fewer devices: keeps the test fast
        building = dataclasses.replace(building, end_devices=100)
    text = synth.generate_building(building, 7)
    assert synth.generate_building(building, 7) == text
    assert synth.generate_building(building, 8) != text
    config = parse_scenario(text)
    assert validate_scenario(config) == []
    assert build_parent_table(config).unreachable == ()
    assert len(config.end_devices()) == building.end_devices


def test_generator_refuses_a_building_it_cannot_cover():
    far = synth.BuildingSpec(floors=1, rooms_x=40, rooms_y=2, routers_per_floor=1,
                             end_devices=30)
    with pytest.raises(ValueError, match="unreachable"):
        synth.generate_building(far, 1)


def test_sensor_mix_is_exact():
    assert sorted(synth._split(10, {"strain_gauge": 1.0, "displacement": 2.0,
                                    "temperature_catheter": 2.0})) == sorted(
        ["strain_gauge"] * 2 + ["displacement"] * 4 + ["temperature_catheter"] * 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, small(name))
    assert run.main(["--workload", name, "--seed", str(UNRECORDED_SEED),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= len(gate.SHIPPED) + 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    human = "\n".join(lines[:-1])
    for metric in expected:
        assert f"{metric['name']} " in human and f" {metric['unit']}" in human
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)


def test_traced_run_leaves_the_simulator_unchanged():
    workload = small("drain_traced")
    text = workload.scenario(3)
    originals = {(owner, attr): vars(owner)[attr] for _, owner, attr in spans.ENTRY_POINTS}
    with spans.Tracer() as tracer:
        traced = run_once(workload, text, 3)
    assert all(vars(owner)[attr] is original for (owner, attr), original in originals.items())
    assert tracer.entry("advance").calls > 0
    untraced = run_once(workload, text, 3)
    assert traced.outputs == untraced.outputs


def test_gate_ignores_added_fields_and_events_processed_but_not_changes():
    outcome = run_once(small("building_day"), small("building_day").scenario(2), 2)
    goldens = gate.load_goldens()
    fields = set(goldens["report_fields"])
    base = gate.digests(outcome.outputs, fields)

    def with_report(edit):
        report = json.loads(outcome.outputs["report.json"])
        edit(report)
        return gate.digests({**outcome.outputs, "report.json": json.dumps(report)}, fields)

    assert with_report(lambda r: r.update(poll_wakes_elided=5)) == base
    assert with_report(lambda r: r["frames"].update(new_counter=1)) == base
    assert with_report(lambda r: r.update(events_processed=1)) == base
    assert with_report(lambda r: r["frames"].update(sent=r["frames"]["sent"] + 1)) != base
    assert with_report(lambda r: r["errors_seen"].update(bad_period=1)) != base

    assert gate.Gate(goldens, None).check(outcome) == []
    wrong = dict(base, samples_sha256="0" * 64)
    assert gate.Gate(goldens, wrong).check(outcome)


def test_gate_catches_broken_conservation():
    outcome = run_once(small("building_day"), small("building_day").scenario(2), 2)
    report = json.loads(outcome.outputs["report.json"])
    report["frames"]["delivered"] -= 1
    outcome.outputs["report.json"] = json.dumps(report)
    assert any("frames not conserved" in p for p in gate.identity_problems(outcome))


def test_shipped_scenarios_match_their_goldens():
    problems = gate.check_shipped(gate.load_goldens())
    assert set(problems) == {name for name, _, _ in gate.SHIPPED}
    assert not any(problems.values()), problems
