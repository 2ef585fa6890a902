"""Output gate applied to every benchmark run.

A run passes when
  * frames are conserved: sent == delivered + dropped + buffered + in flight;
  * energy is conserved: every ledger's conservation error <= 1e-6 mAh;
  * samples recorded == collection rounds completed;
  * its digests equal the reference: the golden recorded for this workload
    and seed when there is one, otherwise the first run of the same scenario.

The report digest covers every report.json field recorded in goldens.json
except events_processed, so a later change may add report fields (new
counters) but may not move an existing one. Run this file to re-record the
goldens; do that only for a change that is meant to alter simulated results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Workload, run_once  # noqa: E402

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
GOLDEN_SEEDS = range(20)
ENERGY_TOLERANCE_MAH = 1e-6
IGNORED_FIELDS = {"events_processed"}
# Report maps keyed by data (node ids aside) rather than by field names.
_DATA_KEYED = {"frames.dropped_by_reason", "errors_seen", "power.*.state_durations_s"}
# Shipped scenarios checked but not timed: (check name, file stem, horizon s).
SHIPPED = (
    ("three_node_building", "three_node_building", 86400.0),
    ("three_node_router_off", "three_node_router_off", 86400.0),
    ("lifetime_single_hop", "lifetime_single_hop", 86400.0),
    ("lifetime_single_hop_to_death", "lifetime_single_hop", 190000.0),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _leaves(value, path: str = ""):
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    else:
        yield path, value


def field_pattern(path: str) -> str:
    """A report leaf path with node ids and data keys replaced by '*'."""
    parts: list[str] = []
    for part in path.split("."):
        parts.append("*" if part.isdigit() or ".".join(parts) in _DATA_KEYED else part)
    return ".".join(parts)


def report_fields(report_text: str) -> set[str]:
    return {field_pattern(path) for path, _ in _leaves(json.loads(report_text))
            if path not in IGNORED_FIELDS}


def digests(outputs: dict[str, str], fields: set[str]) -> dict[str, str]:
    lines = sorted(f"{path}={json.dumps(value)}"
                   for path, value in _leaves(json.loads(outputs["report.json"]))
                   if path not in IGNORED_FIELDS and field_pattern(path) in fields)
    return {"report_sha256": _sha("\n".join(lines)),
            "samples_sha256": _sha(outputs["samples.csv"])}


def identity_problems(outcome) -> list[str]:
    report = json.loads(outcome.outputs["report.json"])
    problems = []
    frames = report["frames"]
    accounted = (frames["delivered"] + frames["dropped"] + frames["buffered_pending"]
                 + frames["in_flight"])
    if frames["sent"] != accounted:
        problems.append(f"frames not conserved: sent {frames['sent']} != {accounted}")
    worst = max(runtime.ledger.conservation_error_mah()
                for runtime in outcome.sim.runtimes.values())
    if not worst <= ENERGY_TOLERANCE_MAH:
        problems.append(f"energy not conserved: error {worst!r} mAh")
    samples = sum(report["samples_per_node"].values())
    completed = sum(counts["completed"] for counts in report["rounds"].values())
    if samples != completed:
        problems.append(f"{samples} samples recorded but {completed} rounds completed")
    return problems


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


class Gate:
    """Checks every run of one scenario against one reference digest."""

    def __init__(self, goldens: dict, golden: dict | None) -> None:
        self.fields = set(goldens["report_fields"])
        self.expected = golden

    def check(self, outcome) -> list[str]:
        problems = identity_problems(outcome)
        got = digests(outcome.outputs, self.fields)
        if self.expected is None:
            self.expected = got
        for key, value in got.items():
            if value != self.expected[key]:
                problems.append(f"{key} {value[:12]} != expected {self.expected[key][:12]}")
        return problems


def _run_shipped(name: str, stem: str, horizon_s: float):
    text = (ROOT / "scenarios" / f"{stem}.json").read_text()
    return run_once(Workload(name=name, building=None, horizon_s=horizon_s), text, 0)


def check_shipped(goldens: dict) -> dict[str, list[str]]:
    """Run every shipped scenario once through the gate: problems by check."""
    problems: dict[str, list[str]] = {}
    for name, stem, horizon_s in SHIPPED:
        try:
            outcome = _run_shipped(name, stem, horizon_s)
        except Exception as exc:  # a crash is a failed check, not a dead benchmark
            problems[name] = [f"raised {exc!r}"]
            continue
        problems[name] = Gate(goldens, goldens["shipped"][name]).check(outcome)
        report = json.loads(outcome.outputs["report.json"])
        if name.endswith("_to_death") and all(
                entry.get("dead_at_s") is None for entry in report["power"].values()):
            problems[name].append("no battery died")
    return problems


def record() -> dict:
    """Golden digests for every workload at GOLDEN_SEEDS and every shipped
    scenario, at the current commit."""
    bundles: dict[str, dict] = {"workloads": {}, "shipped": {}}

    def keep(outcome) -> dict[str, str]:
        problems = identity_problems(outcome)
        if problems:
            raise RuntimeError(f"refusing to record a failing run: {problems}")
        return {name: outcome.outputs[name] for name in ("report.json", "samples.csv")}

    for workload in WORKLOADS.values():
        bundles["workloads"][workload.name] = {
            str(seed): keep(run_once(workload, workload.scenario(seed), seed))
            for seed in GOLDEN_SEEDS}
    for name, stem, horizon_s in SHIPPED:
        bundles["shipped"][name] = keep(_run_shipped(name, stem, horizon_s))
    every = list(bundles["shipped"].values())
    every += [b for by_seed in bundles["workloads"].values() for b in by_seed.values()]
    fields = set().union(*(report_fields(b["report.json"]) for b in every))
    return {
        "report_fields": sorted(fields),
        "workloads": {name: {seed: digests(b, fields) for seed, b in by_seed.items()}
                      for name, by_seed in bundles["workloads"].items()},
        "shipped": {name: digests(b, fields) for name, b in bundles["shipped"].items()},
    }


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS_PATH}")
