"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/trajectory.py --runs 10 --seconds 20
    python3 perfbench/trajectory.py --runs 1 --seconds 5     # every workload once
    python3 perfbench/trajectory.py --runs 10 --record baseline

Each run is a separate `run.py` process, one after another. For every
workload and end-to-end metric this prints the median, the quartiles from
statistics.quantiles(n=4) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json. --record appends the summary, one traced
run per workload and the machine's core count and Python version to
trajectory.json as a new point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY_PATH = HERE / "trajectory.json"


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its gate: {proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..runs per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--record", metavar="LABEL", default=None,
                        help="append the summary to trajectory.json under this label")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point: dict = {"label": args.record, "nproc": os.cpu_count(),
                   "python": platform.python_version(), "runs": args.runs,
                   "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        summary = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        point["workloads"][workload] = {"metrics": summary, "attempted": attempted,
                                        "failed": failed}
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} checked runs failed")
        for name, s in summary.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if s["spread"] < bound / 3 else
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:<18} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}) {verdict}")
        if args.record:
            traced = bench(workload, 1, seconds, 1)
            point["workloads"][workload]["per_layer_seed_1"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.record:
        points = (json.loads(TRAJECTORY_PATH.read_text())["points"]
                  if TRAJECTORY_PATH.exists() else [])
        points.append(point)
        TRAJECTORY_PATH.write_text(json.dumps({"points": points}, indent=1) + "\n")
        print(f"recorded point {args.record!r} in {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
