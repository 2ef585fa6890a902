"""Print the sha256 of every output file of the benchmark workloads.

    python3 tools/output_digests.py [--root CHECKOUT]

For each workload of perfbench/workloads.py and each seed 0-19, one line
per file: workload, seed, file name, sha256. The files are report.json,
report.txt and samples.csv of the run as the workload defines it, and
trace.tsv, seq column included, of the same run with the trace on (the run
itself, for a traced workload). A last line, scenario.json, is the digest of
serialize_scenario(parse_scenario(text)) of the workload's scenario text, so
the diff below also pins the serialized bytes.

A change that must leave simulated results alone, such as a performance
change or a refactor, is checked by running this on both checkouts and
diffing the two outputs:

    python3 tools/output_digests.py --root ../parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt

--root names the checkout whose simulator (src/) and workloads (perfbench/)
are run; it defaults to the one holding this file. Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

OUTPUTS = ("report.json", "report.txt", "samples.csv", "trace.tsv", "scenario.json")
SEEDS = range(20)  # the seeds perfbench/goldens.json covers


def _import_workloads(root: Path):
    """perfbench/workloads.py of `root`, running the simulator of `root`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import wsn_pathosim
    import workloads

    source = Path(wsn_pathosim.__file__).resolve().parent
    if source != (root / "src" / "wsn_pathosim").resolve():
        sys.exit(f"imported wsn_pathosim from {source}, not from {root / 'src'}")
    return workloads


def digests(workloads, name: str, seed: int) -> dict[str, str]:
    """sha256 of each output file of one workload run, and of its
    scenario serialized."""
    workload = workloads.WORKLOADS[name]
    text = workload.scenario(seed)
    outputs = dict(workloads.run_once(workload, text, seed).outputs)
    if not workload.trace:
        traced = dataclasses.replace(workload, trace=True)
        outputs["trace.tsv"] = workloads.run_once(traced, text, seed).outputs["trace.tsv"]
    model = workloads.model
    outputs["scenario.json"] = model.serialize_scenario(model.parse_scenario(text))
    return {file: hashlib.sha256(outputs[file].encode()).hexdigest() for file in OUTPUTS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)

    workloads = _import_workloads(args.root.resolve())
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for file, digest in digests(workloads, name, seed).items():
                print(f"{name}\t{seed}\t{file}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
