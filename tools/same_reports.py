#!/usr/bin/env python3
"""Fingerprint the CLI report of every perfbench operation, to compare two trees.

    python3 tools/same_reports.py --src ../parent/src --seed 1 --seed 2 > parent.txt
    python3 tools/same_reports.py --src src --seed 1 --seed 2 > change.txt
    diff parent.txt change.txt                 # same results and config
    diff <(cut -d' ' -f1-5 parent.txt) <(cut -d' ' -f1-5 change.txt)   # same results

Builds each perfbench workload at the given seeds in this repository (the
map files go to .bench_build/perfbench/) and runs every operation through
perfbench/run.py's run_op under its deadline, with degreelab imported from
--src.  Prints one line per operation: workload, seed, index, exit code,
then two SHA-256 digests of the JSON report, one of its results and one of
the rest without the timings (command, tool version, inputs and config
echo), or the text of the timeout or exception, or "no report" when the
operation exited without printing one.  Two trees compute the
same results exactly when the first five columns agree; the last one also
moves when only the config echo changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def line(cli, workload: str, seed: int, idx: int, op) -> str:
    """The fingerprint line of one operation."""
    exits = []

    def main(argv):
        exits.append(cli.main(argv))
        return exits[-1]

    try:
        _, code, report, outcome = run.run_op(types.SimpleNamespace(main=main), op)
    except json.JSONDecodeError:
        # run_op parses the output of every operation that exits
        return f"{workload} {seed} {idx} {exits[-1]} no report"
    if outcome is None:
        del report["timings"]
        results = report.pop("results")
        outcome = f"{_digest(results)} {_digest(report)}"
    return f"{workload} {seed} {idx} {code} {outcome}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the degreelab package")
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    os.chdir(ROOT)
    from degreelab import cli
    print(f"degreelab from {Path(cli.__file__).parent}", file=sys.stderr)
    signal.signal(signal.SIGALRM, run._on_alarm)
    for workload in workloads.WORKLOADS:
        for seed in args.seed:
            ops, _ = workloads.build(workload, seed, Path("."), run._workdir(workload, seed))
            for idx, op in enumerate(ops):
                print(line(cli, workload, seed, idx, op), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
