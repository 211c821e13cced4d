#!/usr/bin/env python3
"""Fingerprint the CLI report of every perfbench operation, to compare two trees.

    python3 tools/same_reports.py --src ../parent/src --seed 1 --seed 2 > parent.txt
    python3 tools/same_reports.py --src src --seed 1 --seed 2 > change.txt
    diff parent.txt change.txt

Builds each perfbench workload at the given seeds in this repository (the
map files go to .bench_build/perfbench/) and runs every operation through
perfbench/run.py's run_op under its deadline, with degreelab imported from
--src.  Prints one line per operation: workload, seed, index, exit code and
the SHA-256 of the JSON report without its timings, or the text of the
timeout or exception.  Two trees agree exactly when the outputs do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


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
                _, code, report, outcome = run.run_op(cli, op)
                if outcome is None:
                    del report["timings"]
                    outcome = hashlib.sha256(
                        json.dumps(report, sort_keys=True).encode()).hexdigest()
                print(workload, seed, idx, code, outcome, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
