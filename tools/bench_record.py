#!/usr/bin/env python3
"""Benchmark two trees in alternating pairs of runs and record both sides.

    python3 tools/bench_record.py --parent ../parent --change . \\
        --workload collide --seed 7 --pairs 10 \\
        --workload fibers --seed 7 --pairs 3 --out BENCH_7.json

The k-th --workload takes the k-th --seed and --pairs, or the last ones
given; without --pairs every workload gets 10 pairs.  Pair k runs
``python3 perfbench/run.py`` once in each tree, for the run_seconds of
BENCHMARK.json (run.py's own default differs), the parent first when k
is even and the change first when k is odd, so that a drift of the
machine over time hits both sides alike.  After every
run the tree's ``.bench_build/perfbench/<workload>-<seed>/report-trace0.json``
is read back.  Last, each tree makes TRACED_RUNS traced runs (``--trace 1``),
alternating like the pairs, for the per-layer metrics: a time is the median
of its runs, and a count must read the same in every run of its tree, since
one traced run carries the machine's whole spread.  Then SETUP_SAMPLES
alternating pairs of ``python3 perfbench/run.py --setup-only`` processes
time the set-up alone (a fresh ``import degreelab.cli`` plus the workload
build), since one set-up sample per run spreads about as widely as
``setup_s``'s bound.

The output holds, per workload and side: the end-to-end metrics of every
run, their median and quartiles, the counters_sha256 values seen (one per
side when the runs agree; both sides share it when they compute the same
results), the provenance of the tree, and the traced runs' per-layer
metrics; ``setup_only`` holds each side's set-up samples and their
median.  ``wins`` counts, per end-to-end metric, the pairs in which the
change did better, by the direction that BENCHMARK.json gives, and
``verdict`` reads each metric by the rule in ``verdict`` below: ``gain``,
``worse``, ``unresolved`` or ``unchanged``.  ``counter_diff`` lists each
per-layer metric in unit ``count`` whose traced values differ between the
two sides, with both values, so that the work counters a change moved
show at a glance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
# fewer pairs have read "worse" on unchanged code
DEFAULT_PAIRS = 10
# set-up-only processes per tree and workload
SETUP_SAMPLES = 20
# traced runs per tree and workload, for the per-layer metrics
TRACED_RUNS = 3


def _perfbench(tree: Path, workload: str, seed: int, *options: str) -> str:
    """Run perfbench/run.py in tree; returns its standard output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           *options]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return done.stdout


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in tree; returns its report-trace<trace>.json."""
    _perfbench(tree, workload, seed, "--seconds", str(BENCHMARK["run_seconds"]),
               "--trace", str(trace))
    report = tree / ".bench_build" / "perfbench" / f"{workload}-{seed}" / f"report-trace{trace}.json"
    return json.loads(report.read_text())


def setup_only(trees: dict[str, Path], workload: str, seed: int) -> dict:
    """SETUP_SAMPLES set-up-only processes per tree, alternating like the
    pairs of runs; each side's samples in seconds and their median."""
    samples: dict[str, list[float]] = {side: [] for side in SIDES}
    for k in range(SETUP_SAMPLES):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            out = _perfbench(trees[side], workload, seed, "--setup-only")
            samples[side].append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return {side: {"samples": samples[side], "median": statistics.median(samples[side])}
            for side in SIDES}


def per_layer(trees: dict[str, Path], workload: str, seed: int) -> dict:
    """TRACED_RUNS traced runs per tree, alternating like the pairs of
    runs; per side, each per-layer metric's median over its runs, once
    every metric in unit count is found to read the same in all of them."""
    values: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    for k in range(TRACED_RUNS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            traced = run_once(trees[side], workload, seed, 1)["metrics"]
            for name, m in traced.items():
                values[side].setdefault(name, []).append(m["value"])
    counts = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"}
    for side in SIDES:
        for name, vals in values[side].items():
            if name in counts and len(set(vals)) > 1:
                raise SystemExit(f"error: the traced runs of {workload} seed {seed} in the "
                                 f"{side} tree count {name} differently: {vals}")
    return {side: {name: statistics.median(vals) for name, vals in values[side].items()}
            for side in SIDES}


def quartiles(vals: list[float]) -> list[float]:
    """First and third quartile, "inclusive" method; a single run is its own quartiles."""
    if len(vals) == 1:
        return [vals[0], vals[0]]
    return statistics.quantiles(vals, n=4, method="inclusive")[::2]


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change did better; ties count for neither side."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Read one metric's paired runs, the first rule that holds deciding.

    gain: the change won at least 9 in 10 of the pairs, and the medians
    differ in its favour by more than the parent's interquartile distance.
    worse: the change's median is worse than the parent's by more than
    bound, a fraction of the parent's median.
    unresolved: the parent's interquartile distance is wider than bound (as
    that fraction), and not every change run is better than every parent run.
    unchanged: none of these.
    """
    sign = -1 if better == "lower" else 1  # sign * (c - p) > 0: c is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if wins(parent, change, better) >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    return "unchanged"


def counter_diff(parent: dict, change: dict) -> dict:
    """The per-layer count metrics whose traced values differ, with both
    values (None on the side that lacks the metric)."""
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    return {name: {"parent": parent.get(name), "change": change.get(name)}
            for name in counts if parent.get(name) != change.get(name)}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    values = {name: [r["metrics"][name]["value"] for r in runs] for name in names}
    return {
        "runs": [{name: vals[k] for name, vals in values.items()} for k in range(len(runs))],
        "median": {name: statistics.median(vals) for name, vals in values.items()},
        "quartiles": {name: quartiles(vals) for name, vals in values.items()},
        "counters_sha256": sorted({r["summary"]["counters_sha256"] for r in runs}),
        "passes": [r["summary"]["passes"] for r in runs],
        "failures": sorted({f for r in runs for f in r["summary"]["failures"]}),
        "provenance": runs[-1]["summary"]["provenance"],
    }


def record(trees: dict[str, Path], workload: str, seed: int, pairs: int) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(trees[side], workload, seed, 0))
            print(f"{workload} seed {seed} pair {k + 1}/{pairs} {side}: ops_per_s "
                  f"{runs[side][-1]['metrics']['ops_per_s']['value']:.3f}", file=sys.stderr)
    out = {"seed": seed, "pairs": pairs, "seconds": BENCHMARK["run_seconds"],
           "order": "pair k runs the parent first when k is even, the change first when odd"}
    for side, layers in per_layer(trees, workload, seed).items():
        out[side] = {**summarize(runs[side]), "per_layer": layers}
    out["setup_only"] = setup_only(trees, workload, seed)
    out["wins"], out["verdict"] = {}, {}
    for m in BENCHMARK["end_to_end"]:
        name = m["name"]
        parent, change = ([r[name] for r in out[side]["runs"]] for side in SIDES)
        out["wins"][name] = wins(parent, change, m["better"])
        out["verdict"][name] = verdict(parent, change, m["better"], m["bound"])
    out["counter_diff"] = counter_diff(out["parent"]["per_layer"], out["change"]["per_layer"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent tree")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed tree")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, action="append",
                        help=f"alternating pairs of runs (default {DEFAULT_PAIRS})")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.pairs = args.pairs or [DEFAULT_PAIRS]
    if min(args.pairs) < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {"benchmark": BENCHMARK["command"], "workloads": {}}
    for k, workload in enumerate(args.workload):
        seed = args.seed[min(k, len(args.seed) - 1)]
        pairs = args.pairs[min(k, len(args.pairs) - 1)]
        result["workloads"][workload] = record(trees, workload, seed, pairs)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
