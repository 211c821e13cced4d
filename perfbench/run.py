"""End-to-end benchmark of the degreelab CLI, with an optional traced run.

    python3 perfbench/run.py --workload fibers --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports degreelab from
``src/`` and drives ``degreelab.cli.main(argv)`` in this one process:
a closed loop with one client and one operation in flight.  The seed
determines the map files and argument lists (see workloads.py); every
report is checked against the exactly known truth (see oracle.py).

A run repeats whole passes over the operation list, at least two, and
starts another only if it should end within ``--seconds``.
Each pass must reproduce the work counters of the first one exactly.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` half the time goes to
untraced passes and one more pass runs traced, and the JSON object holds
the per-layer metrics instead (see tracer.py).  Exit status 0 means
every report agreed with the truth and the run was deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

# Every operation runs under this deadline; one that overruns counts as
# failed.  It sits well above the slowest operation that succeeds.
DEADLINE_S = 6.0
MIN_PASSES = 2
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("fail_frac", "fraction"), ("peak_rss_mb", "MB"))

# (name, unit); names are "<module>.<function>.<quantity>"
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.load_mapfile.s", "s"),
    ("polycore.parse_poly.s", "s"),
    ("polycore.eval.calls", "count"), ("polycore.eval.s", "s"),
    ("polycore.eval_array.calls", "count"), ("polycore.eval_array.points", "count"),
    ("polycore.eval_array.s", "s"),
    ("polycore.eval_interval.calls", "count"), ("polycore.eval_interval.s", "s"),
    ("polycore.eval_interval_batch.calls", "count"),
    ("polycore.eval_interval_batch.rows", "count"), ("polycore.eval_interval_batch.s", "s"),
    ("mapforms.jacobian_det.s", "s"), ("mapforms.jacobian_matrix.s", "s"),
    ("mapforms.keller_check.s", "s"), ("mapforms.recognize_form.s", "s"),
    ("fibersolve.solve_fiber.calls", "count"), ("fibersolve.solve_fiber.s", "s"),
    ("fibersolve.solve_fiber.self_s", "s"), ("fibersolve.solve_fiber.boxes", "count"),
    ("fibersolve.solve_fiber.roots", "count"), ("fibersolve.solve_fiber.incomplete", "count"),
    ("fibersolve.solve_fiber.roots_per_kbox", "1/kbox"),
    ("fibersolve.certified_min_sum_squares.calls", "count"),
    ("fibersolve.certified_min_sum_squares.s", "s"),
    ("fibersolve.certified_min_sum_squares.self_s", "s"),
    ("fibersolve.certified_min_sum_squares.boxes", "count"),
    ("fibersolve.certified_min_sum_squares.failed", "count"),
    ("fibersolve.boundary_clearance.calls", "count"), ("fibersolve.boundary_clearance.s", "s"),
    ("fibersolve.boundary_clearance.failed", "count"),
    ("degree.path_segment_clearance.calls", "count"), ("degree.path_segment_clearance.s", "s"),
    ("degree.path_segment_clearance.failed", "count"),
    ("degree.degree_integral.calls", "count"), ("degree.degree_integral.s", "s"),
    ("degree.degree_integral.samples", "count"), ("degree.degree_integral.disagree", "count"),
    ("degree.degree_signed_count.s", "s"), ("degree.homotopy_constancy_check.s", "s"),
    ("injectlab.collision_search.calls", "count"), ("injectlab.collision_search.s", "s"),
    ("injectlab.collision_search.self_s", "s"), ("injectlab.collision_search.found", "count"),
    ("injectlab.jacobian_sign_survey.calls", "count"),
    ("injectlab.jacobian_sign_survey.s", "s"),
    ("injectlab.jacobian_sign_survey.boxes", "count"),
    ("injectlab.jacobian_sign_survey.partial", "count"),
    ("injectlab.injectivity_pipeline.calls", "count"),
    ("injectlab.injectivity_pipeline.s", "s"),
    ("injectlab.injectivity_pipeline.self_s", "s"),
    ("injectlab.injectivity_pipeline.solves", "count"),
    ("trace.ops_per_s_delta", "1/s"),
)


class Deadline(BaseException):
    """Raised inside an operation that overran DEADLINE_S.

    A BaseException, so that no ``except Exception`` in the code under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def _workdir(workload: str, seed: int) -> Path:
    return Path(".bench_build") / "perfbench" / f"{workload}-{seed}"


def setup(workload: str, seed: int):
    """Import the CLI, then generate and write the inputs; returns (ops, digest, seconds)."""
    started = time.perf_counter()
    try:
        import degreelab.cli  # noqa: F401  (the import is part of what is timed)
    except ModuleNotFoundError as exc:
        raise SystemExit(f"error: cannot import degreelab from {ROOT / 'src'}: {exc}") from None
    ops, digest = workloads.build(workload, seed, Path("."), _workdir(workload, seed))
    return ops, digest, time.perf_counter() - started


def _setup_in_child(workload: str, seed: int) -> dict:
    """Time a set-up in a fresh interpreter, so the imports are paid again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
         "--seed", str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_op(cli, op):
    """One operation under the deadline: (latency, exit code or None, report or None, error)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    error = None
    code = report = None
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = cli.main(list(op.argv))
    except Deadline:
        error = f"timed out after {DEADLINE_S}s"
    except Exception as exc:  # the benchmark keeps going and counts the failure
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - started
    if code is not None:
        report = json.loads(sink_out.getvalue())
    return latency, code, report, error


class Pass:
    """Outcome of one pass over the operation list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str | None] = []
        self.counters: list = []
        self.wall = 0.0


def run_pass(cli, ops, tracer=None) -> Pass:
    result = Pass()
    started = time.perf_counter()
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = idx
            tracer.truth_degree = getattr(op.truth, "degree", None) if op.command == "degree" else None
        latency, code, report, error = run_op(cli, op)
        if error is None:
            try:
                failure = oracle.check(op, code, report)
            except oracle.Contradiction as exc:
                raise oracle.Contradiction(f"operation {idx} {' '.join(op.argv)}: {exc}") from None
            result.counters.append(oracle.counters(op, code, report))
        else:
            failure = error
            result.counters.append(None)  # no report to compare
        result.latencies.append(latency)
        result.failures.append(failure)
    result.wall = time.perf_counter() - started
    return result


def _same_counters(first: Pass, other: Pass) -> list[int]:
    """Indices of operations whose counters differ (timed-out ones are skipped)."""
    return [k for k, (a, b) in enumerate(zip(first.counters, other.counters))
            if a is not None and b is not None and a != b]


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten operations beyond it in
    the guaranteed minimum of passes; fixed per workload, so it does not
    move when a faster program fits more passes into a run."""
    n = ops_per_pass * MIN_PASSES
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta weights centred on
    rank p/100 * n.  Where operations of quite different cost meet near
    that rank, the plain order statistic jumps from one operation to the
    other with noise; this estimate moves smoothly and averages the
    samples around the rank, so it repeats much better between runs.
    """
    import numpy as np
    from scipy.special import betainc
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    q = p / 100.0
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def provenance(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "degreelab").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": _commit(), "source_sha256": src.hexdigest(), "seed": seed}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fail(message: str, attempted: int, failed: int) -> int:
    print(f"BENCHMARK FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {}}))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON (used internally)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    ops, digest, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "inputs_sha256": digest}))
        return 0
    setups = [own_setup]
    for _ in range(SETUP_REPEATS - 1):
        child = _setup_in_child(args.workload, args.seed)
        if child["inputs_sha256"] != digest:
            return _fail("the same seed produced different inputs in another process", 1, 0)
        setups.append(child["setup_s"])

    from degreelab import cli
    signal.signal(signal.SIGALRM, _on_alarm)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes: list[Pass] = []
    started = time.perf_counter()
    try:
        # another pass only if it should end within the budget
        while len(passes) < (1 if args.trace else MIN_PASSES) or (
                time.perf_counter() - started + passes[-1].wall <= budget):
            passes.append(run_pass(cli, ops))
        traced = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
    except oracle.Contradiction as exc:
        done = sum(len(p.latencies) for p in passes)
        return _fail(f"soundness: {exc}", done, 0)

    for other in passes[1:] + ([traced] if traced else []):
        diff = _same_counters(passes[0], other)
        if diff:
            k = diff[0]
            return _fail(f"non-deterministic counters for operation {k} "
                         f"({' '.join(ops[k].argv)}): {passes[0].counters[k]} vs "
                         f"{other.counters[k]}", len(ops), 0)

    latencies = [x for p in passes for x in p.latencies]
    failures = [f for p in passes for f in p.failures]
    attempted, failed = len(latencies), sum(f is not None for f in failures)
    wall = sum(p.wall for p in passes)
    ops_per_s = attempted / wall
    tail_p = tail_percentile(len(ops))
    counters_digest = hashlib.sha256(json.dumps(passes[0].counters).encode()).hexdigest()

    summary = {
        "workload": args.workload, "provenance": provenance(args.seed),
        "inputs_sha256": digest, "counters_sha256": counters_digest,
        "ops_per_pass": len(ops), "passes": len(passes), "samples": attempted,
        "pass_walls_s": [p.wall for p in passes],
        "tail_percentile": tail_p, "deadline_s": DEADLINE_S, "setup_samples_s": setups,
        "failures": sorted({f"{ops[k % len(ops)].command}: {f}"
                            for k, f in enumerate(failures) if f is not None}),
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_s": percentile(latencies, 50.0),
            "op_tail_s": percentile(latencies, tail_p),
            "fail_frac": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result = {name: _metric(metrics[name], unit) for name, unit in END_TO_END}
    else:
        timed_out = {k for k, c in enumerate(traced.counters) if c is None}
        agg = tracer.aggregate(skip_ops=timed_out)
        kbox = agg.get("fibersolve.solve_fiber.boxes", 0) / 1000.0
        agg["fibersolve.solve_fiber.roots_per_kbox"] = (
            agg.get("fibersolve.solve_fiber.roots", 0) / kbox if kbox else 0.0)
        agg["trace.ops_per_s_delta"] = ops_per_s - len(traced.latencies) / traced.wall
        result = {name: _metric(float(agg.get(name, 0.0)), unit) for name, unit in PER_LAYER}
        workdir = _workdir(args.workload, args.seed)
        tracer.write(workdir / "spans.tsv")
        summary["spans"] = len(tracer)
        summary["traced_ops_left_out"] = [" ".join(ops[k].argv) for k in sorted(timed_out)]
        summary["spans_file"] = str(workdir / "spans.tsv")
        summary["traced_ops_per_s"] = len(traced.latencies) / traced.wall
        summary["untraced_ops_per_s"] = ops_per_s
    per_op = [{"argv": " ".join(op.argv),
               "latency_s": statistics.median(p.latencies[k] for p in passes),
               "failure": passes[0].failures[k]} for k, op in enumerate(ops)]
    (_workdir(args.workload, args.seed) / f"report-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "metrics": result, "operations": per_op}, indent=2))

    print(json.dumps(summary, indent=2))
    print(f"tail percentile p{tail_p:g} over {attempted} operations "
          f"({len(passes)} passes of {len(ops)})")
    for name, item in result.items():
        print(f"{name:48s} {item['value']:.6g} {item['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
