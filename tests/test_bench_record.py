"""The verdict rule, the counter diff and the set-up sampling of
tools/bench_record.py, on synthetic runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402
from bench_record import counter_diff, verdict, wins  # noqa: E402

PARENT = [5.0, 5.1, 4.9, 5.0, 5.2, 4.8, 5.0, 5.1, 4.9, 5.0]


def test_wins_ignore_ties_and_follow_direction():
    assert wins([1, 2, 3], [2, 2, 2], "higher") == 1
    assert wins([1, 2, 3], [2, 2, 2], "lower") == 1


@pytest.mark.parametrize("parent, change, better, expected", [
    # every pair won, medians far apart
    (PARENT, [x + 1.0 for x in PARENT], "higher", "gain"),
    ([1 / x for x in PARENT], [1 / (x + 1.0) for x in PARENT], "lower", "gain"),
    # 9 of 10 pairs won is enough, 8 of 10 is not
    (PARENT, [x + 1.0 for x in PARENT[:9]] + [PARENT[9] - 0.1], "higher", "gain"),
    (PARENT, [x + 1.0 for x in PARENT[:8]] + [x - 0.1 for x in PARENT[8:]], "higher",
     "unchanged"),
    # every pair won, but the medians differ by less than the parent's spread
    (PARENT, [x + 0.01 for x in PARENT], "higher", "unchanged"),
    # the change's median worse than the parent's by more than the bound
    (PARENT, [x * 0.7 for x in PARENT], "higher", "worse"),
    ([1.0] * 10, [1.3] * 10, "lower", "worse"),
    # from a parent median of 0, any worse median is worse by more than the bound
    ([0.0] * 10, [0.0] * 9 + [0.1], "lower", "unchanged"),
    ([0.0] * 10, [0.1] * 10, "lower", "worse"),
    # identical runs, and a change worse but within the bound
    (PARENT, PARENT, "higher", "unchanged"),
    (PARENT, [x * 0.9 for x in PARENT], "higher", "unchanged"),
    # the parent's interquartile distance (4) wider than the bound (0.25 * 3)
    ([1.0] * 5 + [5.0] * 5, [2.9] * 10, "higher", "unresolved"),
    ([1.0] * 5 + [5.0] * 5, [3.2] * 10, "higher", "unresolved"),
    # ... unless every change run is better than every parent run
    ([1.0] * 5 + [5.0] * 5, [5.5] * 10, "higher", "unchanged"),
    # a single pair is its own quartiles
    ([5.0], [6.0], "higher", "gain"),
    ([5.0], [3.0], "higher", "worse"),
])
def test_verdict(parent, change, better, expected):
    assert verdict(parent, change, better, 0.25) == expected


def test_counter_diff_lists_moved_counts_only():
    parent = {"polycore.eval_interval_batch.calls": 48374.0,
              "polycore.eval_interval_batch.rows": 806801.0,
              "fibersolve.certified_min_sum_squares.boxes": 258048.0,
              "fibersolve.certified_min_sum_squares.s": 3.9}
    change = {**parent, "polycore.eval_interval_batch.calls": 9000.0,
              "fibersolve.certified_min_sum_squares.s": 1.2}
    # a moved time is not a count; unchanged counts are left out
    assert counter_diff(parent, change) == {
        "polycore.eval_interval_batch.calls": {"parent": 48374.0, "change": 9000.0}}
    assert counter_diff(parent, parent) == {}


def test_counter_diff_names_a_count_one_side_lacks():
    change = {"fibersolve.solve_fiber.boxes": 23151.0}
    assert counter_diff({}, change) == {
        "fibersolve.solve_fiber.boxes": {"parent": None, "change": 23151.0}}
    # names outside BENCHMARK.json's per-layer list are ignored
    assert counter_diff({}, {"made.up.calls": 1.0}) == {}


@pytest.mark.parametrize("pairs, expected", [
    ((), {"fibers": 10, "inject": 10}),
    (("--pairs", "3"), {"fibers": 3, "inject": 3}),
    (("--pairs", "3", "--pairs", "12"), {"fibers": 3, "inject": 12}),
])
def test_pairs_default_to_ten(tmp_path, monkeypatch, pairs, expected):
    got = {}
    monkeypatch.setattr(bench_record, "record",
                        lambda trees, workload, seed, n: got.setdefault(workload, n))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seed", "7",
            "--workload", "fibers", "--workload", "inject", "--out", str(tmp_path / "b.json")]
    assert bench_record.main(argv + list(pairs)) == 0
    assert got == expected


def test_pairs_below_one_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", ".", "--change", ".", "--seed", "7",
                           "--workload", "fibers", "--pairs", "0",
                           "--out", str(tmp_path / "b.json")])


def _fake_setups(calls, fail_in=None):
    """A subprocess.run stand-in that records (tree, argv) and answers each
    set-up-only process with setup_s = 0.1 in parent, 0.2 in change, plus
    0.001 per earlier call in that tree."""
    def run(cmd, cwd, capture_output, text):
        calls.append((Path(cwd).name, cmd))
        code = 1 if Path(cwd).name == fail_in else 0
        base = 0.1 if Path(cwd).name == "parent" else 0.2
        seen = sum(1 for tree, _ in calls if tree == Path(cwd).name) - 1
        stdout = "noise\n" + json.dumps({"setup_s": base + 0.001 * seen, "inputs_sha256": "x"})
        return subprocess.CompletedProcess(cmd, code, stdout=stdout, stderr="boom")
    return run


def test_setup_only_alternates_twenty_processes_per_tree(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_setups(calls))
    trees = {side: tmp_path / side for side in bench_record.SIDES}
    got = bench_record.setup_only(trees, "inject", 7)
    assert [tree for tree, _ in calls] == ["parent", "change", "change", "parent"] * 10
    for _, cmd in calls:
        assert cmd[1:] == ["perfbench/run.py", "--workload", "inject", "--seed", "7",
                           "--setup-only"]
    for side, base in (("parent", 0.1), ("change", 0.2)):
        assert got[side]["samples"] == pytest.approx([base + 0.001 * k for k in range(20)])
        assert got[side]["median"] == pytest.approx(base + 0.0095)


def test_setup_only_failure_names_the_process(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_setups([], fail_in="change"))
    trees = {side: tmp_path / side for side in bench_record.SIDES}
    with pytest.raises(SystemExit, match="--setup-only.* exited 1:\nboom"):
        bench_record.setup_only(trees, "inject", 7)


def test_record_writes_the_setup_samples(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_setups(calls))
    report = {"metrics": {m["name"]: {"value": 1.0} for m in bench_record.BENCHMARK["end_to_end"]},
              "summary": {"counters_sha256": "c", "passes": 3, "failures": [],
                          "provenance": {}}}
    monkeypatch.setattr(bench_record, "run_once", lambda tree, workload, seed, trace: report)
    trees = {side: tmp_path / side for side in bench_record.SIDES}
    out = bench_record.record(trees, "inject", 7, 2)
    assert len(calls) == 40
    assert out["setup_only"]["parent"]["median"] == pytest.approx(0.1095)
    assert out["setup_only"]["change"]["median"] == pytest.approx(0.2095)


def _fake_traced(calls, boxes=lambda tree, k: 100.0):
    """A subprocess.run stand-in for traced runs: records (tree, argv) and
    writes the tree's report-trace1.json, in which the k-th run of a tree
    reads fibersolve.solve_fiber.s = 1, 3 and 2 for k = 0, 1, 2 (10 more in
    change) and fibersolve.solve_fiber.boxes = boxes(tree, k)."""
    def run(cmd, cwd, capture_output, text):
        tree = Path(cwd).name
        calls.append((tree, cmd))
        k = sum(1 for seen, _ in calls if seen == tree) - 1
        seconds = (1.0, 3.0, 2.0)[k] + (10.0 if tree == "change" else 0.0)
        metrics = {"fibersolve.solve_fiber.s": {"value": seconds, "unit": "s"},
                   "fibersolve.solve_fiber.boxes": {"value": boxes(tree, k), "unit": "count"}}
        workdir = Path(cwd) / ".bench_build" / "perfbench" / "inject-7"
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "report-trace1.json").write_text(json.dumps({"metrics": metrics}))
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")
    return run


def test_per_layer_takes_the_median_of_three_alternating_traced_runs(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", _fake_traced(calls))
    trees = {side: tmp_path / side for side in bench_record.SIDES}
    got = bench_record.per_layer(trees, "inject", 7)
    assert [tree for tree, _ in calls] == ["parent", "change", "change", "parent",
                                           "parent", "change"]
    for _, cmd in calls:
        assert cmd[1:4] == ["perfbench/run.py", "--workload", "inject"]
        assert cmd[-2:] == ["--trace", "1"]
    assert got == {
        "parent": {"fibersolve.solve_fiber.s": 2.0, "fibersolve.solve_fiber.boxes": 100.0},
        "change": {"fibersolve.solve_fiber.s": 12.0, "fibersolve.solve_fiber.boxes": 100.0}}


def test_per_layer_refuses_a_count_that_moves_between_runs(tmp_path, monkeypatch):
    # a count is fixed by the code and the seed, so runs that differ in
    # one did not run the same work
    moved = _fake_traced([], boxes=lambda tree, k: 100.0 + (tree == "change" and k == 2))
    monkeypatch.setattr(bench_record.subprocess, "run", moved)
    trees = {side: tmp_path / side for side in bench_record.SIDES}
    with pytest.raises(SystemExit, match=r"change tree count fibersolve.solve_fiber.boxes "
                                         r"differently: \[100.0, 100.0, 101.0\]"):
        bench_record.per_layer(trees, "inject", 7)
