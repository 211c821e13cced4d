"""The line tools/same_reports.py prints for one operation, on a stub CLI."""

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import same_reports  # noqa: E402

OP = types.SimpleNamespace(argv=("inject", "--map", "m.map"))


def _cli(code, out=""):
    def main(argv):
        print(out, end="")
        return code
    return types.SimpleNamespace(main=main)


def test_operation_without_a_report_gives_a_line():
    assert same_reports.line(_cli(4), "inject", 7, 3, OP) == "inject 7 3 4 no report"


def test_report_lines_digest_results_and_the_rest_without_timings():
    report = {"command": "inject", "results": {"verdict": "inconclusive"}, "timings": {"s": 1}}
    got = same_reports.line(_cli(2, json.dumps(report)), "inject", 7, 3, OP).split()
    assert got[:4] == ["inject", "7", "3", "2"]
    assert got[4] == same_reports._digest({"verdict": "inconclusive"})
    assert got[5] == same_reports._digest({"command": "inject"})
