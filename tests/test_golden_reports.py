"""Golden CLI reports: one small fixture run per command, plus one --out md.

Each file under tests/golden/ is the exact stdout of one run, with the
timings dropped (they are the only part that varies between identical
runs).  The runs start in the repository root and name their map as
fixtures/<file>, so the path the report echoes is the same everywhere.

A change that moves any byte of a report fails here.  When a report is
meant to change, rewrite the goldens and review the diff:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from degreelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "analyze.json": ["analyze", "--map", "fixtures/squares.map", "--box=-2:2,-2:2",
                     "--samples", "64", "--max-boxes", "64"],
    "degree.json": ["degree", "--map", "fixtures/triangular.map", "--box=-2:2,-2:2",
                    "--z", "1/2,1/4", "--method", "both"],
    "fibers.json": ["fibers", "--map", "fixtures/squares.map", "--box=-2:2,-2:2",
                    "--z", "1,1"],
    "inject.json": ["inject", "--map", "fixtures/triangular.map", "--z", "1,1",
                    "--z=-3/2,2"],
    "homotopy.json": ["homotopy", "--map", "fixtures/family_cubic.map", "--box=-2:2",
                      "--z", "1/2", "--t-grid", "0,1/2,1"],
    "collide.json": ["collide", "--map", "fixtures/even.map", "--box=-2:2,-2:2",
                     "--samples", "256"],
    "analyze.md": ["analyze", "--map", "fixtures/triangular.map", "--box=-2:2,-2:2",
                   "--samples", "64", "--max-boxes", "64", "--out", "md"],
}

# the timings block: last key of a JSON report, last section of a md one
_TIMINGS = re.compile(r'\n  "timings": \{\n    "seconds": [^\n]*\n  \},'
                      r'|\n## timings\n```json\n\{\n  "seconds": [^\n]*\n\}\n```\n$')


def _report(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(argv)
    stripped, found = _TIMINGS.subn("", out.getvalue())
    assert found == 1, "report has no timings block where expected"
    return stripped


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _report(RUNS[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS.items():
        (GOLDEN / name).write_text(_report(argv))
        print(f"wrote {GOLDEN / name}")
