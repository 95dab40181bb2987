"""Golden `divisors --json` reports for polynomial and rational maps.

Each case in golden_divisors.json holds the argv, the exit code and the
JSON report minus `timing`, as printed by the CLI: monic, non-monic and
non-integral polynomial maps, and three rational maps.  The comparison is
on the canonical JSON text, so any change to a layer, a degree, a
squarefree flag or the ramification bound shows up here.
"""

import io
import json
from pathlib import Path

import pytest

from orbitlang.cli import run

CASES = json.loads((Path(__file__).parent / "golden_divisors.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_divisors_report_matches_golden(case):
    stream = io.StringIO()
    code = run(case["argv"], stream=stream)
    report = json.loads(stream.getvalue())
    report.pop("timing")
    assert code == case["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(case["report"], sort_keys=True)
