"""Golden `decide --json --witnesses` reports of the benchmark's decide-scan operations.

golden_scan.json holds the argv, the exit code and the JSON report minus
`timing` of the 28 operations of `bench/workloads.decide_scan(303)`, so the
scanner's answers to N = 1000 stay byte-identical.  The comparison is on
the canonical JSON text.
"""

import io
import json
from pathlib import Path

import pytest

from orbitlang.cli import run

CASES = json.loads((Path(__file__).parent / "golden_scan.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_scan_report_matches_golden(case):
    stream = io.StringIO()
    code = run(case["argv"], stream=stream)
    report = json.loads(stream.getvalue())
    report.pop("timing")
    assert code == case["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(case["report"], sort_keys=True)
