"""Golden `decide --json --witnesses` reports, one per branch of the pipeline.

Each case in golden_decide.json holds the argv, the exit code and the JSON
report minus `timing`, as printed by the CLI.  The comparison is on the
canonical JSON text, so a change to any witness key, error code or exit
code shows up here.
"""

import io
import json
from pathlib import Path

import pytest

from orbitlang.cli import run

CASES = json.loads((Path(__file__).parent / "golden_decide.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_decide_report_matches_golden(case):
    stream = io.StringIO()
    code = run(case["argv"], stream=stream)
    report = json.loads(stream.getvalue())
    report.pop("timing")
    assert code == case["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(case["report"], sort_keys=True)
