"""Golden `find-prime --json` reports for every certificate kind.

Each case in golden_find_prime.json holds the argv, the exit code and the
JSON report minus `timing`, as printed by the CLI: the quadratic, QR and
multi-map certificates in `auto` and explicit modes, points and shifts with
denominators, `NotFound` and the search errors.  The comparison is on the
canonical JSON text, so a changed prime, witness, checklist entry, error
code or exit code shows up here.
"""

import io
import json
from pathlib import Path

import pytest

from orbitlang.cli import run

CASES = json.loads((Path(__file__).parent / "golden_find_prime.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_find_prime_report_matches_golden(case):
    stream = io.StringIO()
    code = run(case["argv"], stream=stream)
    report = json.loads(stream.getvalue())
    report.pop("timing")
    assert code == case["exit"]
    assert json.dumps(report, sort_keys=True) == json.dumps(case["report"], sort_keys=True)
