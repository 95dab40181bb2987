import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitlang.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def invoke(argv, stdin_text=None, env=None, monkeypatch=None):
    stream = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = run(argv, stream=stream)
    return code, stream.getvalue()


def jsonline(text):
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_decide_json_exit_zero(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", "x-y", "--nmax", "100"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    report = jsonline(out)
    assert report["schema"] == 1
    assert report["result"]["type"] == "IntersectionDescription"
    assert report["result"]["exceptional"] == []


def test_decide_invariant_graph_reports_progression(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", "y - x^2 - 1", "--nmax", "80"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    report = jsonline(out)
    progs = report["result"]["progressions"]
    assert progs and progs[0]["modulus"] == 1 and progs[0]["start"] == 0


def test_decide_power_map_exit_two(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2", "--point", "2", "--variety", "x1 - 2"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_USAGE
    report = jsonline(out)
    assert report["result"]["code"] == "power-map-case"


def test_find_prime_certificate(monkeypatch):
    code, out = invoke(
        ["--json", "find-prime", "--map", "t^2+1", "--points", "0", "--pmax", "100"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    report = jsonline(out)
    assert report["result"]["prime"] == 3


def test_find_prime_not_found_exit_one(monkeypatch):
    code, out = invoke(
        ["--json", "find-prime", "--map", "t^2+2", "--points", "0", "--pmax", "2"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_INCONCLUSIVE
    assert jsonline(out)["result"]["type"] == "NotFound"


def test_strassmann_command(monkeypatch):
    code, out = invoke(
        ["--json", "strassmann", "--prime", "5", "--coeffs", "0,-1,1"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert jsonline(out)["result"]["zeros_in_unit_disk"] == 2


def test_orbit_and_reduce_text_mode(monkeypatch):
    code, out = invoke(["orbit", "--map", "t^2+1", "--point", "0", "--steps", "4"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "26" in out
    code2, out2 = invoke(["reduce", "--map", "t^2-1", "--prime", "3", "--point", "0"], monkeypatch=monkeypatch)
    assert code2 == EXIT_OK
    assert "good_reduction = True" in out2


def test_classify_command(monkeypatch):
    code, out = invoke(["--json", "classify", "--map", "2*t^2+4*t"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    report = jsonline(out)
    assert report["result"]["power_or_chebyshev"]["type"] == "ChebyshevConjugate"


def test_divisors_command(monkeypatch):
    code, out = invoke(["--json", "divisors", "--map", "t^2+1", "--level", "3"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    report = jsonline(out)
    assert report["result"]["ramification_bound"] == 2
    assert all(level["squarefree"] for level in report["result"]["levels"])


def test_ms_curves_command(monkeypatch):
    code, out = invoke(["--json", "ms-curves", "--map", "t^3+t", "--rmax", "1", "--kmax", "4"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    rows = jsonline(out)["result"]["candidates"]
    assert rows and all(row["verification"]["type"] == "PeriodicWithPeriod" for row in rows)


def test_stdin_variety_batch(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2+1", "--point", "0", "--nmax", "50"],
        stdin_text="x1 - 5\n",
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert jsonline(out)["result"]["exceptional"] == [3]


def test_env_precision_default(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-5", "--nmax", "50"],
        env={"ORBITLANG_PRECISION": "32"},
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert jsonline(out)["parameters"]["precision"] == 32


def test_json_determinism_modulo_timing(monkeypatch):
    argv = ["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", "x-y", "--nmax", "60"]
    _, out1 = invoke(argv, monkeypatch=monkeypatch)
    _, out2 = invoke(argv, monkeypatch=monkeypatch)
    a, b = jsonline(out1), jsonline(out2)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_usage_error_exit_two(monkeypatch):
    code, _ = invoke(["decide", "--point", "0"], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE


def test_syntax_error_exit_two(monkeypatch):
    code, out = invoke(
        ["--json", "decide", "--map", "t^2 - 1/0", "--point", "0", "--variety", "x1"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_USAGE
    assert "division by zero" in jsonline(out)["result"]["message"]


@pytest.mark.parametrize("mapping, point", [("t^3+1", "0"), ("(t^2+1)/t", "1")])
def test_find_prime_non_quadratic_map_exit_two(monkeypatch, mapping, point):
    code, out = invoke(["--json", "find-prime", "--map", mapping, "--points", point], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "hypothesis-violated"


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--maps", "t^2+1;t^2+2", "--point", "0", "--variety", "x1"],
        ["find-prime", "--maps", "t^2+1;t^2+2", "--points", "0"],
    ],
)
def test_map_point_count_mismatch_exit_two(monkeypatch, argv):
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "syntax-error"


def test_find_prime_multi_mode_uses_one_map_for_every_point(monkeypatch):
    code, out = invoke(
        ["--json", "find-prime", "--map", "t^2+1", "--points", "0,1", "--mode", "multi"], monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    result = jsonline(out)["result"]
    assert result["kind"] == "multi-quadratic"
    assert sorted(result["witnesses"]["residue_orbits"]) == ["0", "1"]


@pytest.mark.parametrize("option", [["--nmax", "-5"], ["--order", "0"], ["--precision", "0"]])
def test_decide_out_of_range_option_exit_two(monkeypatch, option):
    # f^4(0) = 26 under t^2+1: these used to print an empty Certified answer
    argv = ["--json", "decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-26", *option]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "invalid-option"


def test_strassmann_zero_precision_exit_two(monkeypatch):
    argv = ["--json", "strassmann", "--prime", "5", "--coeffs", "1,2", "--precision", "0"]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "invalid-option"


def run_cli_process(argv, timeout, prelude="", python_flags=()):
    """Run the CLI in a fresh interpreter, after an optional line of setup code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    script = f"{prelude}\nfrom orbitlang.cli import main\nmain()"
    return subprocess.run(
        [sys.executable, *python_flags, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_divisors_conjugate_critical_points_within_budget():
    # the critical points +-sqrt(-2) of t^3 + 6t leave the escape disk at f^2
    proc = run_cli_process(["--json", "divisors", "--map", "t^3+6*t", "--level", "1"], timeout=5)
    assert proc.returncode == EXIT_OK
    assert jsonline(proc.stdout)["result"]["ramification_bound"] == 4


def test_curve_pair_conjugate_critical_points_within_budget():
    argv = ["--json", "decide", "--mode", "curve-pair", "--map", "t^3+6*t", "--point", "1,2", "--variety", "x-y"]
    proc = run_cli_process(argv + ["--nmax", "20"], timeout=5)
    assert proc.returncode == EXIT_OK
    assert jsonline(proc.stdout)["result"]["certification"]["type"] == "Certified"


def test_divisors_level_six_within_budget():
    # the level-6 chain check of t^3+t multiplies 244 x 15,371 term pairs
    proc = run_cli_process(["--json", "divisors", "--map", "t^3+t", "--level", "6"], timeout=20)
    assert proc.returncode == EXIT_OK
    levels = jsonline(proc.stdout)["result"]["levels"]
    assert [(lv["level"], lv["degree_x"], lv["squarefree"]) for lv in levels] == [(n, 3**n, True) for n in range(7)]


def test_failed_self_check_is_an_error_under_optimize():
    # a Mahler series that misses its samples must be caught even with asserts stripped
    prelude = "from orbitlang import analytic; analytic.MahlerSeries.evaluate_residue = lambda self, n: -1"
    argv = ["--json", "decide", "--map", "t^2-1", "--point", "1/2,-3/4", "--variety", "y-(x^2-1)", "--nmax", "20"]
    proc = run_cli_process(argv, timeout=30, prelude=prelude, python_flags=("-O",))
    assert proc.returncode == EXIT_USAGE
    assert jsonline(proc.stdout)["result"]["code"] == "verification-failed"


def test_module_entry_point_runs_the_command(monkeypatch):
    argv = ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitlang.cli", *argv], capture_output=True, text=True, timeout=30, env=env
    )
    code, out = invoke(argv, monkeypatch=monkeypatch)

    def without_timing(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed:")]

    assert proc.returncode == code
    assert without_timing(proc.stdout) == without_timing(out) != []


def test_precision_is_rejected_where_unread(monkeypatch):
    code, _ = invoke(["--json", "divisors", "--map", "t^2+1", "--level", "2", "--precision", "5"], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--map", "t^2+1", "--point", "0", "--steps", "-3"],
        ["divisors", "--map", "t^2+1", "--level", "-1"],
        ["ms-curves", "--map", "t^2+1", "--rmax", "-1"],
        ["ms-curves", "--map", "t^2+1", "--kmax", "-1"],
    ],
)
def test_negative_limit_exit_two(monkeypatch, argv):
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "invalid-option"


def test_orbit_stops_past_the_exact_cap():
    # heights double under t^2+1: f^30(0) would take 2^29 bits
    proc = run_cli_process(["--json", "orbit", "--map", "t^2+1", "--point", "0", "--steps", "30"], timeout=20)
    assert proc.returncode == EXIT_INCONCLUSIVE
    result = jsonline(proc.stdout)["result"]
    assert [v["n"] for v in result["orbit"]] == list(range(18))
    assert result["stopped_at"] == 18


def test_curve_pair_scans_a_rational_map(monkeypatch):
    argv = ["--json", "decide", "--mode", "curve-pair", "--map", "(t^2+4)/t", "--point", "2,3", "--variety", "x-y"]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    result = jsonline(out)["result"]
    assert result["progressions"] == [] and result["exceptional"] == []


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_bad_env_precision_exits_two(value):
    # the default used to be read while building the parser, where a bad
    # value was silently replaced by 64
    argv = ["--json", "decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-5", "--nmax", "20"]
    prelude = f"import os; os.environ['ORBITLANG_PRECISION'] = {value!r}"
    proc = run_cli_process(argv, timeout=30, prelude=prelude)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert jsonline(proc.stdout)["result"]["code"] == "invalid-option"
