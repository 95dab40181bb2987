import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitlang import cli
from orbitlang.analytic import DIFFERENCE_TABLE_BITS_CAP
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


@pytest.mark.parametrize(
    "prime, coeffs, flags, code, result",
    [
        ("5", "0,-1,1", [], EXIT_OK, 2),
        ("5", "1/5,1", [], EXIT_OK, 0),  # the maximum at a negative valuation
        ("3", "1/9,1/3,1", [], EXIT_OK, 0),
        ("5", "1/25,5", ["--precision", "1"], EXIT_OK, 0),
        ("5", "5,25", ["--precision", "1"], EXIT_USAGE, "zero-series"),  # both zero at precision
        ("5", "5,25", ["--precision", "2"], EXIT_OK, 0),
        ("5", "25", ["--precision", "2"], EXIT_USAGE, "zero-series"),
        ("5", "0,0", [], EXIT_USAGE, "zero-series"),
        ("3", "0", [], EXIT_USAGE, "zero-series"),
        ("5", "1,5", ["--tail=-1"], EXIT_USAGE, "insufficient-precision"),  # tail below the maximum
        ("5", "1,5", ["--tail", "0"], EXIT_USAGE, "insufficient-precision"),  # tail at the maximum
        ("5", "5,5", ["--tail", "1"], EXIT_USAGE, "insufficient-precision"),
        ("5", "1,5", ["--tail", "1"], EXIT_OK, 0),  # tail above the maximum
        ("5", "5,1", ["--tail", "1"], EXIT_OK, 1),
        ("5", "5,5", ["--tail", "2"], EXIT_OK, 1),
        ("3", "9,3,1/3", ["--tail", "0"], EXIT_OK, 2),
        ("2", "2,1", [], EXIT_OK, 1),
        ("2", "1/2,1", [], EXIT_OK, 0),
        ("2", "2,4,1", ["--precision", "1"], EXIT_OK, 2),
        ("2", "1,1,1", ["--tail", "1"], EXIT_OK, 2),
        ("3", "-3,0,1", [], EXIT_OK, 2),  # two disk zeros, none in Z_3
        ("7", "7,7,49", [], EXIT_OK, 1),
        ("11", "0,0,0,1", [], EXIT_OK, 3),
    ],
)
def test_strassmann_results(monkeypatch, prime, coeffs, flags, code, result):
    argv = ["--json", "strassmann", "--prime", prime, f"--coeffs={coeffs}", *flags]
    got_code, out = invoke(argv, monkeypatch=monkeypatch)
    report = jsonline(out)["result"]
    assert (got_code, report.get("zeros_in_unit_disk", report.get("code"))) == (code, result)


def test_strassmann_at_a_huge_precision_within_budget():
    # each coefficient used to be built as a unit mod p^M: at M = 10^8 that ran past 30 s
    argv = ["--json", "strassmann", "--prime", "5", "--coeffs", "1,2", "--precision", "100000000"]
    proc = run_cli_process(argv, timeout=5)
    assert proc.returncode == EXIT_OK
    assert jsonline(proc.stdout)["result"]["zeros_in_unit_disk"] == 1


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


def test_runs_share_one_parser():
    cli._parser.cache_clear()
    argv = ["--json", "orbit", "--map", "t^2+1", "--point", "0", "--steps", "3"]
    code, first = invoke(argv)
    assert code == EXIT_OK
    assert invoke(["decide", "--point", "0"])[0] == EXIT_USAGE
    code, second = invoke(argv)
    assert code == EXIT_OK
    assert cli._parser.cache_info().misses == 1
    a, b = jsonline(first), jsonline(second)
    a.pop("timing")
    b.pop("timing")
    assert a == b and a["inputs"]["steps"] == 3


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


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--map", "t^2-1", "--maps", "t^2+1", "--point", "1", "--variety", "x1"],
        ["find-prime", "--map", "t^2-1", "--maps", "t^2+1", "--points", "1"],
    ],
)
def test_map_and_maps_together_exit_two(monkeypatch, argv):
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


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--map", "t^2+1"],
        ["reduce", "--map", "t^2+1", "--prime", "5"],
        ["classify", "--map", "t^2+1"],
    ],
    ids=["orbit", "reduce", "classify"],
)
def test_multi_coordinate_point_exit_two(monkeypatch, argv):
    # reduce and classify used to answer for the first coordinate alone
    code, out = invoke(["--json", *argv, "--point", "1,2"], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    result = jsonline(out)["result"]
    assert result["code"] == "syntax-error"
    assert result["message"].startswith(f"{argv[0]} takes a single coordinate")


@pytest.mark.parametrize("option", [["--nmax", "-5"], ["--order", "0"], ["--precision", "0"], ["--pmax", "-5"]])
def test_decide_out_of_range_option_exit_two(monkeypatch, option):
    # f^4(0) = 26 under t^2+1: these used to print an empty Certified answer
    argv = ["--json", "decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-26", *option]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "invalid-option"


@pytest.mark.parametrize("pmax", ["-5", "1"])
def test_find_prime_pmax_below_two_exit_two(monkeypatch, pmax):
    argv = ["--json", "find-prime", "--map", "t^2+1", "--points", "0", "--pmax", pmax]
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
    # the level-6 chain check of t^3+t compares 244- and 15,371-term operands row by row
    proc = run_cli_process(["--json", "divisors", "--map", "t^3+t", "--level", "6"], timeout=20)
    assert proc.returncode == EXIT_OK
    levels = jsonline(proc.stdout)["result"]["levels"]
    assert [(lv["level"], lv["degree_x"], lv["squarefree"]) for lv in levels] == [(n, 3**n, True) for n in range(7)]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--map", "(t+1)^100000", "--point", "0", "--variety", "x1-1"],
        ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-2^100000000"],
        # exactly 65,536 bits, but 65,537 terms: the squarings ran past 20 s
        ["decide", "--map", "(t+1)^65536", "--point", "0", "--variety", "x1-1"],
        # one term, but a degree of 10^9: its coefficient list would take about 8 GB
        ["decide", "--map", "t^1000000000", "--point", "0", "--variety", "x1-1"],
    ],
    ids=["map", "variety", "map-terms", "map-degree"],
)
def test_a_power_past_the_exact_cap_exits_two_within_budget(argv):
    # the power was expanded before any size check: the map ran for hours
    proc = run_cli_process(["--json", *argv], timeout=5)
    assert proc.returncode == EXIT_USAGE
    assert jsonline(proc.stdout)["result"]["code"] == "syntax-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["find-prime", "--map", "t^2+1", "--points", "0"],
        ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-26"],
        # one wandering coordinate: curve-pair candidates are every odd prime
        ["decide", "--map", "t^3+t", "--point", "0,1", "--variety", "y-x^2-1", "--witnesses"],
    ],
    ids=["find-prime", "decide", "curve-pair"],
)
def test_a_large_pmax_costs_only_the_primes_tried(argv):
    # a sieve up to 10^8 took 5-7 s before the first candidate was tried
    stream = io.StringIO()
    code = run(["--json", *argv], stream=stream)
    proc = run_cli_process(["--json", *argv, "--pmax", "100000000"], timeout=5)
    assert (proc.returncode, jsonline(proc.stdout)["result"]) == (code, json.loads(stream.getvalue())["result"])
    assert code == EXIT_OK


def test_a_constant_base_is_sized_in_lowest_terms():
    # 6/9, 1/3 + 1/3 and -4/-6 are 2/3, and (2/3)^40000 passes the bit bound where 9^40000 would not
    values = set()
    for base in ("6/9", "2/3", "1/3+1/3", "(-4)/(-6)"):
        stream = io.StringIO()
        assert run(["--json", "orbit", "--map", "t^2", "--point", f"({base})^40000", "--steps", "0"], stream=stream) == EXIT_OK
        values.add(json.loads(stream.getvalue())["result"]["orbit"][0]["value"])
    assert values == {f"{2**40000}/{3**40000}"}


@pytest.mark.parametrize("b", [3, 6, 9, 12])
def test_divisors_of_a_cubic_with_a_monic_critical_factor_within_budget(b):
    # b = 3m makes the critical factor t^2 + m monic; t^3+6*t once ran for minutes
    proc = run_cli_process(["--json", "divisors", "--map", f"t^3+{b}*t", "--level", "5"], timeout=5)
    assert proc.returncode == EXIT_OK
    levels = jsonline(proc.stdout)["result"]["levels"]
    assert [(lv["level"], lv["degree_x"], lv["degree_y"]) for lv in levels] == [(n, 3**n, 3**n) for n in range(6)]


@pytest.mark.parametrize("level", ["7", "8"])
def test_divisors_level_above_the_cap_is_a_usage_error(level):
    # level 8 of t^3+t ran past 30 s before the command honoured the cap
    proc = run_cli_process(["--json", "divisors", "--map", "t^3+t", "--level", level], timeout=5)
    assert proc.returncode == EXIT_USAGE
    assert jsonline(proc.stdout)["result"]["code"] == "degree-cap-exceeded"


# the class of x1-26 is not structural, so it takes a Mahler series at prime 3
MAHLER_ARGV = ["--json", "decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-26", "--nmax", "10"]


def test_a_mahler_modulus_past_the_exact_cap_exits_two_within_budget():
    # 3^1000000 has 1.6 million bits: it is refused before any Mahler sample is taken
    proc = run_cli_process([*MAHLER_ARGV, "--precision", "1000000"], timeout=5)
    assert proc.returncode == EXIT_USAGE
    result = jsonline(proc.stdout)["result"]
    assert result["code"] == "invalid-option"
    assert "--precision" in result["message"] and "65536" in result["message"]


NO_MAHLER_ARGVS = [
    ["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", "x-y"],
    # a graph curve: structure proves its class, so no series is built for it
    ["--json", "decide", "--map", "t^2-1", "--point", "1/2,-3/4", "--variety", "y-(x^2-1)", "--nmax", "20"],
]


def _answers(argv, options, monkeypatch):
    """(progressions, exceptional, stamp type) of argv under each option pair."""
    answers = []
    for option in options:
        code, out = invoke([*argv, *option], monkeypatch=monkeypatch)
        assert code == EXIT_OK
        result = jsonline(out)["result"]
        answers.append((result["progressions"], result["exceptional"], result["certification"]["type"]))
    return answers


def test_an_answer_without_a_mahler_series_ignores_the_precision(monkeypatch):
    # these answers build no Mahler series, so the precision does not enter them
    for argv in NO_MAHLER_ARGVS:
        low, high = _answers(argv, [("--precision", "64"), ("--precision", "1000000")], monkeypatch)
        assert low == high


def test_an_order_past_the_difference_table_cap_exits_two_within_budget():
    # the difference table grows as the order squared, so it is bounded before the walk
    proc = run_cli_process([*MAHLER_ARGV, "--order", "100000"], timeout=5)
    assert proc.returncode == EXIT_USAGE
    result = jsonline(proc.stdout)["result"]
    assert result["code"] == "invalid-option"
    assert "--order" in result["message"] and str(DIFFERENCE_TABLE_BITS_CAP) in result["message"]


def test_an_answer_without_a_mahler_series_ignores_the_order(monkeypatch):
    for argv in NO_MAHLER_ARGVS:
        low, high = _answers(argv, [("--order", "48"), ("--order", "100000")], monkeypatch)
        assert low == high


def test_failed_self_check_is_an_error_under_optimize():
    # a Mahler series that misses its samples must be caught even with asserts
    # stripped: every series gets one corrupted residue after it is built
    prelude = "\n".join(
        [
            "from orbitlang import analytic",
            "build = analytic.MahlerSeries.__init__",
            "def corrupted(self, *args):",
            "    build(self, *args)",
            "    self.residues = self.residues[:1] + (self.residues[1] + 1,) + self.residues[2:]",
            "analytic.MahlerSeries.__init__ = corrupted",
        ]
    )
    proc = run_cli_process(MAHLER_ARGV, timeout=30, prelude=prelude, python_flags=("-O",))
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


def test_strassmann_prime_one_is_rejected_not_looped_on():
    # p = 1 used to loop forever stripping factors of 1 from the coefficients
    proc = run_cli_process(["--json", "strassmann", "--prime", "1", "--coeffs", "1,2"], timeout=30)
    assert proc.returncode == EXIT_USAGE
    assert jsonline(proc.stdout)["result"]["code"] == "invalid-option"


@pytest.mark.parametrize(
    "argv",
    [
        ["strassmann", "--prime", "0", "--coeffs", "1,2"],
        ["strassmann", "--prime", "4", "--coeffs", "1,2"],
        ["strassmann", "--prime", "9", "--coeffs", "1,2"],
        ["strassmann", "--prime", "-3", "--coeffs", "1,2"],
        ["reduce", "--map", "t^2+1", "--prime", "9"],
        ["orbit", "--map", "t^2-1", "--point", "0", "--place", "4"],
        ["classify", "--map", "t^2-1", "--point", "0", "--place", "4"],
    ],
)
def test_non_prime_prime_or_place_exit_two(monkeypatch, argv):
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "invalid-option"


@pytest.mark.parametrize("command", ["orbit", "classify"])
def test_place_zero_is_archimedean(monkeypatch, command):
    code, out = invoke(["--json", command, "--map", "t^2-1", "--point", "0", "--place", "0"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert jsonline(out)["result"]["cycle"]["place"] == "archimedean"


@pytest.mark.parametrize(
    "point, variety, name, position",
    [
        ("0", "x2-1", "x2", 0),
        ("0", "x1 + x2", "x2", 5),
        ("0", "y - 1", "y", 0),
        ("0,1", "x1 - 3*x3", "x3", 7),
    ],
)
def test_generator_beyond_the_point_exit_two(monkeypatch, point, variety, name, position):
    # a coordinate past the point's count used to die in Polynomial.with_variables, exit 1
    argv = ["--json", "decide", "--map", "t^2+1", "--point", point, "--variety", variety]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    result = jsonline(out)["result"]
    assert result["code"] == "syntax-error"
    assert repr(name) in result["message"] and f"(at position {position})" in result["message"]


@pytest.mark.parametrize(
    "point, variety, same_as, exceptional, progressions",
    [
        ("0", "x1-x", "x1-x1", [], [{"modulus": 1, "offset": 0, "start": 0, "type": "Progression"}]),
        ("0,1", "x1-x+x2-5", "x2-5", [2], []),
        ("0,1", "x*x1-4", "x1^2-4", [2], []),
    ],
)
def test_plane_alias_next_to_its_coordinate_adds_exponents(
    monkeypatch, point, variety, same_as, exceptional, progressions
):
    # x and x1 name one coordinate; renaming x to x1 used to leave two x1
    # slots, the second one's exponent replacing the first's (x1-x became 1-x1)
    results = []
    for text in (variety, same_as):
        argv = ["--json", "decide", "--map", "t^2+1", "--point", point, "--variety", text]
        code, out = invoke(argv, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        results.append(jsonline(out)["result"])
    assert results[0] == results[1]
    assert results[0]["certification"]["type"] == "Certified"
    assert (results[0]["exceptional"], results[0]["progressions"]) == (exceptional, progressions)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--map", "1/t", "--point", "0"],
        ["divisors", "--map", "t", "--level", "1"],
        ["divisors", "--map", "1/t", "--level", "2"],
        ["ms-curves", "--map", "(t^2+1)/t"],
        ["divisors", "--map", "t", "--level", "3"],
        ["find-prime", "--maps", "t^2+1;t^2-1", "--points", "1/2,2", "--mode", "quadratic"],
        ["find-prime", "--maps", "t^2-1;t^2+1", "--points", "1/2,2", "--mode", "qr"],
    ],
)
def test_map_outside_the_command_hypotheses_exit_two(monkeypatch, argv):
    # degree 1 used to raise ValueError from exceptional_structure and
    # ramification_bound, and a rational map from affine_coefficients; a
    # single-map --mode used to certify the first of two different maps
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "hypothesis-violated"


@pytest.mark.parametrize("coeffs, position", [("x", 0), ("1,2*y", 2)])
def test_strassmann_non_constant_coefficient_exit_two(monkeypatch, coeffs, position):
    # Fraction() of a parsed curve used to raise TypeError, exit 1
    code, out = invoke(["--json", "strassmann", "--prime", "3", "--coeffs", coeffs], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    result = jsonline(out)["result"]
    assert result["code"] == "syntax-error"
    assert result["message"].endswith(f"(at position {position})")


def test_decide_with_a_scale_past_the_float_range(monkeypatch):
    # 10^400 t^2 + 10^-400 is conjugate to t^2 + 1 by the scale 10^-400, whose
    # square root does not fit in a float
    code, out = invoke(
        ["--json", "decide", "--map", "(10^400)*t^2+1/10^400", "--point", "0", "--variety", "x1-26/10^400"],
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    result = jsonline(out)["result"]
    assert result["exceptional"] == [4] and result["progressions"] == []
    assert result["certification"]["type"] == "Certified" and result["certification"]["prime"] == 3


def test_classify_finds_a_large_exact_cube_root_scale(monkeypatch):
    # the leading coefficient is (3^40 + 7)^3, a cube that a rounded float root misses
    code, out = invoke(["--json", "classify", "--map", "(3^40+7)^3*t^4+t"], monkeypatch=monkeypatch)
    assert code == EXIT_OK
    normal = jsonline(out)["result"]["normal_form"]
    assert normal["polynomial"] == "t^4 + t"
    assert normal["conjugator"] == {"scale": f"1/{3**40 + 7}", "shift": "0"}


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--map", "t^2/t", "--point=2"],
        ["decide", "--map", "t^2/t", "--point=1", "--variety", "x1-1"],
        ["divisors", "--map", "(t^2+0)/t", "--level", "0"],
        ["reduce", "--map", "(0)*t^2+(1/2)", "--prime", "7", "--point=1"],
        ["find-prime", "--map", "(0)*t^2+(-2)", "--points=7,-2", "--mode", "multi"],
        ["decide", "--map", "(0/1)*t^2+(0/1)", "--point=3,-2", "--variety", "y-(2)", "--mode", "coordinatewise"],
    ],
    ids=["common-factor-orbit", "common-factor-decide", "common-factor-divisors", "constant-reduce", "constant-find-prime", "zero-map-decide"],
)
def test_degenerate_map_exit_two(monkeypatch, argv):
    # a constant map, the zero map and a map with a common factor used to
    # raise ValueError from RationalMap, exit 1
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "hypothesis-violated"


@pytest.mark.parametrize("variety", ["x-x+1", "y-y"])
def test_constant_plane_curve_exits_two(monkeypatch, variety):
    # PlaneCurve used to raise a bare ValueError for a constant curve, exit 1
    argv = ["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", variety]
    code, out = invoke(argv, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "hypothesis-violated"


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--map", "t^2+1", "--point", "2^20000", "--variety", "x1-1"],
        ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-2^20000"],
        ["orbit", "--map", "t^2+1", "--point", "2^20000", "--steps", "1"],
        ["divisors", "--map", "t^2+2^20000", "--level", "1"],
        ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-" + "1" * 4400],
    ],
    ids=["decide-point", "decide-variety", "orbit-point", "divisors-map", "decide-long-literal"],
)
def test_constants_past_4300_digits_are_answered(default_digit_limit, monkeypatch, argv):
    # str() of the canonical form, or int() of the literal, used to raise
    # ValueError past the interpreter's default limit of 4300 digits, exit 1
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert "error" not in jsonline(out)["result"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--map", "t^2+1", "--point", "2^100000", "--variety", "x1-1"],
        ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-" + "1" * 30000],
    ],
    ids=["printed-constant", "literal"],
)
def test_constants_past_the_exact_cap_exit_two(default_digit_limit, monkeypatch, argv):
    code, out = invoke(["--json", *argv], monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert jsonline(out)["result"]["code"] == "syntax-error"
