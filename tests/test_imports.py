"""sympy is imported on first use of the multivariate algebra, never at import time.

Division, gcd and factorization of univariates are native, and so is the
characteristic polynomial that tests conjugate critical points, so the
residue-only commands (coordinatewise `decide`, `orbit`, `reduce`,
`find-prime`, `strassmann`), `divisors` and curve-pair `decide` make no
call into sympy, and a process that runs only them never loads it.  The
first resultant, or the first division, gcd or factorization in two or
more variables, imports it through `polynomials._sympy`.

`classify` and `intersection` are imported where they are first used, so
a process that runs only coordinatewise `decide` on maps in t^2 + c form
never loads them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitlang"


def _import_time_nodes(tree):
    """The nodes that run when the module is imported: everything but the
    bodies of functions and lambdas."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


def _imports_sympy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "sympy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"


def test_no_module_imports_sympy_at_import_time():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _import_time_nodes(ast.parse(path.read_text(), str(path)))
        if _imports_sympy(node)
    ]
    assert offenders == []


RESIDUE_ONLY = [
    ["decide", "--map", "t^2+1", "--point", "0", "--variety", "x1-26"],
    ["decide", "--maps", "t^2+1;t^2-1", "--point", "0,2", "--variety", "x1-x2"],
    ["orbit", "--map", "t^2+1", "--point", "1", "--place", "3"],
    ["reduce", "--map", "t^2+1", "--prime", "5", "--point", "2"],
    ["find-prime", "--map", "t^2+1", "--points", "0,1"],
    ["strassmann", "--prime", "5", "--coeffs", "0,-1,1"],
    # conjugate critical points: the test for a conjugate beyond the escape radius
    ["divisors", "--map", "t^3+6*t", "--level", "1"],
    ["decide", "--mode", "curve-pair", "--map", "t^3+6*t", "--point", "1,2", "--variety", "x-y", "--nmax", "20"],
]

SCRIPT = """
import io, json, sys
from orbitlang.cli import run
out = []
for argv in json.loads(sys.argv[1]):
    stream = io.StringIO()
    code = run(["--json", *argv], stream=stream)
    out.append({"code": code, "sympy": "sympy" in sys.modules, "report": json.loads(stream.getvalue())})
print(json.dumps(out))
"""


def _golden(name: str) -> list[dict]:
    return json.loads((ROOT / "tests" / f"golden_{name}.json").read_text())


def _run_script(script: str, commands: list) -> object:
    """The JSON that `script` prints when a fresh interpreter runs it on `commands`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_residue_only_commands_never_load_sympy():
    goldens = _golden("divisors") + [case for case in _golden("decide") if case["name"] == "curve-pair"]
    commands = RESIDUE_ONLY + [case["argv"][1:] for case in goldens]
    runs = _run_script(SCRIPT, commands)
    for argv, step in zip(commands, runs):
        assert step["code"] in (0, 1) and not step["sympy"], argv
    for case, step in zip(goldens, runs[len(RESIDUE_ONLY) :]):
        assert step["code"] == case["exit"], case["name"]
        step["report"].pop("timing")
        assert json.dumps(step["report"], sort_keys=True) == json.dumps(case["report"], sort_keys=True), case["name"]


DECIDE_ONLY = """
import io, json, sys
from orbitlang.cli import run
codes = [run(argv, stream=io.StringIO()) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) & {"orbitlang.classify", "orbitlang.intersection"})}))
"""


def test_coordinatewise_decide_never_loads_classify_or_intersection():
    # a map already in t^2 + c form needs no normal form, and no curve-pair hypothesis is checked
    commands = [case["argv"] for case in _golden("scan")]
    commands += [["--json", *argv] for argv in RESIDUE_ONLY if argv[0] == "decide" and "curve-pair" not in argv]
    out = _run_script(DECIDE_ONLY, commands)
    assert set(out["codes"]) <= {0, 1} and out["loaded"] == []
