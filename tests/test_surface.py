"""Every function, class and method defined in the package has a reader.

A definition passes when its name is referenced, as a Name or as an
Attribute, somewhere in src/ or bench/; tests do not count.  Dunders are
exempt (the interpreter calls them), and so is the short list below, each
entry with the reason it stays.  A class that defines an arithmetic operator
is named, with its reason, in a second list.  Every name a module's `__all__` exports is
defined.  Only `polynomials` reads a polynomial's `terms`, the Fraction
view: every other module computes on `num` and `den`.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitlang"

# qualified name -> why it stays without a caller in src/ or bench/
KEPT = {
    "IntersectionDescription.is_definitive": "a method on the object decide returns",
    "Progression.contains": "a method on the objects decide returns",
    "replay_certificate": "the prime-certificate verification API",
    "JonesDensity.hit_fraction": "acceptance criterion 9 prints it",
    "layer": "bench/spans.py traces intersection.layer by name",
    "MahlerSeries.evaluate_residue": "acceptance criterion 6 reads it",
}

# class -> why it defines arithmetic operators; the reader check above exempts
# dunders, so an operator outlives its last caller unless a class is named here
ARITHMETIC = {
    "Polynomial": "the exact ring every variety, pullback and scan substitution computes in",
}

_OPERATORS = {
    f"__{prefix}{name}__"
    for name in "add sub mul matmul truediv floordiv mod divmod pow lshift rshift and xor or".split()
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def _sources():
    return sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _references() -> set[str]:
    names = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _definitions():
    """(file, qualified name, name) of every function, class and method."""
    out = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}{child.name}"
                out.append((path.name, qualified, child.name))
                visit(child, f"{qualified}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path)
    return out


def test_every_definition_is_referenced_in_src_or_bench():
    references = _references()
    unread = [
        f"{file}: {qualified}"
        for file, qualified, name in _definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and qualified not in KEPT
        and name not in references
    ]
    assert unread == []


def test_every_kept_name_is_still_defined():
    defined = {qualified for _, qualified, _ in _definitions()}
    assert sorted(KEPT.keys() - defined) == []


def _class_attributes(node: ast.ClassDef) -> set[str]:
    """The names a class body binds: its methods and its assigned names."""
    names = set()
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
        elif isinstance(child, ast.Assign):
            names.update(target.id for target in child.targets if isinstance(target, ast.Name))
    return names


def test_every_class_with_arithmetic_operators_is_named_with_its_reason():
    defining = {
        node.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and _class_attributes(node) & _OPERATORS
    }
    assert sorted(defining) == sorted(ARITHMETIC)


def test_every_exported_name_is_defined():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "orbitlang" if path.stem == "__init__" else f"orbitlang.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_no_call_of_the_builtin_id():
    # a cache keyed by id() is sound only while it holds the keyed object;
    # the scanner keys its caches by generator index instead
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert calls == []


def test_only_polynomials_reads_the_fraction_view():
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "polynomials.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert readers == []
