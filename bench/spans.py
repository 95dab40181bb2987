"""Span recorder for the traced benchmark run.

`install` wraps the public functions of each orbitlang layer under the name
its caller looks up: a function imported by name into another module (such
as `engine.orbit_interpolate` or `cli.diagonal_pullback`) is replaced there
too, and methods are replaced on their class.  Spans (name, parent, start,
end) and counters stay in memory; self times are derived from them when the
run ends.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "cli",
    "parsing",
    "engine",
    "scan",
    "dynsys",
    "reduction",
    "primesearch",
    "padics",
    "analytic",
    "polynomials",
    "intersection",
)


class Recorder:
    """Nested spans of one single-threaded process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.enabled = False

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, amount: int = 1):
        self.counts[key] += amount

    def maximum(self, key: str, value: int):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def mark(self) -> int:
        """Index of the next span; spans before a mark belong to an earlier phase."""
        return len(self.span_name)

    def new_phase(self) -> int:
        """Start a phase: counters restart, and the returned mark splits the spans."""
        self.counts.clear()
        self.maxima.clear()
        return self.mark()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-name self time over spans[first:last]: duration minus the time
        covered by direct children (children never overlap in one thread)."""
        last = len(self.span_name) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i - first]
        return out

    def covered(self, inner, outer: str | None = None, first: int = 0, last: int | None = None) -> tuple[float, float]:
        """(time in outermost spans whose name satisfies `inner`, below an
        `outer` span if one is named; total time of outermost `outer` spans)
        over spans[first:last]."""
        last = len(self.span_name) if last is None else last
        outer_id = self.name_id.get(outer, -2)
        under_outer = [False] * (last - first)
        under_inner = [False] * (last - first)
        inner_s = outer_s = 0.0
        for i in range(first, last):
            p = self.parent[i]
            in_outer = p >= first and (under_outer[p - first] or self.span_name[p] == outer_id)
            in_inner = p >= first and (under_inner[p - first] or inner(self.names[self.span_name[p]]))
            under_outer[i - first] = in_outer
            under_inner[i - first] = in_inner
            name = self.names[self.span_name[i]]
            duration = self.end[i] - self.start[i]
            if self.span_name[i] == outer_id and not in_outer:
                outer_s += duration
            if (in_outer or outer is None) and not in_inner and inner(name):
                inner_s += duration
        return inner_s, outer_s

    def dump(self, path, first: int = 0):
        """Write spans as tab-separated `id parent name start end` lines."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(first, len(self.span_name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _patch_function(rec: Recorder, module, attr: str, name: str, on_result=None):
    """Replace module.attr, and every orbitlang module's alias of it."""
    original = getattr(module, attr)
    traced = rec.wrap(name, original, on_result)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "orbitlang" or mod_name.startswith("orbitlang."):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)


def _patch_method(rec: Recorder, cls, attr: str, name: str, on_result=None, aliases=()):
    traced = rec.wrap(name, cls.__dict__[attr], on_result)
    for a in (attr,) + tuple(aliases):
        setattr(cls, a, traced)


# -- counters read from arguments and results ----------------------------------------


def _on_exact_point(rec, args, kwargs, result):
    rec.count("scan.exact_point.horizon" if result is None else "scan.exact_point.exact")


def _on_interpolate(rec, args, kwargs, result):
    rec.count("analytic.mahler_samples", len(result.samples))


def _on_certify(rec, args, kwargs, result):
    if result.identically_zero:
        rec.count("analytic.verdict.identically_zero")
    else:
        rec.count("analytic.verdict.nonzero_witness")


def _on_mul(rec, args, kwargs, result):
    a, b = args
    right = len(b.terms) if hasattr(b, "terms") else 1
    rec.count("polynomials.mul.term_pairs", len(a.terms) * right)


def _on_pullback(rec, args, kwargs, result):
    rec.maximum("intersection.chain_terms_max", max(len(p.terms) for p in result.chain))


def _on_density(rec, args, kwargs, result):
    rec.count("primesearch.density_primes", len(result.hits))


def _primes_tried(primes_upto):
    def on_result(rec, args, kwargs, result):
        # every search walks the odd primes in increasing order and stops at
        # the certified one; a NotFound walked all of them
        p_max = args[2] if len(args) > 2 else kwargs["p_max"]
        last = getattr(result, "prime", p_max)
        rec.count("primesearch.find_prime.primes_tried", sum(1 for p in primes_upto(p_max) if 2 < p <= last))

    return on_result


def _on_decide(rec, args, kwargs, result):
    witnesses = result.witnesses
    rec.count("engine.classes", len(witnesses.get("classes", {})))
    rec.maximum("engine.class_modulus_max", witnesses.get("class-modulus", 1))
    kind = type(result.certification).__name__
    rec.count({"Certified": "engine.stamp.certified", "ScanOnly": "engine.stamp.scan_only"}.get(kind, "engine.stamp.inconclusive"))


def install() -> Recorder:
    """Wrap every traced orbitlang function; the recorder starts disabled."""
    from orbitlang import analytic, cli, dynsys, engine, intersection, padics, parsing, primesearch, reduction, scan
    from orbitlang.polynomials import Polynomial

    rec = Recorder()
    primes_upto = padics.primes_upto
    _patch_function(rec, cli, "run", "cli.run")
    _patch_function(rec, parsing, "parse_expression", "parsing.parse_expression")
    _patch_function(rec, parsing, "parse_point", "parsing.parse_point")
    _patch_function(rec, engine, "decide", "engine.decide", _on_decide)
    _patch_method(rec, scan.OrbitScanner, "__init__", "scan.OrbitScanner.init")
    _patch_method(rec, scan.OrbitScanner, "scan", "scan.OrbitScanner.scan")
    _patch_method(rec, scan.OrbitScanner, "is_hit", "scan.is_hit")
    _patch_method(rec, scan.OrbitScanner, "exact_point", "scan.exact_point", _on_exact_point)
    _patch_method(rec, scan.OrbitScanner, "substituted_generator", "scan.substituted_generator")
    _patch_function(rec, dynsys, "orbit_status", "dynsys.orbit_status")
    _patch_function(rec, reduction, "residue_orbit", "reduction.residue_orbit")
    _patch_function(rec, padics, "primes_upto", "padics.primes_upto")
    _patch_function(rec, analytic, "orbit_interpolate", "analytic.orbit_interpolate", _on_interpolate)
    _patch_function(rec, analytic, "certify_vanishing", "analytic.certify_vanishing", _on_certify)
    _patch_method(rec, Polynomial, "__mul__", "polynomials.mul", _on_mul, aliases=("__rmul__",))
    _patch_method(rec, Polynomial, "evaluate", "polynomials.evaluate")
    _patch_method(rec, Polynomial, "substitute", "polynomials.substitute")
    _patch_function(rec, intersection, "diagonal_pullback", "intersection.diagonal_pullback", _on_pullback)
    _patch_function(rec, intersection, "layer", "intersection.layer")
    _patch_function(rec, intersection, "bivariate_squarefree", "intersection.bivariate_squarefree")
    _patch_function(rec, intersection, "ramification_bound", "intersection.ramification_bound")
    tried = _primes_tried(primes_upto)
    for fn in ("find_good_prime_quadratic", "qr_filter_for_minus_one", "find_good_prime_multi"):
        _patch_function(rec, primesearch, fn, "primesearch.find_prime", tried)
    _patch_function(rec, primesearch, "jones_density_estimate", "primesearch.jones_density_estimate", _on_density)
    return rec
