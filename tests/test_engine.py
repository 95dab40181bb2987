import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlang.cli import run
from orbitlang.dynsys import RationalMap, iterate
from orbitlang.engine import (
    CHECK_LIMIT,
    Certified,
    EngineOptions,
    Inconclusive,
    IntersectionDescription,
    Progression,
    ScanOnly,
    _simplify_progressions,
    brute_force_scan,
    decide,
    decide_curve_pair,
)
from orbitlang.errors import HypothesisViolated, OrbitlangError, PowerMapCase, PrecisionExhausted
from orbitlang.polynomials import Polynomial
from orbitlang.varieties import AffineVariety, PlaneCurve
from oracles import iterate_polynomial


def gen(vars_, terms):
    return Polynomial(vars_, terms)


def x_minus_y():
    return gen(("x1", "x2"), {(1, 0): 1, (0, 1): -1})


def invariant_graph(c, r=1, g=2):
    """y = f^r(x) as a generator in x1..xg (using the first two coordinates)."""
    f = RationalMap.quadratic(c)
    fr = iterate_polynomial(f, r)
    names = tuple(f"x{i + 1}" for i in range(g))
    terms = {}
    for (e,), coeff in fr.terms.items():
        key = [0] * g
        key[0] = e
        terms[tuple(key)] = -coeff
    ykey = [0] * g
    ykey[1] = 1
    terms[tuple(ykey)] = terms.get(tuple(ykey), Fraction(0)) + 1
    return Polynomial(names, terms)


OPTS = EngineOptions(scan_limit=200)


def test_brute_force_scan_examples():
    f = RationalMap.quadratic(1)
    hits = brute_force_scan(f, [0], [gen(("x1",), {(1,): 1, (0,): -5})], 10)
    assert hits == [3]  # orbit 0, 1, 2, 5

    diag_hits = brute_force_scan(RationalMap.quadratic(0), [2, 4], [x_minus_y()], 50)
    assert diag_hits == []

    graph_hits = brute_force_scan(
        RationalMap.quadratic(1), [Fraction(1, 2), Fraction(5, 4)], [invariant_graph(1)], 30
    )
    assert graph_hits == list(range(31))


def test_decide_invariant_graph_full_progression():
    f = RationalMap.quadratic(-1)
    a = Fraction(1, 2)
    fa = a * a - 1
    desc = decide(f, [a, fa], [invariant_graph(-1)], OPTS)
    assert isinstance(desc, IntersectionDescription)
    assert isinstance(desc.certification, Certified)
    assert desc.certification.prime == 5
    assert desc.progressions and desc.exceptional == ()
    total = desc.described_indices(200)
    assert total == list(range(201))


def test_decide_agrees_with_scan_on_diagonal():
    f = RationalMap.quadratic(1)
    desc = decide(f, [0, 1], [x_minus_y()], OPTS)
    scan = brute_force_scan(f, [0, 1], [x_minus_y()], 200)
    assert desc.described_indices(200) == scan == []
    assert desc.is_definitive()


def test_decide_whole_space():
    f = RationalMap.quadratic(2)
    desc = decide(f, [1], AffineVariety.of([], 1), OPTS)
    assert desc.described_indices(50) == list(range(51))
    assert desc.progressions[0].modulus == 1


def test_decide_power_map_rejected():
    with pytest.raises(PowerMapCase):
        decide(RationalMap.quadratic(0), [2], [gen(("x1",), {(1,): 1})], OPTS)


def test_decide_single_coordinate_hit_set():
    f = RationalMap.quadratic(1)
    V = [gen(("x1",), {(1,): 1, (0,): -5})]
    desc = decide(f, [0], V, OPTS)
    assert desc.described_indices(200) == [3]
    assert desc.is_definitive()


def test_decide_preperiodic_coordinates_cycle_closure():
    f = RationalMap.quadratic(-1)  # 0 -> -1 -> 0 cycle
    V = [gen(("x1",), {(1,): 1})]  # x = 0
    desc = decide(f, [0], V, OPTS)
    assert isinstance(desc.certification, ScanOnly)
    assert desc.described_indices(20) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    assert desc.progressions[0].modulus == 2


def test_decide_mixed_preperiodic_and_wandering():
    f = RationalMap.quadratic(-1)
    # x1 preperiodic (0), x2 wandering (1/2): variety x1 = -1 picks odd indices
    V = [gen(("x1", "x2"), {(1, 0): 1, (0, 0): 1})]
    desc = decide(f, [0, Fraction(1, 2)], V, OPTS)
    scan = brute_force_scan(f, [0, Fraction(1, 2)], V, 200)
    assert desc.described_indices(200) == scan == list(range(1, 201, 2))


def test_decide_normalizes_general_quadratics():
    # 2t^2 + 4t is conjugate to t^2 - 2 by mu(t) = t/2 - 1
    f = RationalMap.polynomial([0, 4, 2])
    a = Fraction(1, 3)
    desc = decide(f, [a, _apply(f, a)], [invariant_graph_general(f)], OPTS)
    assert desc.described_indices(100) == list(range(101))


def _apply(f, x):
    return iterate(f, x, 1).as_fraction()


def invariant_graph_general(f):
    fr = Polynomial.univariate(f.affine_coefficients(), "t")
    terms = {}
    for (e,), coeff in fr.terms.items():
        terms[(e, 0)] = -coeff
    terms[(0, 1)] = terms.get((0, 1), Fraction(0)) + 1
    return Polynomial(("x1", "x2"), terms)


def test_decide_multi_map_mode():
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(2)]
    V = [x_minus_y()]
    desc = decide(maps, [0, 0], V, OPTS)
    scan = brute_force_scan(maps, [0, 0], V, 200)
    assert desc.described_indices(200) == scan == [0]  # only the shared start
    assert desc.is_definitive()


def test_decide_not_found_is_inconclusive():
    f = RationalMap.quadratic(1)
    desc = decide(f, [0], [gen(("x1",), {(1,): 1, (0,): -5})], EngineOptions(prime_bound=2, scan_limit=50))
    assert isinstance(desc.certification, Inconclusive)
    assert desc.exceptional == (3,)


def test_decide_curve_pair_invariant_graph():
    f = RationalMap.quadratic(1)
    curve = PlaneCurve(gen(("x", "y"), {(0, 1): 1, (2, 0): -1, (0, 0): -1}))  # y = f(x)
    desc = decide_curve_pair(f, [0, 1], curve, OPTS)
    assert desc.progressions and desc.progressions[0].modulus == 1
    assert desc.described_indices(100) == list(range(101))


def test_decide_curve_pair_line_single_hit():
    f = RationalMap.quadratic(1)
    curve = PlaneCurve(gen(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): -3}))  # x + y = 3
    desc = decide_curve_pair(f, [0, 1], curve, OPTS)
    assert desc.described_indices(200) == [1]
    assert desc.is_definitive()


def test_decide_curve_pair_superattracting_rejected():
    f = RationalMap.quadratic(-1)
    curve = PlaneCurve(gen(("x", "y"), {(1, 0): 1, (0, 1): -1}))
    with pytest.raises(HypothesisViolated):
        decide_curve_pair(f, [Fraction(1, 2), 2], curve, OPTS)


def test_decide_curve_pair_computes_one_ramification_portrait(monkeypatch):
    import orbitlang.dynsys as dynsys
    import orbitlang.engine as engine

    calls = []
    honest = dynsys.ramification_portrait

    def counted(phi):
        calls.append(phi)
        return honest(phi)

    monkeypatch.setattr(dynsys, "ramification_portrait", counted)
    monkeypatch.setattr(engine, "ramification_portrait", counted)
    curve = PlaneCurve(gen(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): -3}))
    decide_curve_pair(RationalMap.quadratic(1), [0, 1], curve, OPTS)
    assert len(calls) == 1


def test_decide_curve_pair_power_map_rejected():
    with pytest.raises(PowerMapCase):
        decide_curve_pair(RationalMap.quadratic(0), [2, 3], PlaneCurve(gen(("x", "y"), {(1, 0): 1, (0, 1): -1})), OPTS)


def test_decide_curve_pair_preperiodic_coordinate():
    f = RationalMap.quadratic(1)
    # second coordinate infinity is impossible; use a preperiodic-free map with
    # one bounded coordinate instead: t^2 - 1 is rejected, so take t^2 - 2 with 0 -> -2 -> 2 -> 2
    g = RationalMap.quadratic(-2)
    curve = PlaneCurve(gen(("x", "y"), {(0, 1): 1, (0, 0): -2}))  # y = 2
    desc = decide_curve_pair(g, [3, 0], curve, OPTS)
    scan = brute_force_scan([g, g], [3, 0], [curve.poly], 200)
    assert desc.described_indices(200) == scan == list(range(2, 201))


def test_progression_for_irreducible_curve_implies_curve_periodicity():
    # cross-module consistency: an infinite progression reported for an
    # irreducible curve must come with the curve being periodic as a curve
    f = RationalMap.quadratic(1)
    curve = PlaneCurve(gen(("x", "y"), {(0, 1): 1, (2, 0): -1, (0, 0): -1}))
    desc = decide_curve_pair(f, [0, 1], curve, OPTS)
    assert desc.progressions
    from orbitlang.classify import PeriodicWithPeriod, verify_invariant_curve

    verdict = verify_invariant_curve(curve, iterate_polynomial(f, 1), 4)
    assert isinstance(verdict, PeriodicWithPeriod)
    assert verdict.period <= 2 * max(p.modulus for p in desc.progressions) + 2


def test_progression_helpers():
    prog = Progression(3, 1, 2)  # {3n + 1 : n >= 2} = {7, 10, 13, ...}
    assert prog.indices_upto(14) == [7, 10, 13]
    assert prog.contains(10) and not prog.contains(4)


def test_a_full_set_of_classes_is_described_from_the_first_index_past_which_all_are():
    # the classes mod 2 start at 0 and 1, so every index is a hit: the
    # description used to read Progression(1, 0, 1) with 0 as an exception
    argv = ["--json", "decide", "--map", "t^2-3", "--point=-3,33", "--variety", "x2-((x1^2-3)^2-3)", "--nmax", "40"]
    stream = io.StringIO()
    assert run(argv, stream=stream) == 0
    result = json.loads(stream.getvalue())["result"]
    assert result["certification"]["type"] == "Certified"
    assert result["progressions"] == [{"type": "Progression", "modulus": 1, "offset": 0, "start": 0}]
    assert result["exceptional"] == []


@pytest.mark.parametrize(
    "firsts, exceptional, start, kept",
    [
        ((0, 1), (), 0, ()),
        ((4, 1), (), 3, (1,)),  # 2 is not described
        ((4, 1), (2,), 1, ()),  # 0 is not described
        ((6, 3), (), 5, (3,)),
        ((2, 7, 3), (0, 4), 2, (0,)),  # down through 4, 3 and 2; 1 is not described
        ((9, 4, 2), (5,), 7, (2, 4, 5)),
        ((9, 4, 2), (3, 6), 2, ()),
    ],
)
def test_a_full_set_of_classes_coalesces_to_its_canonical_form(firsts, exceptional, start, kept):
    k = len(firsts)
    progressions = [Progression(k, first % k, first // k) for first in firsts]
    described = {n for p in progressions for n in p.indices_upto(60)} | set(exceptional)
    merged, left = _simplify_progressions(progressions, exceptional)
    assert (merged, left) == ((Progression(1, 0, start),), kept)
    assert {n for p in merged for n in p.indices_upto(60)} | set(left) == described
    assert start == 0 or start - 1 not in described


def test_soundness_of_reported_indices():
    f = RationalMap.quadratic(Fraction(3, 2))
    a = Fraction(1, 2)
    desc = decide(f, [a, _apply(f, a)], [invariant_graph_general(f)], OPTS)
    assert desc.described_indices(200) == list(range(201))
    # independent exact re-evaluation (orbit heights square each step: keep n small)
    for n in desc.described_indices(14):
        x = iterate(f, a, n).as_fraction()
        y = iterate(f, _apply(f, a), n).as_fraction()
        assert y == x * x + Fraction(3, 2)


def x1_minus(*values):
    """prod(x1 - v) in one coordinate."""
    out = gen(("x1",), {(0,): 1})
    for v in values:
        out = out * gen(("x1",), {(1,): 1, (0,): -v})
    return out


@pytest.mark.xfail(strict=True, reason="Defects 1 and 1b: Certified though no proof covers the hits past the scan")
@pytest.mark.parametrize(
    "start, values, scan_limit",
    [(0, (26,), 3), (0, (2, 677), 3), (-3, (101,), 1)],
    ids=["x1-26", "x1-2-times-x1-677", "x1-101-from-minus-3"],
)
def test_a_certified_description_is_complete_past_the_scan(start, values, scan_limit):
    # t^2+1 from 0 meets 26 at index 4 and 677 at index 5, and from -3 meets
    # 101 at index 2: each hit lies past the scan
    f, variety = RationalMap.quadratic(1), [x1_minus(*values)]
    desc = decide(f, [start], variety, EngineOptions(scan_limit=scan_limit))
    assert not isinstance(desc.certification, Certified) or desc.described_indices(12) == brute_force_scan(f, [start], variety, 12)


def _record_products_by_one(monkeypatch) -> list:
    """Every Polynomial product with a factor equal to the constant 1, from now on."""
    products = []
    mul = Polynomial.__mul__

    def is_one(x):
        return x.is_constant() and x.constant_value() == 1 if isinstance(x, Polynomial) else x == 1

    def recorded(a, b):
        if is_one(a) or is_one(b):
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    monkeypatch.setattr(Polynomial, "__rmul__", recorded)
    return products


def test_a_decide_multiplies_by_no_constant_one(monkeypatch):
    # every Polynomial product in one decide on t^2+1, from parsing the input
    # through the scan and the interpolation to the report
    products = _record_products_by_one(monkeypatch)
    for variety, progressions in (("x2-x1^2-1", 1), ("x1-x2", 0)):
        stream = io.StringIO()
        assert run(["--json", "decide", "--map", "t^2+1", "--point", "0,1", "--variety", variety], stream=stream) == 0
        assert len(json.loads(stream.getvalue())["result"]["progressions"]) == progressions
    assert products == []


def test_a_divisor_chain_multiplies_by_no_constant_one(monkeypatch):
    # t^3+t is monic, so every pullback level's scale is 1
    products = _record_products_by_one(monkeypatch)
    stream = io.StringIO()
    assert run(["--json", "divisors", "--map", "t^3+t", "--level", "4"], stream=stream) == 0
    assert len(json.loads(stream.getvalue())["result"]["levels"]) == 5
    assert products == []


def _clear_reduction_caches():
    from orbitlang import reduction

    for cached in (reduction._resultant, reduction.reduce_map, reduction.residue_orbit):
        cached.cache_clear()


def test_residue_orbits_at_a_sieve_prime_are_computed_once():
    # x2 = x1^2 + 1 holds on the whole orbit of (0, 1) under t^2+1, so the sieve
    # settles nothing at 2 and 3 and the engine certifies at 3: the sieve and
    # the classes read one residue orbit per coordinate there
    from orbitlang.reduction import reduce_map, residue_orbit

    _clear_reduction_caches()
    desc = decide(RationalMap.quadratic(1), [0, 1], [invariant_graph(1)], OPTS)
    assert desc.certification.prime == 3
    assert desc.witnesses["residue-orbits"] == {
        "0": {"tail": 2, "cycle_length": 1},
        "1": {"tail": 1, "cycle_length": 1},
    }
    computed = residue_orbit.cache_info()
    # each computation left its own entry, so no orbit was computed twice
    assert computed.misses == computed.currsize
    # and both coordinates' orbits at 3 are among them: reading them computes nothing
    at_3 = reduce_map(RationalMap.quadratic(1), 3)
    assert residue_orbit(at_3, 0).tail == 2 and residue_orbit(at_3, 1).tail == 1
    assert residue_orbit.cache_info().misses == computed.misses


@pytest.mark.parametrize(
    "maps, alpha, variety",
    [
        # the quadratic search's critical orbit of 0 is coordinate 1's orbit at its prime
        (RationalMap.quadratic(1), [0, 1], [invariant_graph(1)]),
        # the multi-map search's residue orbits are the classes' orbits
        ([RationalMap.quadratic(1), RationalMap.quadratic(2)], [0, 0], [Polynomial(("x1", "x2"), {(1, 0): 1, (0, 1): -1})]),
    ],
)
def test_one_decide_computes_each_residue_orbit_and_resultant_once(monkeypatch, maps, alpha, variety):
    from collections import Counter

    from orbitlang import reduction

    _clear_reduction_caches()
    resultants = Counter()
    original = reduction.binary_form_resultant

    def counted(f, g):
        resultants[f, g] += 1
        return original(f, g)

    built = []
    orbit_type = reduction.ResidueOrbit
    monkeypatch.setattr(reduction, "binary_form_resultant", counted)
    monkeypatch.setattr(reduction, "ResidueOrbit", lambda *fields: built.append(fields) or orbit_type(*fields))
    assert isinstance(decide(maps, alpha, variety, OPTS).certification, Certified)
    assert resultants and set(resultants.values()) == {1}
    orbits = reduction.residue_orbit.cache_info()
    # every orbit built went through the cache as a new (reduced map, start),
    # and some were read by more than one stage
    assert len(built) == orbits.misses == orbits.currsize
    assert orbits.hits


@st.composite
def conjugated_instances(draw):
    """t^2 + c, an integer start in g = 2, a line through an early orbit
    point, a conic or a graph variety, and an affine conjugator mu(t) = A t + B."""
    c = draw(st.integers(-3, 3).filter(bool))
    f = RationalMap.quadratic(c)
    names = ("x1", "x2")
    small = st.integers(-4, 4)
    a1 = draw(small)
    kind = draw(st.sampled_from(["line", "conic", "graph"]))
    if kind == "graph":
        r = draw(st.integers(1, 2))
        alpha = [a1, iterate(f, a1, r).as_fraction()]
        variety = invariant_graph(c, r)
    elif kind == "line":
        alpha = [a1, draw(small)]
        n = draw(st.integers(0, 3))
        x, y = (iterate(f, a, n).as_fraction() for a in alpha)
        a, b = draw(small.filter(bool)), draw(small)
        variety = Polynomial(names, {(1, 0): a, (0, 1): b, (0, 0): -a * x - b * y})
    else:
        alpha = [a1, draw(small)]
        terms = {e: draw(small) for e in [(1, 0), (0, 1), (0, 0), (2, 0), (1, 1)]}
        terms[0, 2] = draw(small.filter(bool))
        variety = Polynomial(names, terms)
    A = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3)]))
    B = Fraction(draw(small))
    return f, alpha, variety, A, B


def _answer(maps, alpha, variety, options):
    try:
        desc = decide(maps, alpha, variety, options)
    except OrbitlangError as exc:
        return type(exc), str(exc)
    return desc.progressions, desc.exceptional, desc.certification


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(conjugated_instances())
def test_decide_is_invariant_under_affine_conjugation(instance):
    # mu o f o mu^-1 from mu(alpha) meets V o mu^-1 exactly where f from alpha meets V
    f, alpha, variety, A, B = instance
    c = f.affine_coefficients()[0]
    conjugate = RationalMap.polynomial([B * B / A + A * c + B, -2 * B / A, 1 / A])
    names = variety.variables
    inverse = {v: Polynomial.variable(v, names) * (1 / A) - B / A for v in names}
    options = EngineOptions(scan_limit=40)
    expected = _answer(f, alpha, variety, options)
    assert _answer(conjugate, [A * a + B for a in alpha], variety.substitute(inverse), options) == expected


# ---------------------------------------------------------------------------
# structure before interpolation


def _count_mahler_calls(monkeypatch) -> dict:
    """Calls of orbit_interpolate and certify_vanishing through the engine,
    and of scan._cleared (exact evaluations and class substitutions), from now on."""
    import orbitlang.engine as engine
    import orbitlang.scan as scan

    counts = {"orbit_interpolate": 0, "certify_vanishing": 0, "_cleared": 0}
    for module, name in ((engine, "orbit_interpolate"), (engine, "certify_vanishing"), (scan, "_cleared")):

        def counted(*args, _honest=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _honest(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _decide_report(argv) -> dict:
    stream = io.StringIO()
    assert run(["--json", "decide", *argv, "--witnesses"], stream=stream) in (0, 1)
    return json.loads(stream.getvalue())["result"]


def _described(result: dict, bound: int) -> list[int]:
    """The indices up to bound that a decide report's result describes."""
    out = {n for n in result["exceptional"] if n <= bound}
    for p in result["progressions"]:
        out.update(Progression(p["modulus"], p["offset"], p["start"]).indices_upto(bound))
    return sorted(out)


def test_a_decide_scan_pass_builds_one_mahler_series(monkeypatch):
    # golden_scan.json holds the 28 operations of the seed-303 decide-scan
    # workload; 26 of the 27 series built before served structural classes
    cases = json.loads((Path(__file__).parent / "golden_scan.json").read_text())
    counts = _count_mahler_calls(monkeypatch)
    for case in cases:
        assert run(case["argv"], stream=io.StringIO()) == case["exit"]
    assert counts["orbit_interpolate"] == 1 and counts["certify_vanishing"] == 1
    # no exact evaluation is skipped: 195 calls before, 183 of them exact
    assert counts["_cleared"] >= 195


def test_a_periodic_graph_builds_no_mahler_series_and_still_evaluates_below_the_horizon(monkeypatch):
    import orbitlang.scan as scan

    argv = ["--map", "t^2-1", "--point", "1/2,-3/4", "--variety", "y-(x^2-1)"]
    f, alpha = RationalMap.quadratic(-1), [Fraction(1, 2), Fraction(-3, 4)]
    horizon = next(n for n in range(100) if scan.OrbitScanner([f, f], alpha, []).exact_point(n) is None)
    counts = _count_mahler_calls(monkeypatch)
    evaluated = set()
    honest = scan.OrbitScanner.exact_point

    def recorded(self, n):
        point = honest(self, n)
        if point is not None:
            evaluated.add(n)
        return point

    monkeypatch.setattr(scan.OrbitScanner, "exact_point", recorded)
    result = _decide_report(argv)
    assert result["certification"]["type"] == "Certified"
    assert [c.get("proof") for c in result["witnesses"]["classes"].values()] == ["structural"]
    assert counts["orbit_interpolate"] == counts["certify_vanishing"] == 0
    assert 0 < horizon and set(range(horizon)) <= evaluated
    assert _described(result, horizon - 1) == list(range(horizon))


@pytest.mark.parametrize(
    "argv",
    [
        # x2 = 2 reaches the stream of x1 = 5 after one step, so the structural
        # base is 1, while both residues mod 3 are fixed: the class base is 0
        ["--map", "t^2+1", "--point", "5,2", "--variety", "x1-x2^2-1", "--nmax", "60"],
        # a rational stream may reach infinity, so a zero verdict proves no hit
        ["--mode", "curve-pair", "--map", "(t^2-3*t-3)/(t+1)", "--point", "1,-5/2", "--variety", "y*(x+1)-(x^2-3*x-3)", "--nmax", "30"],
    ],
    ids=["base-below-structural-base", "rational-curve-pair"],
)
def test_a_class_structure_does_not_prove_keeps_the_mahler_path(monkeypatch, argv):
    from orbitlang.cli import _parse_map, _parse_variety_generator
    from orbitlang.parsing import parse_point

    counts = _count_mahler_calls(monkeypatch)
    result = _decide_report(argv)
    classes = list(result["witnesses"]["classes"].values())
    assert result["certification"]["type"] == "Certified" and result["progressions"]
    assert classes and all("checks" in c and "proof" not in c and c["symbolic"] for c in classes)
    # one series per stream coordinate and class
    assert counts["orbit_interpolate"] == 2 * len(classes)
    option = dict(zip(argv[::2], argv[1::2]))
    phi, limit = _parse_map(option["--map"]), int(option["--nmax"])
    variety = [_parse_variety_generator(option["--variety"], 2)]
    assert _described(result, limit) == brute_force_scan([phi, phi], parse_point(option["--point"]), variety, limit)


@st.composite
def periodic_graph_instances(draw):
    """A start (a, f^r(a)) against y = f^r(x): t^2 + c for decide, t^3 + b t for curve-pair."""
    mode = draw(st.sampled_from(["decide", "curve-pair"]))
    if mode == "decide":
        f = RationalMap.quadratic(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    else:
        f = RationalMap.polynomial([0, draw(st.sampled_from([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])), 0, 1])
    r = draw(st.integers(1, 2))
    a = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2])))
    fr = iterate_polynomial(f, r)
    names = ("x1", "x2") if mode == "decide" else ("x", "y")
    terms = {(e, 0): -coeff for (e,), coeff in fr.terms.items()}
    terms[0, 1] = terms.get((0, 1), 0) + 1
    return mode, f, [a, iterate(f, a, r).as_fraction()], Polynomial(names, terms), draw(st.integers(0, 40))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(periodic_graph_instances())
def test_a_periodic_graph_answer_matches_the_exact_scan(instance):
    mode, f, alpha, variety, nmax = instance
    options = EngineOptions(scan_limit=nmax)
    if mode == "decide":
        desc = decide(f, alpha, [variety], options)
    else:
        desc = decide_curve_pair(f, alpha, PlaneCurve(variety), options)
    assert desc.described_indices(nmax) == brute_force_scan([f, f], alpha, [variety], nmax)


def rational_map(num, den):
    return RationalMap.from_affine(Polynomial.univariate(num, "t"), Polynomial.univariate(den, "t"))


# (t^2 + c)/t, whose critical points +-sqrt(c) are rational only for c = 1, 4, 9,
# and (2t^2 + 1)/(t^2 + t), whose critical points (1 +- sqrt(3))/2 are irrational
CURVE_PAIR_RATIONAL_MAPS = [rational_map([c, 0, 1], [0, 1]) for c in (1, 4, 9, 2, 3, 6, -2)]
CURVE_PAIR_RATIONAL_MAPS.append(rational_map([1, 0, 2], [0, 1, 1]))


@st.composite
def curve_pair_instances(draw):
    """t^3 + b t or a map of CURVE_PAIR_RATIONAL_MAPS, an integer start pair, a line or a conic."""
    if draw(st.booleans()):
        f = RationalMap.polynomial([0, draw(st.sampled_from([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])), 0, 1])
    else:
        f = draw(st.sampled_from(CURVE_PAIR_RATIONAL_MAPS))
    alpha = [draw(st.integers(-6, 6)), draw(st.integers(-6, 6))]
    u, v, w = (draw(st.integers(-3, 3)) for _ in range(3))
    if draw(st.booleans()):
        terms = {(1, 0): u or 1, (0, 1): v, (0, 0): w}  # a line u x + v y + w
    else:
        terms = {(0, 1): 1, (2, 0): -(u or 1), (1, 0): v, (0, 0): w}  # the conic y = u x^2 - v x - w
    return f, alpha, Polynomial(("x", "y"), terms), draw(st.integers(0, 40))


# (t^2+1)/t is odd, so x + y = 0 holds along the orbit of (1, -1); past the
# exact horizon at index 17 no structural proof covers a rational stream
ODD_MAP_ON_THE_ANTIDIAGONAL = (
    RationalMap.from_affine(Polynomial.univariate([1, 0, 1], "t"), Polynomial.univariate([0, 1], "t")),
    [1, -1],
    Polynomial(("x", "y"), {(1, 0): 1, (0, 1): 1}),
    0,
)


# the critical points +-sqrt(2) of (t^2+2)/t are irrational, and they wander
IRRATIONAL_CRITICAL_POINTS = (CURVE_PAIR_RATIONAL_MAPS[3], [1, 2], Polynomial(("x", "y"), {(1, 0): 1, (0, 1): -1}), 40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(curve_pair_instances())
@example(ODD_MAP_ON_THE_ANTIDIAGONAL)
@example(IRRATIONAL_CRITICAL_POINTS)
def test_a_curve_pair_answer_matches_the_exact_scan_and_never_takes_prime_two(instance):
    # the prime is the first odd prime with indifferent residue cycles, whether one or two coordinates wander
    f, alpha, curve, nmax = instance
    try:
        desc = decide_curve_pair(f, alpha, PlaneCurve(curve), EngineOptions(scan_limit=nmax))
    except PrecisionExhausted:
        # a refusal, not an answer: the self-check cannot settle an index below its limit exactly
        with pytest.raises(PrecisionExhausted):
            brute_force_scan([f, f], alpha, [curve], CHECK_LIMIT)
        return
    assert desc.described_indices(nmax) == brute_force_scan([f, f], alpha, [curve], nmax)
    assert not isinstance(desc.certification, Certified) or desc.certification.prime != 2
