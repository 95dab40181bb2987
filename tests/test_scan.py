import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlang.dynsys import PPoint, RationalMap, iterate, orbit_status
from orbitlang.engine import (
    EngineOptions,
    IntersectionDescription,
    Progression,
    ScanOnly,
    _soundness_check,
    brute_force_scan,
)
from orbitlang.errors import PrecisionExhausted, VerificationFailed
from orbitlang.padics import residue
from orbitlang.polynomials import Polynomial
from orbitlang import scan
from orbitlang.scan import OrbitScanner
from oracles import fraction_orbit_hits


def test_control_prime_in_a_generator_denominator_exhausts_precision():
    # the orbit of 0 under t^2+1 passes the exact horizon before n = 20
    scanner = OrbitScanner([RationalMap.quadratic(1)], [0])
    q = scanner.control_primes[0]
    gen = Polynomial(("x1",), {(1,): Fraction(1, q), (0,): 1})
    assert not scanner.is_hit([gen], 5)
    assert scanner.exact_point(20) is None
    with pytest.raises(PrecisionExhausted, match="control prime collides with a coefficient"):
        scanner.is_hit([gen], 20)


def test_classes_keyed_modulo_the_cycle_lcm():
    # 0 -> -1 -> 0 under t^2-1 has cycle 2, and the orbit of 0 under t^2+1
    # wanders, so x1 vanishes on the even class and nowhere on the odd one
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    x1 = Polynomial.variable("x1", ("x1", "x2"))
    assert brute_force_scan(maps, [0, 0], [x1], 1000) == list(range(0, 1001, 2))
    scanner = OrbitScanner(maps, [0, 0])
    assert scanner.preperiodic_cycle_lcm == 2
    assert scanner.exact_point(1000) is None
    assert scanner._structural_verdict(x1, 1000) == "zero"
    assert scanner._structural_verdict(x1, 999) == "nonzero"


def test_an_index_past_the_horizon_costs_one_residue_per_generator(monkeypatch):
    # x2 = x1^2 + 1 holds at every index of the orbit of (0, 1) under t^2+1;
    # each index past the exact horizon is settled by the first control
    # prime and the class structure, for hits and misses alike
    names = ("x1", "x2")
    graph = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(1)]
    scanner = OrbitScanner(maps, [0, 1])
    calls = []
    evaluate = scan.residue_eval

    def counted(table, x, q):
        calls.append(scanner.control_primes.index(q))
        return evaluate(table, x, q)

    monkeypatch.setattr(scan, "residue_eval", counted)
    assert scanner.exact_point(500) is None
    assert scanner.is_hit([graph], 500)
    assert calls == [0]
    calls.clear()
    # graph's class is settled as zero at 500, so only the product costs a residue
    assert scanner.is_hit([graph, graph * diagonal], 501)
    assert calls == [0]
    calls.clear()
    assert not scanner.is_hit([diagonal], 502)
    assert calls == [0]
    calls.clear()
    assert scanner.scan([graph], 1000) == list(range(1001))
    # below the horizon each index costs its residue; past it the class is settled
    horizon = next(n for n in range(1001) if scanner.exact_point(n) is None)
    assert scanner._structural_base == 0 and calls == [0] * horizon


def test_control_primes_are_searched_once_per_process(monkeypatch):
    OrbitScanner([RationalMap.quadratic(1)], [0])
    # q t^2 + 1 has bad reduction at the first candidate q, so this scanner
    # searches one candidate more
    q = scan._control_candidate(0)
    bad_at_q = RationalMap([1, 0, q], [1, 0, 0])
    first = OrbitScanner([bad_at_q, RationalMap.quadratic(1)], [0, 0])
    assert q not in first.control_primes

    def no_search(n):
        raise AssertionError("control prime candidates searched again")

    monkeypatch.setattr(scan, "next_prime", no_search)
    assert OrbitScanner([RationalMap.quadratic(2)], [Fraction(1, 3)]).control_primes == OrbitScanner(
        [RationalMap.quadratic(1)], [0]
    ).control_primes

    def no_reduction(phi, p):
        raise AssertionError("control-prime reduction computed again")

    # each (map, control prime) is reduced once per process, a bad reduction included
    monkeypatch.setattr(scan, "reduce_map", no_reduction)
    assert OrbitScanner([RationalMap.quadratic(1), bad_at_q], [0, 0]).control_primes == first.control_primes


JOUKOWSKI = RationalMap([1, 0, 1], [0, 1, 0])  # t -> (t^2 + 1)/t


def test_rational_orbits_scan_past_the_exact_horizon():
    # x1 * x2 - x1^2 - 1 is invariant under (t^2+1)/t, and the orbit of 1 wanders
    names = ("x1", "x2")
    invariant = Polynomial(names, {(2, 0): 1, (0, 0): 1, (1, 1): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    maps = [JOUKOWSKI, JOUKOWSKI]
    assert brute_force_scan(maps, [1, 2], [invariant], 1000) == list(range(1001))
    assert brute_force_scan(maps, [1, 2], [diagonal], 1000) == []


@st.composite
def wandering_rational_orbits(draw):
    """A degree-2 map that is not a polynomial, with an integral start whose
    orbit wanders and never meets infinity."""
    coeff = st.integers(-5, 5)
    try:
        phi = RationalMap(draw(st.lists(coeff, min_size=3, max_size=3)), draw(st.lists(coeff, min_size=3, max_size=3)))
    except ValueError:
        assume(False)
    assume(phi.degree == 2 and not phi.is_polynomial)
    x = draw(st.integers(-20, 20))
    status = orbit_status(phi, x)
    # past the 200-bit status cutoff the height keeps growing, so the orbit
    # cannot come back to infinity
    assume(status.kind == "wanders" and not any(p.is_infinity for p in status.prefix))
    return phi, x


@settings(max_examples=20, deadline=None)
@given(wandering_rational_orbits(), st.sampled_from([1, 2]))
def test_rational_graph_hits_every_index(orbit, j):
    phi, x = orbit
    names = ("x1", "x2")
    it = phi if j == 1 else phi.compose(phi)
    num = it.affine_numerator("x1").with_variables(names)
    den = it.affine_denominator("x1").with_variables(names)
    graph = Polynomial.variable("x2", names) * den - num  # x2 = phi^j(x1), denominators cleared
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    scanner = OrbitScanner([phi, phi], [x, iterate(phi, x, j)])
    assert scanner.scan([graph], 200) == list(range(201))
    assert scanner.scan([diagonal], 200) == []


def test_below_the_horizon_only_zero_residues_are_evaluated_exactly(monkeypatch):
    # the orbit of (0, 1) under t^2+1: 0, 1, 2, 5, 26, ... and its shift
    names = ("x1", "x2")
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(1)]
    graph = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    meets_26 = Polynomial(names, {(1, 0): 1, (0, 0): -26})
    scanner = OrbitScanner(maps, [0, 1])
    q = scanner.control_primes[0]
    horizon = next(n for n in range(100) if scanner.exact_point(n) is None)
    exact = []
    cleared = scan._cleared

    def counted(gen, coords, one):
        if isinstance(one, int):
            exact.append(gen)
        return cleared(gen, coords, one)

    monkeypatch.setattr(scan, "_cleared", counted)
    for gen, hits in ((graph, list(range(horizon))), (diagonal, []), (meets_26, [4])):
        exact.clear()
        assert scanner.scan([gen], horizon - 1) == hits
        zero_residues = [
            n
            for n in range(horizon)
            if residue(gen.evaluate(dict(zip(names, (p.as_fraction() for p in scanner.exact_point(n))))), q) == 0
        ]
        assert zero_residues == hits and exact == [gen] * len(hits)


def test_a_structurally_zero_class_costs_no_residue(monkeypatch):
    # x1 runs 0, -1, 0, ... under t^2-1, so x1 vanishes on the even class;
    # x2 wanders under t^2+1 and sets the exact horizon
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    x1 = Polynomial.variable("x1", ("x1", "x2"))
    scanner = OrbitScanner(maps, [0, 0])
    horizon = next(n for n in range(100) if scanner.exact_point(n) is None)
    calls = []
    evaluate = scan.residue_eval

    def counted(table, x, q):
        calls.append(x)
        return evaluate(table, x, q)

    monkeypatch.setattr(scan, "residue_eval", counted)
    assert scanner.scan([x1], 1000) == list(range(0, 1001, 2))
    # every odd index costs its nonzero residue; the even class costs one
    # residue per index up to its first index past the horizon, whose verdict
    # is identically zero, and none after it
    first_even_past = horizon + horizon % 2
    assert scanner._structural_base == 0
    assert len(calls) == 500 + first_even_past // 2 + 1
    # the odd class's substitution is a nonzero constant, which settles no index
    assert scanner._structural_verdict(x1, 999) == "nonzero"
    assert scanner.scan([x1], 1000) == list(range(0, 1001, 2))


def test_a_wrong_zero_verdict_does_not_stand_in_for_exact_evaluation(monkeypatch):
    # x2 - x1^2 - 1 + q, q the first control prime, has a zero residue there at
    # every index of the orbit of (0, 1) under t^2+1, and is q exactly
    names = ("x1", "x2")
    scanner = OrbitScanner([RationalMap.quadratic(1)] * 2, [0, 1])
    q = scanner.control_primes[0]
    gen = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): q - 1})
    horizon = next(n for n in range(100) if scanner.exact_point(n) is None)
    monkeypatch.setattr(scanner, "_substitute", lambda g, n_class: (Polynomial.constant(0, ("u1",)), [0]))
    assert scanner.class_is_structurally_zero([gen], 0)
    # below the horizon the forced verdict is not consulted, so the soundness
    # check still catches a description built on it
    assert scanner.scan([gen], horizon - 1) == []
    assert not any(scanner.is_hit([gen], n) for n in range(horizon))
    claimed = IntersectionDescription((Progression(1, 0, 0),), (), ScanOnly(horizon))
    with pytest.raises(VerificationFailed, match="reported index 0"):
        _soundness_check(claimed, scanner, [gen], EngineOptions())


def test_an_exact_coordinate_at_infinity_in_a_zero_class_is_no_hit():
    # f = (2t^2+1)/(t^2-t) sends 0 -> oo -> 2 -> 9/2 -> ..., and x2 = f(x1)
    # with denominators cleared is identically zero on the one class; x2
    # starts at oo, so the orbit point is off the affine chart at 0 and 1
    f = RationalMap([1, 0, 2], [0, -1, 1])
    names = ("x1", "x2")
    graph = Polynomial(names, {(2, 1): 1, (1, 1): -1, (2, 0): -2, (0, 0): -1})
    scanner = OrbitScanner([f, f], [0, PPoint(1, 0)])
    assert scanner.models[1].delta == 1 and scanner._structural_base == 0
    assert scanner.class_is_structurally_zero([graph], 0)
    assert scanner.exact_point(100) is None
    assert scanner.scan([graph], 100) == list(range(2, 101))
    assert [scanner.is_hit([graph], n) for n in range(3)] == [False, False, True]
    # a coordinate of height 40,000 bits puts the horizon at 1, where x1 = oo:
    # no control prime sees that index finite, so the zero class settles nothing
    names = ("x0", "x1", "x2")
    graph = Polynomial(names, {(0, 2, 1): 1, (0, 1, 1): -1, (0, 2, 0): -2, (0, 0, 0): -1})
    scanner = OrbitScanner([RationalMap.quadratic(1), f, f], [2**40000, 0, PPoint(1, 0)])
    assert scanner.exact_point(1) is None and scanner.class_is_structurally_zero([graph], 1)
    assert not scanner.is_hit([graph], 0) and scanner.is_hit([graph], 2)
    with pytest.raises(PrecisionExhausted, match="no control prime sees every coordinate at index 1 finite"):
        scanner.is_hit([graph], 1)


def test_a_substituted_generator_multiplies_by_no_constant_one(monkeypatch):
    # x2 = f(x1) and x3 = f^2(x1) under f = t^2+1, so every denominator of
    # the substitution is the constant 1
    names = ("x1", "x2", "x3")
    scanner = OrbitScanner([RationalMap.quadratic(1)] * 3, [0, 1, 2])
    gen = Polynomial(names, {(0, 0, 1): 1, (0, 2, 0): -1, (0, 0, 0): -1, (1, 1, 0): 3})
    products = []
    mul = Polynomial.__mul__

    def recorded(a, b):
        if sys._getframe(1).f_code is scan._cleared.__code__:
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    monkeypatch.setattr(Polynomial, "__rmul__", recorded)
    sub, shifts = scanner.substituted_generator(gen, 0)
    monkeypatch.undo()
    one = Polynomial.constant(1, sub.variables)
    assert products
    assert not any(x == 1 or x == one for pair in products for x in pair)
    u = Polynomial.variable("u1")
    assert shifts == [0] and sub == u * (u * u + 1) * 3


@st.composite
def scan_instances(draw):
    """Four coordinates and two generators for the kernel against plain iteration.

    x1 is preperiodic; x2 wanders under t^2+c from a start big enough that
    the exact horizon falls inside the scan; x3 = -f^j(x2's start) reads x2's
    stream from index 1 with delta j.  x4 starts at a multiple of the first
    control prime, a pole there of both rational maps on offer: under
    (t^2+1)/t its residue track is at infinity from index 1 on, under
    (2t^2+1)/(t^2+t) at index 1 only.  Neither orbit meets infinity.
    """
    q = scan._control_candidate(0)
    c1, x1 = draw(st.sampled_from([(-1, 0), (-1, 1), (-2, -2), (0, -1)]))
    c = draw(st.integers(1, 3))
    s = 2 ** draw(st.integers(200, 300)) + draw(st.integers(-9, 9))
    j = draw(st.integers(1, 2))
    f = RationalMap.quadratic(c)
    starts = [x1, s, -iterate(f, s, j).as_fraction(), q * draw(st.sampled_from([1, 2, -1]))]
    maps = [RationalMap.quadratic(c1), f, f, draw(st.sampled_from([JOUKOWSKI, RationalMap([1, 0, 2], [0, 1, 1])]))]
    names = ("x1", "x2", "x3", "x4")
    xs = [Polynomial.variable(v, names) for v in names]
    f_j = f.iterate_polynomial(j, "x2").with_variables(names)
    relation = xs[2] - f_j  # zero from index 1 on
    cycle = xs[0] - draw(st.sampled_from([0, -1, 1, 2, -2]))  # zero on a class, or nowhere
    coeff = st.integers(-3, 3)
    noise = xs[0] * draw(coeff) + xs[1] * draw(coeff) + draw(coeff)
    templates = [relation, cycle, noise, relation * (xs[0] + draw(coeff)), cycle * xs[3], relation + cycle]
    gens = [templates[draw(st.integers(0, len(templates) - 1))] for _ in range(2)]
    return maps, starts, gens


def _as_pair(phi: RationalMap):
    return [int(v) for v in phi.coeffs_f], [int(v) for v in phi.coeffs_g]


@settings(max_examples=15, deadline=None)
@given(scan_instances())
def test_kernel_agrees_with_plain_iteration(instance):
    maps, starts, gens = instance
    limit = 10
    scanner = OrbitScanner(maps, starts)
    assert scanner.control_primes[0] == scan._control_candidate(0)
    assert scanner.models[2].delta != 0 and scanner.models[2].prefix
    assert scanner.exact_point(limit) is None
    expected = fraction_orbit_hits([_as_pair(phi) for phi in maps], starts, [g.terms for g in gens], limit)
    assert scanner.scan(gens, limit) == expected
    # one index at a time, with the scan's class verdicts cached and without
    assert [n for n in range(limit + 1) if scanner.is_hit(gens, n)] == expected
    fresh = OrbitScanner(maps, starts)
    assert [n for n in range(limit + 1) if fresh.is_hit(gens, n)] == expected


def test_a_coordinate_at_infinity_is_never_a_hit(monkeypatch):
    # 0 -> oo -> 0 under 1/t^2, and x1 + 1 is 1 at 0; the orbit of 0 under
    # t^2+1 wanders past the exact horizon
    maps = [RationalMap([1, 0, 0], [0, 0, 1]), RationalMap.quadratic(1)]
    names = ("x1", "x2")
    x1 = Polynomial.variable("x1", names)
    scanner = OrbitScanner(maps, [0, 0])
    assert scanner.preperiodic_cycle_lcm == 2 and scanner.exact_point(1000) is None
    calls = []
    evaluate = scan.residue_eval

    def counted(table, x, q):
        calls.append(x)
        return evaluate(table, x, q)

    monkeypatch.setattr(scan, "residue_eval", counted)
    assert scanner.scan([x1 + 1], 1000) == []
    # an index with x1 = oo costs no residue
    assert len(calls) == 501
    monkeypatch.undo()
    assert scanner.scan([x1], 1000) == list(range(0, 1001, 2))
    assert not scanner.is_hit([x1 + 1], 999) and not scanner.is_hit([x1 * 0], 1)
