import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitlang.dynsys import PPoint, RationalMap, iterate, orbit_status
from orbitlang.engine import (
    IntersectionDescription,
    Progression,
    ScanOnly,
    _soundness_check,
    brute_force_scan,
)
from orbitlang.errors import PrecisionExhausted, VerificationFailed
from orbitlang.padics import residue
from orbitlang.polynomials import Polynomial
from orbitlang import reduction, scan
from orbitlang.scan import OrbitScanner
from oracles import compose, fraction_orbit_hits, iterate_polynomial


def test_control_prime_in_a_generator_denominator_exhausts_precision():
    # the orbits of 0 under t^2+1 and t^2+2 are independent streams that pass
    # the exact horizon before n = 20, so no class verdict settles x1/q + x2 + 1
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(2)]
    q = OrbitScanner(maps, [0, 0], []).control_primes[0]
    gen = Polynomial(("x1", "x2"), {(1, 0): Fraction(1, q), (0, 1): 1, (0, 0): 1})
    scanner = OrbitScanner(maps, [0, 0], [gen])
    assert not scanner.is_hit(5)
    assert scanner.exact_point(20) is None
    with pytest.raises(PrecisionExhausted, match="control prime collides with a coefficient"):
        scanner.is_hit(20)
    # on one stream x1/q + 1 is univariate, and index 20 is a proven escape miss
    gen = Polynomial(("x1",), {(1,): Fraction(1, q), (0,): 1})
    scanner = OrbitScanner([RationalMap.quadratic(1)], [0], [gen])
    assert not scanner.is_hit(5)
    assert scanner.exact_point(20) is None and scanner._structural_verdict(0, 20) == "nonzero"
    assert not scanner.is_hit(20)


def test_classes_keyed_modulo_the_cycle_lcm():
    # 0 -> -1 -> 0 under t^2-1 has cycle 2, and the orbit of 0 under t^2+1
    # wanders, so x1 vanishes on the even class and nowhere on the odd one
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    x1 = Polynomial.variable("x1", ("x1", "x2"))
    assert brute_force_scan(maps, [0, 0], [x1], 1000) == list(range(0, 1001, 2))
    scanner = OrbitScanner(maps, [0, 0], [x1])
    assert scanner.preperiodic_cycle_lcm == 2
    assert scanner.exact_point(1000) is None
    assert scanner._structural_verdict(0, 1000) == "zero"
    assert scanner._structural_verdict(0, 999) == "nonzero"


def _count_residues(monkeypatch, scanner):
    """Record the scan module's residues as (q, 1) each: q is a control prime
    for the residue of one index, a sieve prime for that of one sieve class."""
    calls = []
    evaluate = scan.residue_eval

    def counted(table, x, q):
        assert q in scanner.control_primes or q in scan.SIEVE_PRIMES
        calls.append((q, 1))
        return evaluate(table, x, q)

    monkeypatch.setattr(scan, "residue_eval", counted)
    return calls


def _sieve_work_is_one_residue_per_class(scanner, calls, generators=1):
    """Each usable sieve prime evaluates each generator at most once per class
    (T + K classes at it); returns the control-prime residues."""
    for q in {q for q, _ in calls if q in scan.SIEVE_PRIMES}:
        assert sum(1 for r, _ in calls if r == q) <= generators * (scanner._sieves[q][0] + scanner._sieves[q][1])
    return [c for c in calls if c[0] not in scan.SIEVE_PRIMES]


def test_an_index_past_the_horizon_costs_one_residue_per_generator(monkeypatch):
    # x2 = x1^2 + 1 holds at every index of the orbit of (0, 1) under t^2+1;
    # past the exact horizon an index whose class has no verdict yet costs one
    # first-prime residue per generator evaluated, a zero one finds the class
    # verdict, and from then on the class costs no residue, hits and misses alike
    names = ("x1", "x2")
    graph = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(1)]
    scanner = OrbitScanner(maps, [0, 1], [graph])
    both = OrbitScanner(maps, [0, 1], [graph, graph * diagonal])
    q = scanner.control_primes[0]
    calls = _count_residues(monkeypatch, scanner)
    assert scanner.exact_point(500) is None
    # graph and graph * diagonal are identically zero on the class, and
    # diagonal is x1 - x1^2 - 1 there, nonzero at the control prime; each
    # scanner finds its own verdicts, so index 501 costs a residue per generator
    assert scanner.is_hit(500)
    assert both.is_hit(501)
    assert calls == [(q, 1)] * 3
    assert not OrbitScanner(maps, [0, 1], [diagonal]).is_hit(502)
    assert calls == [(q, 1)] * 4
    # a call on one index builds no sieve data
    assert scanner._sieves == both._sieves == {}
    calls.clear()
    assert scanner.scan(1000) == list(range(1001))
    # no sieve prime settles a class of hits; below the horizon each index
    # costs its residue, and past it the class verdict found above settles it
    horizon = next(n for n in range(1001) if scanner.exact_point(n) is None)
    assert scanner._structural_base == 0
    assert _sieve_work_is_one_residue_per_class(scanner, calls) == [(q, 1)] * horizon
    calls.clear()
    # 3 starts a stream of its own, so x1 - x3 has no class verdict and costs
    # its residue at every index, while graph costs one to find its verdict
    names = ("x1", "x2", "x3")
    graph = Polynomial(names, {(0, 1, 0): 1, (2, 0, 0): -1, (0, 0, 0): -1})
    apart = Polynomial(names, {(1, 0, 0): 1, (0, 0, 1): -1})
    independent = OrbitScanner(maps + maps[:1], [0, 1, 3], [graph, apart])
    assert independent.exact_point(500) is None
    assert not OrbitScanner(maps + maps[:1], [0, 1, 3], [apart]).is_hit(500)
    assert not independent.is_hit(501)
    assert calls == [(q, 1)] * 3
    assert not independent.is_hit(502)
    assert calls == [(q, 1)] * 4


def test_control_primes_are_searched_once_per_process(monkeypatch):
    OrbitScanner([RationalMap.quadratic(1)], [0], [])
    # q t^2 + 1 has bad reduction at the first candidate q, so this scanner
    # searches one candidate more
    q = scan._control_candidate(0)
    bad_at_q = RationalMap([1, 0, q], [1, 0, 0])
    first = OrbitScanner([bad_at_q, RationalMap.quadratic(1)], [0, 0], [])
    assert q not in first.control_primes

    def no_search(n):
        raise AssertionError("control prime candidates searched again")

    monkeypatch.setattr(scan, "next_prime", no_search)
    assert OrbitScanner([RationalMap.quadratic(2)], [Fraction(1, 3)], []).control_primes == OrbitScanner(
        [RationalMap.quadratic(1)], [0], []
    ).control_primes

    def computed_again(*args):
        raise AssertionError("control-prime reduction computed again")

    # each (map, control prime) is reduced once per process, a bad reduction
    # included: no model is built again, and no resultant decides good
    # reduction again
    monkeypatch.setattr(reduction, "_model", computed_again)
    monkeypatch.setattr(reduction, "binary_form_resultant", computed_again)
    assert OrbitScanner([RationalMap.quadratic(1), bad_at_q], [0, 0], []).control_primes == first.control_primes


JOUKOWSKI = RationalMap([1, 0, 1], [0, 1, 0])  # t -> (t^2 + 1)/t


def test_rational_orbits_scan_past_the_exact_horizon():
    # x1 * x2 - x1^2 - 1 is invariant under (t^2+1)/t, and the orbit of 1 wanders
    names = ("x1", "x2")
    invariant = Polynomial(names, {(2, 0): 1, (0, 0): 1, (1, 1): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    maps = [JOUKOWSKI, JOUKOWSKI]
    assert brute_force_scan(maps, [1, 2], [invariant], 1000) == list(range(1001))
    assert brute_force_scan(maps, [1, 2], [diagonal], 1000) == []


def test_a_rational_zero_class_past_the_horizon_costs_no_residue(monkeypatch):
    # x1 * x2 - x1^2 - 1 is invariant under (t^2+1)/t from (1, 2): the orbit
    # could meet infinity, so the class is not settled without reading the
    # residues, but where they are finite its zero verdict stands in once the
    # first index past the horizon has found it
    names = ("x1", "x2")
    invariant = Polynomial(names, {(2, 0): 1, (0, 0): 1, (1, 1): -1})
    scanner = OrbitScanner([JOUKOWSKI, JOUKOWSKI], [1, 2], [invariant])
    calls = _count_residues(monkeypatch, scanner)
    assert scanner.scan(1000) == list(range(1001))
    assert scanner._cut(0, 0) == (scanner._horizon, True)
    assert len(_sieve_work_is_one_residue_per_class(scanner, calls)) == scanner._horizon + 1 < 1000


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
    it = phi if j == 1 else compose(phi, phi)
    num = it.affine_numerator("x1").with_variables(names)
    den = it.affine_denominator("x1").with_variables(names)
    graph = Polynomial.variable("x2", names) * den - num  # x2 = phi^j(x1), denominators cleared
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    start = [x, iterate(phi, x, j)]
    assert OrbitScanner([phi, phi], start, [graph]).scan(200) == list(range(201))
    assert OrbitScanner([phi, phi], start, [diagonal]).scan(200) == []


def test_below_the_horizon_only_zero_residues_are_evaluated_exactly(monkeypatch):
    # the orbit of (0, 1) under t^2+1: 0, 1, 2, 5, 26, ... and its shift
    names = ("x1", "x2")
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(1)]
    graph = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    diagonal = Polynomial(names, {(1, 0): 1, (0, 1): -1})
    meets_26 = Polynomial(names, {(1, 0): 1, (0, 0): -26})
    scanner = OrbitScanner(maps, [0, 1], [])
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
        assert OrbitScanner(maps, [0, 1], [gen]).scan(horizon - 1) == hits
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
    scanner = OrbitScanner(maps, [0, 0], [x1])
    horizon = next(n for n in range(100) if scanner.exact_point(n) is None)
    calls = _count_residues(monkeypatch, scanner)
    assert scanner.scan(1000) == list(range(0, 1001, 2))
    # x1 is 1 mod 2 on the odd class, so the sieve settles every odd index with
    # one residue and no class verdict; the even class costs one control-prime
    # residue per index below the horizon and one more past it, which finds
    # its verdict, identically zero, that then stands in for the rest
    assert scanner._structural_base == 0 and (0, 1) not in scanner._verdicts
    assert _sieve_work_is_one_residue_per_class(scanner, calls) == [(scanner.control_primes[0], 1)] * (
        (horizon + 1) // 2 + 1
    )
    assert scanner._cut(0, 1000) == (horizon, True)
    # the odd class's substitution is the nonzero constant -1, a miss cut from the base
    assert scanner._structural_verdict(0, 999) == "nonzero" and scanner._cut(0, 999) == (0, False)
    assert scanner.scan(1000) == list(range(0, 1001, 2))


def test_a_wrong_zero_verdict_does_not_stand_in_for_exact_evaluation(monkeypatch):
    # x2 - x1^2 - 1 + q, q the first control prime, has a zero residue there at
    # every index of the orbit of (0, 1) under t^2+1, and is q exactly
    names = ("x1", "x2")
    maps = [RationalMap.quadratic(1)] * 2
    q = OrbitScanner(maps, [0, 1], []).control_primes[0]
    gen = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): q - 1})
    scanner = OrbitScanner(maps, [0, 1], [gen])
    horizon = next(n for n in range(100) if scanner.exact_point(n) is None)
    monkeypatch.setattr(scanner, "substituted_generator", lambda j, n_class: (Polynomial.constant(0, ("u1",)), [0]))
    assert scanner.class_is_structurally_zero(0)
    # below the horizon the forced verdict is not consulted, so the soundness
    # check still catches a description built on it
    assert scanner.scan(horizon - 1) == []
    assert not any(scanner.is_hit(n) for n in range(horizon))
    claimed = IntersectionDescription((Progression(1, 0, 0),), (), ScanOnly(horizon))
    with pytest.raises(VerificationFailed, match="reported index 0"):
        _soundness_check(claimed, scanner)


def test_an_exact_coordinate_at_infinity_in_a_zero_class_is_no_hit():
    # f = (2t^2+1)/(t^2-t) sends 0 -> oo -> 2 -> 9/2 -> ..., and x2 = f(x1)
    # with denominators cleared is identically zero on the one class; x2
    # starts at oo, so the orbit point is off the affine chart at 0 and 1
    f = RationalMap([1, 0, 2], [0, -1, 1])
    names = ("x1", "x2")
    graph = Polynomial(names, {(2, 1): 1, (1, 1): -1, (2, 0): -2, (0, 0): -1})
    scanner = OrbitScanner([f, f], [0, PPoint(1, 0)], [graph])
    assert scanner.models[1].delta == 1 and scanner._structural_base == 0
    assert scanner.class_is_structurally_zero(0)
    assert scanner.exact_point(100) is None
    assert scanner.scan(100) == list(range(2, 101))
    assert [scanner.is_hit(n) for n in range(3)] == [False, False, True]
    # a coordinate of height 40,000 bits puts the horizon at 1, where x1 = oo:
    # no control prime sees that index finite, so the zero class settles nothing
    names = ("x0", "x1", "x2")
    graph = Polynomial(names, {(0, 2, 1): 1, (0, 1, 1): -1, (0, 2, 0): -2, (0, 0, 0): -1})
    scanner = OrbitScanner([RationalMap.quadratic(1), f, f], [2**40000, 0, PPoint(1, 0)], [graph])
    assert scanner.exact_point(1) is None and scanner.class_is_structurally_zero(1)
    assert not scanner.is_hit(0) and scanner.is_hit(2)
    with pytest.raises(PrecisionExhausted, match="no control prime sees every coordinate at index 1 finite"):
        scanner.is_hit(1)


def test_a_substituted_generator_multiplies_by_no_constant_one(monkeypatch):
    # x2 = f(x1) and x3 = f^2(x1) under f = t^2+1, so every denominator of
    # the substitution is the constant 1
    names = ("x1", "x2", "x3")
    gen = Polynomial(names, {(0, 0, 1): 1, (0, 2, 0): -1, (0, 0, 0): -1, (1, 1, 0): 3})
    scanner = OrbitScanner([RationalMap.quadratic(1)] * 3, [0, 1, 2], [gen])
    products = []
    mul = Polynomial.__mul__

    def recorded(a, b):
        if sys._getframe(1).f_code is scan._cleared.__code__:
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    monkeypatch.setattr(Polynomial, "__rmul__", recorded)
    sub, shifts = scanner.substituted_generator(0, 0)
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
    f_j = iterate_polynomial(f, j, "x2").with_variables(names)
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
    scanner = OrbitScanner(maps, starts, gens)
    assert scanner.control_primes[0] == scan._control_candidate(0)
    assert scanner.models[2].delta != 0 and scanner.models[2].prefix
    assert scanner.exact_point(limit) is None
    expected = fraction_orbit_hits([_as_pair(phi) for phi in maps], starts, [g.terms for g in gens], limit)
    assert scanner.scan(limit) == expected
    # one index at a time, with the scan's class verdicts cached and without
    assert [n for n in range(limit + 1) if scanner.is_hit(n)] == expected
    fresh = OrbitScanner(maps, starts, gens)
    assert [n for n in range(limit + 1) if fresh.is_hit(n)] == expected


def test_a_coordinate_at_infinity_is_never_a_hit(monkeypatch):
    # 0 -> oo -> 0 under 1/t^2, and x1 + 1 is 1 at 0; the orbit of 0 under
    # t^2+1 wanders past the exact horizon
    maps = [RationalMap([1, 0, 0], [0, 0, 1]), RationalMap.quadratic(1)]
    names = ("x1", "x2")
    x1 = Polynomial.variable("x1", names)
    scanner = OrbitScanner(maps, [0, 0], [x1 + 1])
    assert scanner.preperiodic_cycle_lcm == 2 and scanner.exact_point(1000) is None
    calls = []
    evaluate = scan.residue_eval

    def counted(table, x, q):
        if q in scanner.control_primes:
            calls.append(x)
        return evaluate(table, x, q)

    monkeypatch.setattr(scan, "residue_eval", counted)
    assert scanner.scan(1000) == []
    # x1 + 1 is the nonzero constant 1 on the even class and x1 is at infinity
    # on the odd one, so both classes are settled misses and no index costs a control-prime residue
    assert calls == []
    assert scanner._cut(0, 0) == scanner._cut(0, 1) == (0, False)
    monkeypatch.undo()
    assert OrbitScanner(maps, [0, 0], [x1]).scan(1000) == list(range(0, 1001, 2))
    assert not scanner.is_hit(999) and not OrbitScanner(maps, [0, 0], [x1 * 0]).is_hit(1)


def test_a_no_hit_scan_computes_no_exact_value_past_the_status_prefix(monkeypatch):
    # the orbits of 0 under t^2+1 and t^2+2 are independent streams, and
    # x1 - x2 - 5 vanishes nowhere and has no class verdict, so every index
    # is settled by a nonzero first-prime residue
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(2)]
    gen = Polynomial(("x1", "x2"), {(1, 0): 1, (0, 1): -1, (0, 0): -5})
    applied = []
    apply = RationalMap.apply

    def counted(phi, x):
        applied.append(x)
        return apply(phi, x)

    scanner = OrbitScanner(maps, [0, 0], [gen])
    monkeypatch.setattr(RationalMap, "apply", counted)
    assert scanner.scan(1000) == []
    assert applied == []
    assert [s.exact for s in scanner.streams] == [list(orbit_status(phi, 0).prefix) for phi in maps]


def _lookup_models(maps, starts):
    """(stream, delta, prefix length) per wandering coordinate, by looking up
    exact values: each orbit's first PREFIX_LIMIT values below the height cap,
    the first shared value b, then the earliest stream, then its first index a."""
    lookup, out, streams = {}, [], 0
    for phi, x in zip(maps, starts):
        values = [PPoint.of(x)]
        while len(values) < scan.PREFIX_LIMIT:
            value = phi.apply(values[-1])
            if value.height_bits() > scan.EXACT_BITS_CAP:
                break
            values.append(value)
        for b, value in enumerate(values):
            if (phi, value) in lookup:
                s, a = lookup[phi, value]
                out.append((s, a - b, b))
                break
        else:
            for a, value in enumerate(values):
                lookup.setdefault((phi, value), (streams, a))
            out.append((streams, 0, 0))
            streams += 1
    return out


@pytest.mark.parametrize("c, s, j", [(1, 3, 1), (2, -5, 2), (-1, Fraction(1, 2), 1), (3, 2**300 + 1, 2)])
def test_residue_aliasing_finds_the_exact_lookup_models(c, s, j):
    # -f^j(s) and f^j(s) share f^(j+1)(s) one step later: the coordinate reads
    # the first stream with delta j after a one-point prefix; 7 starts a
    # stream of its own, and -7 and 7 then collide after one step; s + q has
    # the residues of s at the first control prime q but none of its values
    f = RationalMap.quadratic(c)
    starts = [s, -iterate(f, s, j).as_fraction(), 7, -7, s + scan._control_candidate(0)]
    scanner = OrbitScanner([f] * 5, starts, [])
    models = [(m.stream, m.delta, len(m.prefix)) for m in scanner.models]
    assert models == _lookup_models([f] * 5, starts)
    assert models[1] == (0, j, 1) and models[3] == (1, 0, 1) and models[4] == (2, 0, 0)
    assert scanner.models[1].prefix == (PPoint.of(starts[1]),)


def _of_bits(lo: int, hi: int):
    """Integers whose bit length is drawn uniformly from lo..hi."""
    return st.integers(lo, hi).flatmap(lambda k: st.integers(2 ** (k - 1), 2**k - 1))


@settings(max_examples=300, deadline=None)
@example([1, 0], 1, 1, 2**40, 1)  # past the cap: 2^80 + 1
@example([0, 1], 1, 2, 2**32, 1)  # not past it: (2^64 + 2^32) / 2 has 64 bits
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=3),
    st.integers(-5, 5).filter(bool),
    st.integers(1, 7),
    st.tuples(st.sampled_from([1, -1]), _of_bits(18, 40)).map(lambda t: t[0] * t[1]),
    st.one_of(st.just(1), _of_bits(1, 40)),
)
def test_the_height_bound_skips_only_values_past_the_cap(low, lead, g0, a, b):
    phi = RationalMap(low + [lead], [g0] + [0] * len(low))
    x = PPoint(a, b)
    with mock.patch.object(scan, "EXACT_BITS_CAP", 64):
        stream = scan._Stream(phi, [x], [])
        if stream.past_cap(x):
            assert phi.apply(x).height_bits() > 64
        # the exact values are those of plain iteration up to the cap
        values = [x]
        for _ in range(20):
            value = phi.apply(values[-1])
            if value.height_bits() > 64:
                break
            values.append(value)
        stream.exact_value(20)
        assert stream.exact == values


@st.composite
def cut_instances(draw):
    """Polynomial coordinates and generators whose class cuts come out zero,
    nonzero or escape.

    x1 is preperiodic; x2 wanders under t^2+c from a start big enough that
    the exact horizon falls inside the scan; x3 = -f^j(x2's start) reads x2's
    stream from index 1 with delta j, or, with x2 and x3 swapped, opens the
    stream and x2 reads it with delta -j.  The first generator is the relation
    x3 = f^j(x2) (identically zero on every class), x1 - k for k off x1's
    orbit (a nonzero constant on every class) or x2 + m x3 + k (univariate in
    the stream, so a miss once the stream escapes); a second one may follow.
    """
    c1, x1 = draw(st.sampled_from([(-1, 0), (-1, 1), (-2, -2), (0, -1)]))
    c = draw(st.integers(1, 3))
    s = 2 ** draw(st.integers(200, 300)) + draw(st.integers(-9, 9))
    j = draw(st.integers(1, 2))
    f = RationalMap.quadratic(c)
    starts = [x1, s, -iterate(f, s, j).as_fraction()]
    maps = [RationalMap.quadratic(c1), f, f]
    names = ("x1", "x2", "x3")
    xs = [Polynomial.variable(v, names) for v in names]
    coeff = st.integers(-3, 3)
    relation = xs[2] - iterate_polynomial(f, j, "x2").with_variables(names)
    outcome = draw(st.sampled_from(["zero", "nonzero", "escape"]))
    first = {
        "zero": relation * (xs[0] + draw(coeff)),
        "nonzero": xs[0] - draw(st.sampled_from([3, -3, 5])),
        "escape": xs[1] + xs[2] * draw(coeff) + draw(coeff),
    }[outcome]
    pool = [relation, xs[0] - draw(st.integers(-2, 2)), xs[0] * draw(coeff) + xs[1] * draw(coeff) + draw(coeff)]
    gens = [first] + draw(st.lists(st.sampled_from(pool), max_size=1))
    if draw(st.booleans()):
        starts[1:], maps[1:] = starts[:0:-1], maps[:0:-1]
        gens = [Polynomial(names, {(e[0], e[2], e[1]): v for e, v in g.terms.items()}) for g in gens]
    return maps, starts, gens, outcome


@settings(max_examples=20, deadline=None)
@given(cut_instances())
def test_each_cut_outcome_agrees_with_plain_iteration(instance):
    maps, starts, gens, outcome = instance
    limit = 12
    scanner = OrbitScanner(maps, starts, gens)
    period, base = scanner.preperiodic_cycle_lcm, scanner._structural_base
    assert scanner.exact_point(limit) is None
    assert [(m.stream, m.delta, len(m.prefix)) for m in scanner.models[1:]] == _lookup_models(maps[1:], starts[1:])
    expected = fraction_orbit_hits([_as_pair(phi) for phi in maps], starts, [g.terms for g in gens], limit)
    assert scanner.scan(limit) == expected
    assert [n for n in range(limit + 1) if scanner.is_hit(n)] == expected
    fresh = OrbitScanner(maps, starts, gens)
    assert [n for n in range(limit + 1) if fresh.is_hit(n)] == expected
    # the first generator's cuts settle indices inside the scan, as its outcome says
    cuts = [scanner._cut(0, n) for n in range(base, base + period)]
    sub_is_constant = [scanner.substituted_generator(0, n)[0].is_constant() for n in range(period)]
    if outcome == "zero":
        assert all(hit and cut == max(base, scanner._horizon) <= limit for cut, hit in cuts)
    elif outcome == "nonzero":
        assert all(sub_is_constant) and cuts == [(base, False)] * period
    else:
        assert not any(sub_is_constant) and all(not hit and cut <= limit for cut, hit in cuts)


def test_an_escape_cut_reads_the_stream_at_its_shift():
    # 1 opens the stream of t^2+1 and 0 reads it one step behind (delta -1):
    # x2 = 26 at index 4, where the stream is at 677 and has escaped past 26's
    # root bound, so the escape settles x2 - 26 as a miss only from index 5
    f = RationalMap.quadratic(1)
    gen = Polynomial(("x1", "x2"), {(0, 1): 1, (0, 0): -26})
    scanner = OrbitScanner([f, f], [1, 0], [gen])
    assert scanner.models[1].delta == -1 and scanner._cut(0, 0) == (5, False)
    assert scanner.scan(100) == [4] and scanner.is_hit(4)


def test_the_soundness_check_reevaluates_no_scanned_index(monkeypatch):
    # the orbit of (0, 1) under t^2+1: x2 = x1^2 + 1 at every index, and
    # x1 = 26 at index 4 only
    names = ("x1", "x2")
    graph = Polynomial(names, {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    meets_26 = Polynomial(names, {(1, 0): 1, (0, 0): -26})
    maps = [RationalMap.quadratic(1)] * 2
    evaluated = []
    cleared = scan._cleared

    def counted(gen, coords, one):
        if isinstance(one, int):
            evaluated.append(gen)
        return cleared(gen, coords, one)

    monkeypatch.setattr(scan, "_cleared", counted)
    for gens, description in (
        ([graph], IntersectionDescription((Progression(1, 0, 0),), (), ScanOnly(100))),
        ([meets_26], IntersectionDescription((), (4,), ScanOnly(100))),
    ):
        scanner = OrbitScanner(maps, [0, 1], gens)
        scanner.scan(100)
        assert evaluated
        evaluated.clear()
        _soundness_check(description, scanner)
        assert evaluated == []
        # a fresh scanner evaluates them
        _soundness_check(description, OrbitScanner(maps, [0, 1], gens))
        assert evaluated
        evaluated.clear()


@pytest.mark.parametrize("k", [12, 13])
def test_a_no_hit_scan_of_an_aliased_pair_builds_no_substitution(monkeypatch, k):
    # (3, f^k(3)) under f = t^2+1: x2 reads x1's stream at delta k, so x1 - x2
    # on a class is x1 - f^k(x1), of degree 2^k; no residue of it is zero, so
    # no class verdict is needed and none is built
    f = RationalMap.quadratic(1)
    gen = Polynomial(("x1", "x2"), {(1, 0): 1, (0, 1): -1})
    scanner = OrbitScanner([f, f], [3, iterate(f, 3, k).as_fraction()], [gen])
    assert (scanner.models[1].stream, scanner.models[1].delta) == (0, k)

    def no_substitution(j, n_class):
        raise AssertionError("substituted generator built")

    monkeypatch.setattr(scanner, "substituted_generator", no_substitution)
    start = time.perf_counter()
    assert scanner.scan(1000) == []
    assert time.perf_counter() - start < 10


def test_the_sieve_settles_a_multi_map_line_before_any_control_prime(monkeypatch):
    # x1 - 5*x2 - 2 from (2, 1) under t^2+3 and t^2+1: mod 2 both orbits
    # alternate 0, 1 with no tail, out of step, so the line is 1 mod 2 on both
    # classes and no index reads a control-prime residue
    maps = [RationalMap.quadratic(3), RationalMap.quadratic(1)]
    gen = Polynomial(("x1", "x2"), {(1, 0): 1, (0, 1): -5, (0, 0): -2})
    scanner = OrbitScanner(maps, [2, 1], [gen])
    calls = _count_residues(monkeypatch, scanner)
    assert scanner.scan(1000) == []
    tail, period, _ = scanner._sieves[2]
    assert (tail, period) == (0, 2) and calls == [(2, 1)] * 2
    assert brute_force_scan(maps, [2, 1], [gen], 1000) == []


@st.composite
def sieve_instances(draw):
    """Three coordinates and up to two generators that leave some small prime
    unusable or only partly usable.

    x1 is preperiodic; x2 wanders under t^2+c from a start whose denominator
    may be 2 or 3 (that prime is then unusable); x3 wanders under (t^2+1)/t
    from 1, 2 or 3, whose residue orbit reaches infinity at 2 (and at 3 from
    3).  A generator may carry a coefficient with denominator 2, so that it
    does not count at 2.  The generators vanish on a class of x1, at one
    index of x2 or x3, or nowhere.
    """
    c1, x1 = draw(st.sampled_from([(-1, 0), (-1, 1), (-2, -2), (0, -1), (-2, 2)]))
    c = draw(st.integers(1, 3))
    big = draw(st.sampled_from([0, 2**200, 2**250]))
    s = Fraction(big + draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3])))
    f = RationalMap.quadratic(c)
    x3 = draw(st.integers(1, 3))
    maps, starts = [RationalMap.quadratic(c1), f, JOUKOWSKI], [x1, s, x3]
    names = ("x1", "x2", "x3")
    xs = [Polynomial.variable(v, names) for v in names]
    half = Fraction(1, draw(st.sampled_from([1, 2])))
    coeff = st.integers(-3, 3)
    on_x2 = xs[1] - iterate(f, s, draw(st.integers(0, 3))).as_fraction()
    on_x3 = xs[2] - iterate(JOUKOWSKI, x3, draw(st.integers(0, 3))).as_fraction()
    cycle = xs[0] - draw(st.sampled_from([0, -1, 1, 2, -2]))
    noise = xs[0] * draw(coeff) + xs[1] * (half * draw(coeff)) + xs[2] * draw(coeff) + draw(coeff)
    templates = [on_x2 * half, on_x3, cycle, cycle * half, noise, cycle * on_x3, on_x2 * cycle]
    gens = [templates[draw(st.integers(0, len(templates) - 1))] for _ in range(draw(st.integers(1, 2)))]
    return maps, starts, gens


@settings(max_examples=25, deadline=None)
@given(sieve_instances())
def test_the_sieve_agrees_with_plain_iteration(instance):
    maps, starts, gens = instance
    limit = 12
    scanner = OrbitScanner(maps, starts, gens)
    expected = fraction_orbit_hits([_as_pair(phi) for phi in maps], starts, [g.terms for g in gens], limit)
    assert scanner.scan(limit) == expected
    assert [n for n in range(limit + 1) if scanner.is_hit(n)] == expected
    fresh = OrbitScanner(maps, starts, gens)
    assert [n for n in range(limit + 1) if fresh.is_hit(n)] == expected
    # a prime dividing a start's denominator is unusable
    for q in (2, 3):
        assert (scanner._reductions_at(q) is None) == (Fraction(starts[1]).denominator % q == 0)
