from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlang.dynsys import RationalMap, iterate, orbit_status
from orbitlang.engine import brute_force_scan
from orbitlang.errors import PrecisionExhausted
from orbitlang.polynomials import Polynomial
from orbitlang import scan
from orbitlang.scan import OrbitScanner


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
    evaluate = OrbitScanner._modular_value

    def counted(self, gen, n, qi):
        calls.append((n, qi))
        return evaluate(self, gen, n, qi)

    monkeypatch.setattr(OrbitScanner, "_modular_value", counted)
    assert scanner.exact_point(500) is None
    assert scanner.is_hit([graph], 500)
    assert calls == [(500, 0)]
    calls.clear()
    assert scanner.is_hit([graph, graph * diagonal], 501)
    assert calls == [(501, 0), (501, 0)]
    calls.clear()
    assert not scanner.is_hit([diagonal], 502)
    assert calls == [(502, 0)]
    calls.clear()
    assert scanner.scan([graph], 1000) == list(range(1001))
    horizon = next(n for n in range(1001) if scanner.exact_point(n) is None)
    assert calls == [(n, 0) for n in range(horizon, 1001)]


def test_control_primes_are_searched_once_per_process(monkeypatch):
    OrbitScanner([RationalMap.quadratic(1)], [0])

    def no_search(n):
        raise AssertionError("control prime candidates searched again")

    monkeypatch.setattr(scan, "next_prime", no_search)
    assert OrbitScanner([RationalMap.quadratic(2)], [Fraction(1, 3)]).control_primes == OrbitScanner(
        [RationalMap.quadratic(1)], [0]
    ).control_primes


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
