from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlang.dynsys import RationalMap, iterate, orbit_status
from orbitlang.engine import brute_force_scan
from orbitlang.errors import PrecisionExhausted
from orbitlang.polynomials import Polynomial
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
