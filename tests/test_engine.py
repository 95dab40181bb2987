from fractions import Fraction

import pytest

from orbitlang.dynsys import RationalMap, iterate
from orbitlang.engine import (
    Certified,
    EngineOptions,
    Inconclusive,
    IntersectionDescription,
    Progression,
    ScanOnly,
    brute_force_scan,
    decide,
    decide_curve_pair,
)
from orbitlang.errors import HypothesisViolated, PowerMapCase
from orbitlang.polynomials import Polynomial
from orbitlang.varieties import AffineVariety, PlaneCurve


def gen(vars_, terms):
    return Polynomial(vars_, terms)


def x_minus_y():
    return gen(("x1", "x2"), {(1, 0): 1, (0, 1): -1})


def invariant_graph(c, r=1, g=2):
    """y = f^r(x) as a generator in x1..xg (using the first two coordinates)."""
    f = RationalMap.quadratic(c)
    fr = f.iterate_polynomial(r)
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


OPTS = EngineOptions(scan_limit=200, check_limit=48)


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

    verdict = verify_invariant_curve(curve, f.iterate_polynomial(1), 4)
    assert isinstance(verdict, PeriodicWithPeriod)
    assert verdict.period <= 2 * max(p.modulus for p in desc.progressions) + 2


def test_progression_helpers():
    prog = Progression(3, 1, 2)  # {3n + 1 : n >= 2} = {7, 10, 13, ...}
    assert prog.indices_upto(14) == [7, 10, 13]
    assert prog.contains(10) and not prog.contains(4)


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
