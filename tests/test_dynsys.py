import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlang.dynsys import (
    INFINITY_POINT,
    CycleRecord,
    MoebiusMap,
    NoExceptional,
    NotPeriodic,
    OneExceptional,
    PPoint,
    RationalMap,
    TwoExceptional,
    classify_cycle,
    conjugate,
    cycle_multiplier,
    exceptional_structure,
    iterate,
    orbit_status,
    ramification_portrait,
)
from orbitlang.errors import SingularMu
from orbitlang.padics import next_prime
from orbitlang.polynomials import Polynomial
from oracles import compose, expanded_forms, iterate_polynomial


T_SQ = RationalMap.quadratic(0)
T_SQ_MINUS_1 = RationalMap.quadratic(-1)
T_SQ_PLUS_1 = RationalMap.quadratic(1)


def test_iterate_examples():
    assert iterate(T_SQ_MINUS_1, 2, 2) == PPoint.of(8)  # 2 -> 3 -> 8
    assert iterate(T_SQ_PLUS_1, Fraction(7, 3), 0) == PPoint.of(Fraction(7, 3))
    # orbit of 0 under t^2+1 is 0, 1, 2, 5, 26, 677
    values = [iterate(T_SQ_PLUS_1, 0, n).as_fraction() for n in range(6)]
    assert values == [0, 1, 2, 5, 26, 677]


def test_iterate_additivity():
    rng = random.Random(5)
    phi = RationalMap.from_affine(
        Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1])
    )  # (t^2+1)/t
    for _ in range(10):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert iterate(phi, x, m + n) == iterate(phi, iterate(phi, x, m), n)


def test_map_normalization_canonical():
    a = RationalMap([Fraction(-1, 2), 0, Fraction(-1)], [Fraction(1, 2), 0, 0])
    b = RationalMap([1, 0, 2], [-1, 0, 0])
    assert a == b


def test_critical_points_examples():
    for c in (0, 1, -1):
        pts = dict(ramification_portrait(RationalMap.quadratic(c)))
        assert pts == {PPoint.of(0): 2, INFINITY_POINT: 2}
    cubic = dict(ramification_portrait(RationalMap.polynomial([0, 0, 0, 1])))
    assert cubic == {PPoint.of(0): 3, INFINITY_POINT: 3}
    phi = RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))
    assert dict(ramification_portrait(phi)) == {PPoint.of(1): 2, PPoint.of(-1): 2}
    # t^3 + t: the conjugate critical points +-i/sqrt(3) are one place
    t_cubed_plus_t = dict(ramification_portrait(RationalMap.polynomial([0, 1, 0, 1])))
    assert t_cubed_plus_t == {INFINITY_POINT: 3, Polynomial.univariate([1, 0, 3]): 2}


def _place_degree(place) -> int:
    return 1 if isinstance(place, PPoint) else place.degree("t")


def test_riemann_hurwitz_on_rational_critical_maps():
    maps = (
        T_SQ,
        T_SQ_MINUS_1,
        RationalMap.polynomial([0, 0, 0, 1]),
        RationalMap.polynomial([0, 1, 0, 1]),  # t^3 + t, critical factor 3t^2 + 1
        RationalMap.polynomial([1, 2, 0, 0, 1]),  # t^4 + 2t + 1, critical factor 2t^3 + 1
        RationalMap.from_affine(Polynomial.univariate([1, 0, 0, 1]), Polynomial.univariate([0, 0, 1])),  # critical t^3 - 2
        RationalMap.from_affine(Polynomial.univariate([2, 0, 1]), Polynomial.univariate([0, 1, 1])),  # no rational one
    )
    for phi in maps:
        total = sum((e - 1) * _place_degree(place) for place, e in ramification_portrait(phi))
        assert total == 2 * phi.degree - 2


def test_classify_cycle_superattracting():
    rec = classify_cycle(T_SQ_MINUS_1, 0, "archimedean")
    assert isinstance(rec, CycleRecord)
    assert rec.period == 2
    assert rec.multiplier == 0
    assert rec.cycle_class == "superattracting"


def test_classify_cycle_indifferent_at_prime():
    rec = classify_cycle(T_SQ, 1, 7)
    assert isinstance(rec, CycleRecord)
    assert rec.period == 1
    assert rec.multiplier == 2
    assert rec.cycle_class == "indifferent"


def test_classify_cycle_strictly_preperiodic():
    rec = classify_cycle(RationalMap.quadratic(-2), 0, "archimedean")
    assert isinstance(rec, NotPeriodic)
    assert rec.reason == "strictly-preperiodic"
    assert (rec.tail, rec.cycle_length) == (2, 1)  # 0 -> -2 -> 2 -> 2


def test_orbit_status_escape_proofs():
    st = orbit_status(T_SQ_PLUS_1, 1)
    assert st.kind == "wanders" and st.proven
    st2 = orbit_status(T_SQ_MINUS_1, Fraction(1, 3))
    assert st2.kind == "wanders" and st2.proven and st2.reason == "p-adic-escape"


def test_orbit_status_periodic_point_of_rational_map():
    phi = RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))
    st = orbit_status(phi, INFINITY_POINT)
    # infinity -> infinity under (t^2+1)/t? No: (t^2+1)/t at infinity has image infinity.
    assert st.kind == "periodic"


def test_multiplier_with_infinity_in_cycle():
    lam = cycle_multiplier(T_SQ, (INFINITY_POINT,))
    assert lam == 0  # superattracting fixed point of a polynomial


def test_exceptional_structure_examples():
    two = exceptional_structure(T_SQ)
    assert isinstance(two, TwoExceptional)
    assert set(two.points) == {PPoint.of(0), INFINITY_POINT}
    assert not two.swapped

    one = exceptional_structure(T_SQ_MINUS_1)
    assert isinstance(one, OneExceptional)
    assert one.point == INFINITY_POINT

    phi = RationalMap.from_affine(
        Polynomial.univariate([1, 0, 1]), Polynomial.univariate([-1, 0, 1])
    )  # (t^2+1)/(t^2-1)
    assert isinstance(exceptional_structure(phi), NoExceptional)


def test_exceptional_swapped_pair():
    # t -> 1/t^2 swaps 0 and infinity
    phi = RationalMap([1, 0, 0], [0, 0, 1])
    ex = exceptional_structure(phi)
    assert isinstance(ex, TwoExceptional)
    assert ex.swapped


def test_conjugate_examples():
    mu = MoebiusMap(2, 0, 0, 1)  # t -> 2t
    psi = conjugate(T_SQ, mu)
    assert psi == RationalMap.polynomial([0, 0, 2])  # mu^-1(mu(t)^2) = 2 t^2
    assert conjugate(T_SQ_PLUS_1, MoebiusMap(1, 0, 0, 1)) == T_SQ_PLUS_1


def test_conjugate_singular():
    with pytest.raises(SingularMu):
        MoebiusMap(1, 2, 2, 4)


def test_multiplier_invariant_under_conjugation():
    rng = random.Random(9)
    for _ in range(8):
        mu = MoebiusMap(rng.randint(1, 5), rng.randint(-3, 3), 0, rng.randint(1, 4))
        phi = T_SQ_MINUS_1
        psi = conjugate(phi, mu)
        before = classify_cycle(phi, 0, "archimedean")
        after = classify_cycle(psi, mu.inverse().apply(0).as_fraction(), "archimedean")
        assert isinstance(before, CycleRecord) and isinstance(after, CycleRecord)
        assert before.multiplier == after.multiplier
        assert before.period == after.period


def test_superattracting_iff_cycle_meets_critical_set():
    for phi, x in [(T_SQ_MINUS_1, 0), (T_SQ, 1), (RationalMap.quadratic(Fraction(-3, 4)), Fraction(-1, 2))]:
        rec = classify_cycle(phi, x, "archimedean")
        assert isinstance(rec, CycleRecord)
        crit = {p for p, _ in ramification_portrait(phi) if isinstance(p, PPoint)}
        assert (rec.multiplier == 0) == any(p in crit for p in rec.points)


def test_a_constant_denominator_needs_no_gcd(monkeypatch):
    def no_gcd(*args, **kwargs):
        raise AssertionError("Polynomial.gcd called")

    monkeypatch.setattr(Polynomial, "gcd", no_gcd)
    phi = RationalMap([1, 0, 1], [1, 0, 0])
    assert phi.is_polynomial and phi.apply(2) == PPoint(5, 1)
    assert RationalMap([1, 0, 2], [3, 0, 0]).apply(1) == PPoint(1, 1)


def test_a_zero_denominator_is_still_a_common_factor():
    # (t)/(0): every form divides the zero form
    with pytest.raises(ValueError, match="common factor"):
        RationalMap([0, 1], [0, 0])
    with pytest.raises(ValueError, match="common factor"):
        RationalMap([1, 0, 1], [0, 0, 0])


def test_iterate_polynomial_matches_pointwise():
    f3 = iterate_polynomial(T_SQ_PLUS_1, 3)
    assert f3.evaluate({"t": 0}) == 5
    assert f3.evaluate({"t": 1}) == 26


def test_orbit_status_semiprime_denominator_escapes_without_factoring():
    p, q = next_prime(10**9), next_prime(10**9 + 100)
    started = time.monotonic()
    status = orbit_status(T_SQ_PLUS_1, Fraction(1, p * q))
    assert time.monotonic() - started < 1.0
    assert (status.kind, status.reason, status.proven) == ("wanders", "p-adic-escape", True)


@st.composite
def _maps(draw):
    d = draw(st.integers(1, 3))
    coeff = st.integers(-4, 4)
    F = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    G = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    try:
        return RationalMap(F, G)
    except ValueError:
        assume(False)


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def _rational_coefficient_maps(draw):
    """Maps of degree 1-4 from rational, in general non-monic, coefficients:
    polynomial (G = g0 Y^d) or not."""
    d = draw(st.integers(1, 4))
    F = draw(st.lists(_FRACTIONS, min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        G = [draw(_FRACTIONS.filter(bool))] + [0] * d
    else:
        G = draw(st.lists(_FRACTIONS, min_size=d + 1, max_size=d + 1))
    try:
        return RationalMap(F, G)
    except ValueError:
        assume(False)


_UNIVARIATES = st.lists(_FRACTIONS, min_size=1, max_size=5).map(Polynomial.univariate).filter(lambda f: not f.is_zero)
_NONCONSTANT = _UNIVARIATES.filter(lambda f: f.total_degree() > 0)


# 150 derandomized examples, about 0.6 s
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rational_coefficient_maps(), _UNIVARIATES, st.one_of(st.just(Polynomial.constant(1, ("t",))), _NONCONSTANT))
def test_forms_at_equal_the_term_by_term_expansion(phi, p, q):
    assert phi.forms_at(p, q) == expanded_forms(phi, p, q)


@st.composite
def _moebius(draw):
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    assume(a * d != b * c)
    return MoebiusMap(a, b, c, d)


_POINTS = st.one_of(
    st.just(INFINITY_POINT),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
)


@settings(max_examples=120, deadline=None)
@given(_maps(), _maps(), _moebius(), _POINTS)
def test_compose_and_conjugate_match_pointwise_apply(phi, psi, mu, x):
    assert compose(phi, psi).apply(x) == phi.apply(psi.apply(x))
    assert conjugate(phi, mu).apply(x) == mu.inverse().apply(phi.apply(mu.apply(x)))
