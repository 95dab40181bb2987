import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbitlang.cli as cli
from orbitlang.dynsys import (
    EXACT_BITS_CAP,
    INFINITY_POINT,
    MoebiusMap,
    PPoint,
    RationalMap,
    conjugate,
    iterate,
    ramification_portrait,
)
from orbitlang.errors import BadReduction, InvalidOption, PeriodicCriticalPoint
from orbitlang.padics import residue
from orbitlang.polynomials import Polynomial
from orbitlang.reduction import (
    INF_RESIDUE,
    aperiodic_critical_places,
    binary_form_resultant,
    good_reduction,
    has_periodic_root,
    reduce_map,
    reduce_point,
    residue_cycle_multiplier,
    residue_orbit,
)
from oracles import compose


def test_good_reduction_examples():
    f = RationalMap.quadratic(-1)
    for p in (2, 3, 5, 97):
        assert good_reduction(f, p)

    # t^2/3 normalizes to [X^2 : 3Y^2], which degenerates mod 3
    g = RationalMap.from_affine(
        Polynomial.univariate([0, 0, Fraction(1, 3)]), Polynomial.univariate([1])
    )
    assert not good_reduction(g, 3)
    assert good_reduction(g, 5)

    # leading coefficient not a unit
    h = RationalMap.polynomial([1, 0, 3])
    assert not good_reduction(h, 3)
    assert good_reduction(h, 5)


def test_good_reduction_matches_polynomial_criterion():
    rng = random.Random(4)
    for _ in range(40):
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5]))
            for _ in range(rng.randint(2, 4))
        ]
        if not coeffs[-1]:
            coeffs[-1] = Fraction(1)
        phi = RationalMap.polynomial(coeffs)
        aff = phi.affine_coefficients()
        for p in (2, 3, 5, 7):
            elementary = all(c.denominator % p != 0 for c in aff) and aff[-1].numerator % p != 0
            assert good_reduction(phi, p) == elementary, (coeffs, p)


def test_binary_form_resultant_degenerate_rows():
    # forms X^2 and 3Y^2: resultant 9
    assert binary_form_resultant([0, 0, 1], [3, 0, 0]) == 9
    assert binary_form_resultant([0, 1], [1, 0]) in (1, -1)


def test_reduce_point_examples():
    assert reduce_point(Fraction(1, 3), 5) == 2
    assert reduce_point(Fraction(1, 5), 5) is INF_RESIDUE
    assert reduce_point(INFINITY_POINT, 7) is INF_RESIDUE
    assert reduce_point(-1, 3) == 2


def test_reduce_map_and_bad_reduction():
    rm = reduce_map(RationalMap.quadratic(-1), 3)
    assert rm.degree == 2
    with pytest.raises(BadReduction):
        reduce_map(RationalMap.polynomial([1, 0, 3]), 3)


def test_reduce_map_bounds_its_modulus_by_the_exact_cap():
    # 5^28224 has 65,535 bits and 5^28225 has 65,537: the cap is 65,536
    assert (5**28224).bit_length() <= EXACT_BITS_CAP < (5**28225).bit_length()
    f = RationalMap.quadratic(-1)
    assert reduce_map(f, 5, 28224).modulus == 5**28224
    with pytest.raises(InvalidOption, match="--precision 28225 at prime 5") as err:
        reduce_map(f, 5, 28225)
    assert str(EXACT_BITS_CAP) in str(err.value)


def test_residue_orbit_examples():
    rm = reduce_map(RationalMap.quadratic(-1), 3)
    orb = residue_orbit(rm, 0)
    assert (orb.tail, orb.cycle_length) == (0, 2)  # 0 -> 2 -> 0 since -1 = 2 mod 3

    rm5 = reduce_map(RationalMap.quadratic(0), 5)
    orb5 = residue_orbit(rm5, 2)
    assert (orb5.tail, orb5.cycle_length) == (2, 1)  # 2 -> 4 -> 1 -> 1

    fixed = residue_orbit(rm5, 1)
    assert (fixed.tail, fixed.cycle_length) == (0, 1)


LARGE_PRIME_MAPS = {
    "t^2+1": RationalMap.quadratic(1),
    "(t^2+1)/t": RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1])),
}


@pytest.mark.parametrize("name", LARGE_PRIME_MAPS)
def test_residue_orbit_above_a_million(name):
    phi = LARGE_PRIME_MAPS[name]
    rm = reduce_map(phi, 1_000_003)
    for x in (0, 5, INF_RESIDUE):
        orb = residue_orbit(rm, x)
        assert len(set(orb.cycle)) == len(orb.cycle) == orb.cycle_length
        assert rm.apply(orb.cycle[-1]) == orb.cycle[0]
        on_cycle = set(orb.cycle)
        pt = x
        for _ in range(orb.tail):
            assert pt not in on_cycle
            pt = rm.apply(pt)
        assert pt == orb.cycle[0]


def test_pigeonhole_bound():
    rng = random.Random(8)
    for p in (3, 5, 7, 11):
        rm = reduce_map(RationalMap.quadratic(rng.randint(-5, 5)), p)
        for x in list(range(p)) + [INF_RESIDUE]:
            orb = residue_orbit(rm, x)
            assert orb.tail + orb.cycle_length <= p + 1


def test_reduction_commutes_with_composition():
    phi = RationalMap.quadratic(1)
    psi = RationalMap.from_affine(
        Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1])
    )
    p = 7
    comp = compose(phi, psi)
    assert good_reduction(comp, p)
    r_comp = reduce_map(comp, p)
    r_phi, r_psi = reduce_map(phi, p), reduce_map(psi, p)
    for x in list(range(p)) + [INF_RESIDUE]:
        assert r_comp.apply(x) == r_phi.apply(r_psi.apply(x))


def test_iterates_reduce_compatibly():
    phi = RationalMap.quadratic(1)
    p = 5
    rm = reduce_map(phi, p)
    for x in (0, 1, Fraction(2, 3)):
        for n in range(8):
            lhs = reduce_point(iterate(phi, x, n), p)
            rhs = reduce_point(x, p)
            for _ in range(n):
                rhs = rm.apply(rhs)
            assert lhs == rhs


def test_residue_cycle_multiplier():
    rm = reduce_map(RationalMap.quadratic(1), 3)
    orb = residue_orbit(rm, 0)  # 0 -> 1 -> 2 -> 2: cycle (2,)
    lam = residue_cycle_multiplier(rm, orb.cycle)
    assert lam == 2 * 2 % 3 == 1


def _p_integral(p):
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12).filter(lambda d: d % p))


@st.composite
def _map_prime_start(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    kind = draw(st.sampled_from(["t^2+c", "t^3+b*t", "(t^2+1)/t"]))
    if kind == "t^2+c":
        phi = RationalMap.quadratic(draw(_p_integral(p)))
    elif kind == "t^3+b*t":
        phi = RationalMap.polynomial([0, draw(_p_integral(p)), 0, 1])
    else:
        phi = RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))
    return phi, p, draw(_p_integral(p))


def _residue_or_inf(pt, m, p):
    return INF_RESIDUE if pt.b % p == 0 else residue(pt.as_fraction(), m)


@settings(max_examples=150, deadline=None)
@given(_map_prime_start(), st.integers(1, 6), st.integers(0, 5))
def test_reduced_steps_match_exact_iteration(case, M, n):
    phi, p, x = case
    model = reduce_map(phi, p, M)
    value = _residue_or_inf(iterate(phi, x, 0), p**M, p)
    for step in range(1, n + 1):
        value = model.apply(value)
        assert value == _residue_or_inf(iterate(phi, x, step), p**M, p)


def _forms_on_p1(phi, p, x):
    """The action on P^1(F_p) read off the reduced forms at [x : 1] or [1 : 0]."""
    a, b = (1, 0) if x is INF_RESIDUE else (x, 1)
    d = phi.degree
    fv = sum(c * a**i * b ** (d - i) for i, c in enumerate(phi.coeffs_f)) % p
    gv = sum(c * a**i * b ** (d - i) for i, c in enumerate(phi.coeffs_g)) % p
    return INF_RESIDUE if gv == 0 else fv * pow(gv, -1, p) % p


@settings(max_examples=60, deadline=None)
@given(_map_prime_start())
def test_reduced_map_at_precision_one_acts_on_p1(case):
    phi, p, _ = case
    model = reduce_map(phi, p)
    for x in list(range(p)) + [INF_RESIDUE]:
        assert model.apply(x) == _forms_on_p1(phi, p, x)


# ---------------------------------------------------------------------------
# periodic critical points


_map = cli._parse_map


def _factor_place(phi):
    """The one critical place of phi that is an irreducible factor."""
    (place,) = [place for place, _e in ramification_portrait(phi) if not isinstance(place, PPoint)]
    return place


@pytest.mark.parametrize(
    "text, periodic",
    [
        ("(t^2+2)/t", False),  # +-sqrt(2) wander
        ("(2*t^3+2)/(3*t^2)", True),  # Newton's map for t^3 - 2: the cube roots of 2 are fixed
        ("t^3/4-3*t/2", True),  # sqrt(2) and -sqrt(2) swap
        ("(t^2-2)/(2*t)", True),  # +-sqrt(-2) are fixed, and they are the exceptional pair
        ("(2*t^2+1)/(t^2+t)", False),
        ("t^3+6*t", False),
        ("(t^3+1)/(t^2)", False),
    ],
)
def test_has_periodic_root_decides_an_irrational_critical_factor(text, periodic):
    assert has_periodic_root(_map(text), _factor_place(_map(text))) is periodic


@pytest.mark.parametrize(
    "text, point, periodic",
    [
        ("t^2-1", 0, True),
        ("t^2+1", 0, False),
        ("(t^2+1)/t", 1, False),  # 1 -> 2 -> 5/2: period 2 mod 3, a tail mod 5
        ("(t^3+1)/(t^2)", 0, False),  # 0 -> infinity, which is fixed
        ("(t-2^300)^3+(t-2^300)^2+2^300", 2**300, True),
    ],
)
def test_has_periodic_root_decides_a_rational_critical_point(text, point, periodic):
    assert has_periodic_root(_map(text), PPoint.of(point)) is periodic


def test_the_portrait_loop_skips_the_exceptional_pair_and_names_a_periodic_place():
    newton_of_t2_plus_2 = _map("(t^2-2)/(2*t)")
    assert aperiodic_critical_places(newton_of_t2_plus_2, ramification_portrait(newton_of_t2_plus_2)) == []
    two_cycle = _map("t^3/4-3*t/2")
    with pytest.raises(PeriodicCriticalPoint, match="a conjugate critical point is periodic"):
        aperiodic_critical_places(two_cycle, ramification_portrait(two_cycle))


# maps with periodic and with wandering critical points, rational and not
NAMED_CRITICAL_DYNAMICS = [
    _map(text)
    for text in ("t^2-1", "t^2+1", "(t^2+2)/t", "(2*t^3+2)/(3*t^2)", "t^3/4-3*t/2", "(2*t^2+1)/(t^2+t)", "t^3+6*t")
]


@st.composite
def _small_maps(draw):
    d = draw(st.sampled_from([2, 3]))
    coeff = st.integers(-4, 4)
    try:
        return RationalMap([draw(coeff) for _ in range(d + 1)], [draw(coeff) for _ in range(d + 1)])
    except ValueError:
        assume(False)


def _verdicts(phi):
    """(degree, ramification index, periodic) for each critical place, sorted."""
    places = ramification_portrait(phi)
    return sorted((1 if isinstance(p, PPoint) else p.degree("t"), e, has_periodic_root(phi, p)) for p, e in places)


# shifts of up to 401 bits, past the height cutoff of dynsys.orbit_status
SHIFTS = st.builds(
    lambda sign, e, r: sign * 2**e + r, st.sampled_from([1, -1]), st.integers(0, 400), st.integers(-3, 3)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(NAMED_CRITICAL_DYNAMICS), _small_maps()), SHIFTS)
def test_periodicity_verdicts_are_invariant_under_translation(phi, s):
    # psi(t) = phi(t + s) - s moves each critical point by -s and keeps its dynamics
    assume(phi.degree >= 2)
    assert _verdicts(conjugate(phi, MoebiusMap(1, s, 0, 1))) == _verdicts(phi)
