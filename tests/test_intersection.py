import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbitlang.cli as cli
import orbitlang.intersection as intersection
from orbitlang.dynsys import RationalMap
from orbitlang.errors import DegreeCapExceeded, InexactDivision, PeriodicCriticalPoint
from orbitlang.intersection import (
    bivariate_squarefree,
    diagonal_pullback,
    pullback_squarefree,
    ramification_bound,
)
from orbitlang.padics import is_prime
from orbitlang.polynomials import Polynomial
from orbitlang.reduction import good_reduction
from oracles import divexact


def plane(terms):
    return Polynomial(("x", "y"), terms)


def test_level_zero_is_diagonal():
    X0 = diagonal_pullback(RationalMap.quadratic(2), 0)
    assert X0.poly == plane({(1, 0): 1, (0, 1): -1})


def test_level_one_factors_for_quadratic():
    for c in (1, 2, Fraction(-1)):
        X1 = diagonal_pullback(RationalMap.quadratic(c), 1)
        assert X1.poly == plane({(2, 0): 1, (0, 2): -1})
        Y1 = X1.layers[1]
        assert Y1 == plane({(1, 0): 1, (0, 1): 1})


def test_power_map_level_two_factors():
    X2 = diagonal_pullback(RationalMap.quadratic(0), 2)
    assert X2.poly == plane({(4, 0): 1, (0, 4): -1})
    _, factors = X2.poly.factor_list()
    degrees = sorted(f.total_degree() for f, _ in factors)
    assert degrees == [1, 1, 2]


def test_divided_difference():
    dd = diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 1).layers[1]  # t^3 + t
    # (u^3 + u - v^3 - v)/(u - v) = u^2 + uv + v^2 + 1
    assert dd == plane({(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): 1})


def test_layer_examples():
    Y1 = diagonal_pullback(RationalMap.quadratic(3), 1).layers[1]
    assert Y1 == plane({(1, 0): 1, (0, 1): 1}) and bivariate_squarefree(Y1)

    Y2 = diagonal_pullback(RationalMap.quadratic(0), 2).layers[2]
    assert Y2 == plane({(2, 0): 1, (0, 2): 1}) and bivariate_squarefree(Y2)

    f = RationalMap.quadratic(-1)
    X2 = diagonal_pullback(f, 2)
    Y2b = X2.layers[2]
    assert X2.chain[1] * Y2b == X2.poly
    assert bivariate_squarefree(Y2b)


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        diagonal_pullback(RationalMap.quadratic(1), 7)
    assert diagonal_pullback(RationalMap.quadratic(1), 7, cap=7).level == 7


def test_chain_divisibility_and_degrees():
    for c in (1, 2):
        f = RationalMap.quadratic(c)
        pb = diagonal_pullback(f, 4)
        for n in range(5):
            assert pb.chain[n].degree("x") == 2**n
            assert pb.chain[n].degree("y") == 2**n
        for n in range(1, 5):
            divexact(pb.chain[n], pb.chain[n - 1])


def test_rational_map_chain():
    phi = RationalMap.from_affine(
        Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1])
    )  # (t^2 + 1)/t
    pb = diagonal_pullback(phi, 2, cap=3)
    assert divexact(pb.chain[1], pb.chain[0]) is not None
    assert divexact(pb.chain[2], pb.chain[1]) is not None


def test_ramification_bound_examples():
    assert ramification_bound(RationalMap.quadratic(1)) == 2
    with pytest.raises(PeriodicCriticalPoint):
        ramification_bound(RationalMap.quadratic(-1))
    assert ramification_bound(RationalMap.polynomial([0, 1, 0, 1])) == 4  # t^3 + t


def test_ramification_bound_computes_one_portrait(monkeypatch):
    import orbitlang.dynsys as dynsys

    calls = []
    honest = dynsys.ramification_portrait

    def counted(phi):
        calls.append(phi)
        return honest(phi)

    monkeypatch.setattr(dynsys, "ramification_portrait", counted)
    monkeypatch.setattr(intersection, "ramification_portrait", counted)
    assert ramification_bound(RationalMap.polynomial([0, 1, 0, 1])) == 4
    assert len(calls) == 1


def test_multiplicity_bounded_by_ramification():
    f = RationalMap.quadratic(1)
    M = ramification_bound(f)
    pb = diagonal_pullback(f, 4)
    rng = random.Random(12)
    for _ in range(25):
        P = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        Q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        layers_hit = sum(
            1 for n in range(5) if pb.layers[n].evaluate({"x": P, "y": Q}) == 0
        )
        assert layers_hit <= M


def test_squarefree_detects_squares():
    square = plane({(1, 0): 1, (0, 1): 1}) * plane({(1, 0): 1, (0, 1): 1})
    assert not bivariate_squarefree(square)
    assert bivariate_squarefree(plane({(2, 0): 1, (0, 2): 1}))


def test_content_in_x():
    y_plus_1 = plane({(0, 1): 1, (0, 0): 1})
    poly = y_plus_1 * plane({(2, 0): 1, (1, 1): 3, (0, 1): -1})
    assert intersection._content_in_x(poly).monic() == Polynomial(("y",), {(1,): 1, (0,): 1})
    assert intersection._content_in_x(plane({(2, 0): 3, (1, 0): 2, (0, 2): 1})).total_degree() == 0
    assert not bivariate_squarefree(y_plus_1 * y_plus_1 * plane({(1, 0): 1, (0, 1): -1}))


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [0, 1, 0, 1], [0, 7, 0, 1]], ids=["t^2+1", "t^3+t", "t^3+7t"])
def test_layer_content_of_a_monic_map_needs_no_gcd(monkeypatch, coeffs):
    layers = diagonal_pullback(RationalMap.polynomial(coeffs), 4).layers

    def no_gcd(self, other):
        raise AssertionError("a layer of a monic map has a constant x-coefficient")

    monkeypatch.setattr(Polynomial, "gcd", no_gcd)
    for Y in layers:
        assert intersection._content_in_x(Y).total_degree() == 0


RATIONAL_MAPS = [
    ((1, 0, 1), (0, 1)),  # (t^2 + 1)/t
    ((-2, 0, 1), (0, 2)),  # (t^2 - 2)/(2t)
    ((1, 0, 0, 1), (0, 0, 1)),  # (t^3 + 1)/t^2
]


@pytest.mark.parametrize("num, den", RATIONAL_MAPS)
def test_rational_layers_match_long_division(num, den):
    phi = RationalMap.from_affine(Polynomial.univariate(num), Polynomial.univariate(den))
    pb = diagonal_pullback(phi, 3)
    assert pb.layers[0] == pb.chain[0] == plane({(1, 0): 1, (0, 1): -1})
    for k in range(1, 4):
        assert pb.layers[k] == divexact(pb.chain[k], pb.chain[k - 1])


@pytest.mark.parametrize("phi", [RationalMap.quadratic(1), RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))], ids=["t^2+1", "(t^2+1)/t"])
def test_tampered_layer_fails_the_chain_check(monkeypatch, phi):
    honest = intersection._bezoutian_at

    def tampered(factors):
        return honest(factors) + plane({(0, 0): 1})

    monkeypatch.setattr(intersection, "_bezoutian_at", tampered)
    with pytest.raises(InexactDivision):
        diagonal_pullback(phi, 2)


def _bumped_on_call(honest, call):
    """`honest`, except that its result on the given call (0-based) has the
    coefficient of its top power of y moved by 1 (a term in a row of many)."""
    calls = []

    def tampered(*args):
        poly = honest(*args)
        calls.append(None)
        if len(calls) - 1 != call:
            return poly
        top = max(poly.terms, key=lambda e: (sum(e), e[::-1]))
        return poly + plane({top: 1})

    return tampered


def test_tampered_high_degree_layer_coefficient_fails_the_chain_check(monkeypatch):
    # the fifth Bezoutian is the level-5 layer; its y^162 coefficient moves
    monkeypatch.setattr(intersection, "_bezoutian_at", _bumped_on_call(intersection._bezoutian_at, 4))
    with pytest.raises(InexactDivision, match="level 5"):
        diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 5)


def test_tampered_chain_coefficient_fails_the_chain_check(monkeypatch):
    # the sixth cross difference is chain[5]; its y^243 coefficient moves
    monkeypatch.setattr(intersection, "_cross", _bumped_on_call(intersection._cross, 5))
    with pytest.raises(InexactDivision, match="level 5"):
        diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 5)


def test_tampered_level_zero_fails_the_chain_check(monkeypatch):
    # chain[0] = x - y is proven once, before level 1 takes it as its level before
    monkeypatch.setattr(intersection, "_cross", _bumped_on_call(intersection._cross, 0))
    with pytest.raises(InexactDivision, match="level 1"):
        diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 2)


def test_tampered_rational_chain_coefficient_fails_the_chain_check(monkeypatch):
    # the fifth cross difference of (t^3 + 1)/t^2 is chain[4], of 1,000 terms
    monkeypatch.setattr(intersection, "_cross", _bumped_on_call(intersection._cross, 4))
    phi = RationalMap.from_affine(Polynomial.univariate([1, 0, 0, 1]), Polynomial.univariate([0, 0, 1]))
    with pytest.raises(InexactDivision, match="level 4"):
        diagonal_pullback(phi, 4)


def test_level_five_check_rejects_a_chain_coefficient_off_by_one():
    phi = RationalMap.polynomial([0, 7, 0, 1])  # t^3 + 7t, monic: the forms need no scale
    pb = diagonal_pullback(phi, 5)
    bezout = intersection._bezout_matrix(phi)
    level_four, level = (intersection._step(phi, bezout, *phi.iterate_forms(k)) for k in (3, 4))
    assert intersection._level_holds(pb.layers[4], pb.chain[4], level_four, phi, bezout)
    checked = [pb.layers[5], pb.chain[5]]
    assert intersection._level_holds(*checked, level, phi, bezout)
    # level 5's level before, chain[4], is rejected by the chain check that
    # proves it at level 4; then the layer (b) and chain[5] at level 5
    for shown, i, at in (([pb.layers[4], pb.chain[4]], 1, level_four), (checked, 0, level), (checked, 1, level)):
        exps = sorted(shown[i].terms)
        for e in (exps[0], exps[len(exps) // 2], exps[-1]):
            for step in (1, -1):
                wrong = list(shown)
                wrong[i] = shown[i] + plane({e: step})
                assert not intersection._level_holds(*wrong, at, phi, bezout)
    # the same off-by-one on the row entry p^3 (check (r)) and on p_5 (check (s))
    row, (p5, q5) = level.rows[-1], level.forms
    for poly, wrong_level in (
        (row[-1], lambda bumped: replace(level, rows=level.rows[:-1] + [row[:-1] + [bumped]])),
        (p5, lambda bumped: replace(level, forms=(bumped, q5))),
    ):
        exps = sorted(poly.terms)
        for e in (exps[0], exps[len(exps) // 2], exps[-1]):
            for step in (1, -1):
                bumped = poly + Polynomial(("t",), {e: step})
                assert not intersection._level_holds(*checked, wrong_level(bumped), phi, bezout)


CUBIC_AND_RATIONAL = pytest.mark.parametrize(
    "phi",
    [RationalMap.polynomial([0, 1, 0, 1]), RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))],
    ids=["t^3+t", "(t^2+1)/t"],
)


def _top_bumped(poly):
    """poly with the coefficient of its top term moved by 1."""
    return poly + Polynomial(poly.variables, {max(poly.terms): 1})


def _result_bumped_on_call(monkeypatch, name, call, pick):
    """Patch intersection.<name> so that on the given call (0-based) its
    result, or the entry of its result at index `pick`, has its top
    coefficient moved by 1."""
    honest, calls = getattr(intersection, name), []

    def tampered(*args):
        result = honest(*args)
        calls.append(None)
        if len(calls) - 1 != call:
            return result
        if pick is None:
            return _top_bumped(result)
        result = list(result)
        result[pick] = _top_bumped(result[pick])
        return result

    monkeypatch.setattr(intersection, name, tampered)


@CUBIC_AND_RATIONAL
def test_a_bumped_bezout_entry_fails_the_identity_check(monkeypatch, phi):
    # the layers, rows and forms all agree with the wrong matrix: only (B) sees it
    honest = intersection._bezout_matrix

    def bumped(phi):
        matrix = honest(phi)
        matrix[0][-1] += 1
        return matrix

    monkeypatch.setattr(intersection, "_bezout_matrix", bumped)
    with pytest.raises(InexactDivision, match="level 1"):
        diagonal_pullback(phi, 2)


@CUBIC_AND_RATIONAL
def test_a_bumped_row_entry_fails_the_row_check(monkeypatch, phi):
    # each level raises d - 1 rows; the last raise of level 2 makes its
    # degree-d row, whose top entry p^d (p^2 q^0) moves: only (r) sees it
    _result_bumped_on_call(monkeypatch, "raised_monomials", 2 * (phi.degree - 1) - 1, -1)
    with pytest.raises(InexactDivision, match="level 2"):
        diagonal_pullback(phi, 2)


@CUBIC_AND_RATIONAL
@pytest.mark.parametrize("offset", [0, 2], ids=["p_2", "V_0"])
def test_a_bumped_combination_fails_the_combination_check(monkeypatch, phi, offset):
    # each level combines the degree-d row into F(p, q) and G(p, q), then the
    # basis into V_0 .. V_(d-1): level 2's F(p, q) or V_0 moves, so p_2 or the
    # layer's V_0 disagrees with phi or B: only (s) sees it
    _result_bumped_on_call(monkeypatch, "combination", 2 + phi.degree + offset, None)
    with pytest.raises(InexactDivision, match="level 2"):
        diagonal_pullback(phi, 2)


def test_level_five_pullback_checks_one_factor_per_side_and_the_bezout_identity_once(monkeypatch):
    sums, identities = [], []
    honest_sum, honest_identity = intersection.is_separated_sum, intersection._bezout_holds

    def counted_sum(terms, c):
        sums.append(terms)
        return honest_sum(terms, c)

    def counted_identity(*args):
        identities.append(args)
        return honest_identity(*args)

    monkeypatch.setattr(intersection, "is_separated_sum", counted_sum)
    monkeypatch.setattr(intersection, "_bezout_holds", counted_identity)
    diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 5)
    assert len(sums) == 11  # x - y once, then the layer (b) and the chain at each level
    assert all(len(a.variables) == len(b.variables) == 1 for terms in sums for _, a, b in terms)
    assert len(identities) == 1


@pytest.mark.parametrize(
    "phi",
    [
        RationalMap.polynomial([0, Fraction(3, 2), 0, 1]),
        RationalMap.polynomial([Fraction(1, 3), 0, 2]),
        RationalMap.from_affine(Polynomial.univariate([-2, 0, 1]), Polynomial.univariate([0, 2])),
    ],
    ids=["t^3+3/2*t", "2*t^2+1/3", "(t^2-2)/(2*t)"],
)
def test_rational_coefficient_chains_equal_their_expanded_products(phi):
    pb = diagonal_pullback(phi, 5)
    for k in range(1, 6):
        assert pb.chain[k] == pb.chain[k - 1] * pb.layers[k]
    if phi.is_polynomial:
        # the non-monic maps' levels carry a common denominator
        assert pb.chain[5].den > 1


def test_divisors_builds_one_pullback(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diagonal_pullback(*args, **kwargs)

    # the command imports it from the module when it runs, so one name counts every call
    monkeypatch.setattr(intersection, "diagonal_pullback", counted)
    code = cli.run(["--json", "divisors", "--map", "(t^2+1)/t", "--level", "3"], stream=io.StringIO())
    assert code == 0
    assert len(calls) == 1


def test_level_five_pullback_takes_each_univariate_product_once(monkeypatch):
    # t^3 + t has q = 1 at every level: a level takes p^2 and p^3, and the
    # layer and the cross difference are expanded with no product at all
    products = []
    honest = Polynomial.__mul__

    def counted(self, other):
        result = honest(self, other)
        if isinstance(other, Polynomial) and not self.is_constant() and not other.is_constant():
            products.append(result)
        return result

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    diagonal_pullback(RationalMap.polynomial([0, 1, 0, 1]), 5)
    assert len(products) == 10
    assert len(set(products)) == 10


# ---------------------------------------------------------------------------
# the critical-orbit certificate of pullback_squarefree

SMALL_PRIMES = [p for p in range(7, 200) if is_prime(p)]


@st.composite
def _degree_two_or_three_maps(draw):
    d = draw(st.sampled_from([2, 3]))
    coeff = st.integers(-5, 5)
    if draw(st.booleans()):
        return RationalMap.polynomial([draw(coeff) for _ in range(d)] + [draw(st.integers(1, 3))])
    try:
        return RationalMap([draw(coeff) for _ in range(d + 1)], [draw(coeff) for _ in range(d + 1)])
    except ValueError:
        assume(False)


def test_critical_orbit_verdict_equals_the_euclid_attempt_by_attempt():
    verdicts = []

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_degree_two_or_three_maps(), st.integers(1, 3), st.sampled_from(SMALL_PRIMES), st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
    def check(phi, n, q, starts):
        assume(good_reduction(phi, q))
        pb = diagonal_pullback(phi, n)
        test = intersection._CriticalOrbitTest(phi, n)
        d = phi.degree
        for k in range(1, n + 1):
            Y = pb.layers[k]
            assert Y.degree("x") == (d - 1) * d ** (k - 1)  # the degree certifies() reads the top row at
            for y0 in starts:
                verdict = test.certifies(Y, k, y0 % q, q)
                assert verdict == intersection._euclid_certifies(Y, y0 % q, q), (phi, k, y0 % q, q)
                verdicts.append(verdict)

    check()
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 100


@pytest.mark.parametrize(
    "F, G, k, y0, q",
    [
        # t/(t^3 + 1) at y0 = 0: phi(0) = 0 has the double preimage infinity,
        # so H_2 = c Y^2 and deg h = 0 < d - 2; the image is c (x^3 + 1)^2
        ([0, 1, 0, 0], [1, 0, 0, 1], 2, 0, 7),
        # (t^3 + t + 1)/(t^3 + 1): infinity is critical and H_3 vanishes at
        # phi(infinity) = 1, which only the orbit of infinity shows
        ([1, 1, 0, 1], [1, 0, 0, 1], 3, 0, 11),
    ],
    ids=["double-root-at-infinity", "critical-infinity"],
)
def test_critical_orbit_verdict_at_infinity(F, G, k, y0, q):
    phi = RationalMap(F, G)
    layer = diagonal_pullback(phi, k).layers[k]
    assert intersection._euclid_certifies(layer, y0, q) is False
    assert intersection._CriticalOrbitTest(phi, k).certifies(layer, k, y0, q) is False


def test_bad_reduction_attempt_is_skipped(monkeypatch):
    # (2t^2 + t)/(t + 5) reduces mod 5 to a map with the common root t = 0;
    # at y0 = 11 the Euclid certifies level 2, while the orbit test, were
    # it run, would say the specialization is not squarefree
    phi = RationalMap.from_affine(Polynomial.univariate([0, 1, 2]), Polynomial.univariate([5, 1]))
    pb = diagonal_pullback(phi, 2)
    assert intersection._euclid_certifies(pb.layers[2], 11, 5) is True
    assert intersection._CriticalOrbitTest(phi, 2).certifies(pb.layers[2], 2, 11, 5) is None
    monkeypatch.setattr(intersection, "_attempts", lambda: ((11, 5),))
    assert pullback_squarefree(pb) == [True, True, True]


def test_uncertifiable_attempts_fall_back_to_the_exact_gcd(monkeypatch):
    # t^3 + t: W = 9X^2Y^2 + 3Y^4 vanishes mod 3; 2t^2 + 1: bad reduction at 2
    gcds = []
    honest = Polynomial.gcd

    def counted(self, other):
        gcds.append(self.variables)
        return honest(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counted)
    for coeffs, q in (([0, 1, 0, 1], 3), ([1, 0, 2], 2)):
        monkeypatch.setattr(intersection, "_attempts", lambda: ((5, q), (7, q)))
        gcds.clear()
        flags = pullback_squarefree(diagonal_pullback(RationalMap.polynomial(coeffs), 3))
        assert flags == [True] * 4
        assert gcds.count(("x", "y")) == 3  # one exact gcd per layer k >= 1


GOLDEN_DIVISORS = json.loads((Path(__file__).parent / "golden_divisors.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_DIVISORS, ids=[c["name"] for c in GOLDEN_DIVISORS])
def test_pullback_flags_equal_bivariate_squarefree(case):
    argv = case["argv"]
    phi = cli._parse_map(argv[argv.index("--map") + 1])
    pb = diagonal_pullback(phi, int(argv[argv.index("--level") + 1]))
    assert pullback_squarefree(pb) == [bivariate_squarefree(Y) for Y in pb.layers]
