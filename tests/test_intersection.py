import io
import random
from fractions import Fraction

import pytest

import orbitlang.cli as cli
import orbitlang.intersection as intersection
from orbitlang.dynsys import RationalMap
from orbitlang.errors import DegreeCapExceeded, InexactDivision, PeriodicCriticalPoint, PreperiodicInput
from orbitlang.intersection import (
    PlaceSet,
    bivariate_squarefree,
    diagonal_pullback,
    multiplicity_at,
    ramification_bound,
    s_integrality_scan,
)
from orbitlang.polynomials import Polynomial


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
            pb.chain[n].divexact(pb.chain[n - 1])


def test_rational_map_chain():
    phi = RationalMap.from_affine(
        Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1])
    )  # (t^2 + 1)/t
    pb = diagonal_pullback(phi, 2, cap=3)
    assert pb.chain[1].divexact(pb.chain[0]) is not None
    assert pb.chain[2].divexact(pb.chain[1]) is not None


def test_ramification_bound_examples():
    assert ramification_bound(RationalMap.quadratic(1)) == 2
    with pytest.raises(PeriodicCriticalPoint):
        ramification_bound(RationalMap.quadratic(-1))
    assert ramification_bound(RationalMap.polynomial([0, 1, 0, 1])) == 4  # t^3 + t


def test_multiplicity_examples():
    X1 = diagonal_pullback(RationalMap.quadratic(0), 1)
    assert multiplicity_at(X1, 0, 0) == 2
    assert multiplicity_at(X1, 1, 2) == 0
    X1c = diagonal_pullback(RationalMap.quadratic(5), 1)
    assert multiplicity_at(X1c, 3, -3) == 1


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


def test_s_integrality_scan_examples():
    f = RationalMap.quadratic(1)
    only_arch = PlaceSet()
    hits = s_integrality_scan(f, 0, 1, only_arch, 4)
    assert hits == [0, 1]  # differences -1, -1, -3, -21, -651
    with_three = s_integrality_scan(f, 0, 1, PlaceSet({3}), 4)
    assert with_three == [0, 1, 2]  # -21 = -3 * 7 and -651 = -3 * 7 * 31 stay excluded


def test_s_integrality_rejects_preperiodic():
    with pytest.raises(PreperiodicInput):
        s_integrality_scan(RationalMap.quadratic(-1), 0, 3, PlaceSet(), 3)


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
        assert pb.layers[k] == pb.chain[k].divexact(pb.chain[k - 1])


@pytest.mark.parametrize("phi", [RationalMap.quadratic(1), RationalMap.from_affine(Polynomial.univariate([1, 0, 1]), Polynomial.univariate([0, 1]))], ids=["t^2+1", "(t^2+1)/t"])
def test_tampered_layer_fails_the_chain_check(monkeypatch, phi):
    honest = intersection._bezoutian_at

    def tampered(bezout, p, q):
        return honest(bezout, p, q) + plane({(0, 0): 1})

    monkeypatch.setattr(intersection, "_bezoutian_at", tampered)
    with pytest.raises(InexactDivision):
        diagonal_pullback(phi, 2)


def test_divisors_builds_one_pullback(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diagonal_pullback(*args, **kwargs)

    # both names: the command's own call and any call made inside the intersection module
    monkeypatch.setattr(cli, "diagonal_pullback", counted)
    monkeypatch.setattr(intersection, "diagonal_pullback", counted)
    code = cli.run(["--json", "divisors", "--map", "(t^2+1)/t", "--level", "3"], stream=io.StringIO())
    assert code == 0
    assert len(calls) == 1
