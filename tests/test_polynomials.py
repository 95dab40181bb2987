import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schoolbook_product
from orbitlang.errors import InexactDivision, RingMismatch
from orbitlang.padics import residue
from orbitlang.polynomials import Polynomial, format_polynomial, residue_eval


def biv(x_exp_y_exp_coeff):
    return Polynomial(("x", "y"), x_exp_y_exp_coeff)


X2_MINUS_Y2 = biv({(2, 0): 1, (0, 2): -1})
X_MINUS_Y = biv({(1, 0): 1, (0, 1): -1})
X_PLUS_Y = biv({(1, 0): 1, (0, 1): 1})


def test_gcd_example():
    assert X2_MINUS_Y2.gcd(X_MINUS_Y) == X_MINUS_Y


def test_divexact_example():
    assert X2_MINUS_Y2.divexact(X_MINUS_Y) == X_PLUS_Y


def test_divexact_raises_on_remainder():
    with pytest.raises(InexactDivision):
        X2_MINUS_Y2.divexact(X_PLUS_Y + 1)


def test_resultant_example():
    # eliminating x from (u - x^2, y - x) leaves u - y^2
    ring_vars = ("x", "y", "u")
    f = Polynomial(ring_vars, {(0, 0, 1): 1, (2, 0, 0): -1})
    g = Polynomial(ring_vars, {(0, 1, 0): 1, (1, 0, 0): -1})
    res = f.resultant(g, "x")
    expected = Polynomial(("y", "u"), {(0, 1): 1, (2, 0): -1})
    assert res == expected


def test_ring_mismatch():
    f = Polynomial(("x",), {(1,): 1})
    g = Polynomial(("x", "y"), {(1, 0): 1})
    with pytest.raises(RingMismatch):
        f + g


def test_divexact_mul_round_trip():
    rng = random.Random(3)
    vars_ = ("x", "y")
    for _ in range(25):
        a = Polynomial(vars_, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5)) for _ in range(4)})
        b = Polynomial(vars_, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5)) for _ in range(4)})
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).divexact(b) == a


# ints and Fractions, denominator 1 about half the time; exponents mostly
# small, sometimes far apart
RATIONALS = st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))
EXPONENTS = st.one_of(st.integers(0, 4), st.integers(0, 10**12))


@st.composite
def polynomial_pairs(draw):
    """Two polynomials over one tuple of 0-3 variables, each zero, one term or up to 6 terms."""
    variables = ("x", "y", "z")[: draw(st.integers(0, 3))]
    terms = st.dictionaries(st.tuples(*[EXPONENTS] * len(variables)), RATIONALS, max_size=6)
    return Polynomial(variables, draw(terms)), Polynomial(variables, draw(terms))


def assert_clean_product(product, expected):
    assert product.terms == expected
    assert all(type(e) is tuple and type(c) is Fraction and c for e, c in product.terms.items())


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs())
def test_product_matches_schoolbook_oracle(pair):
    a, b = pair
    expected = schoolbook_product(a.terms, b.terms)
    assert_clean_product(a * b, expected)
    assert_clean_product(b * a, expected)


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs(), RATIONALS)
def test_scalar_product_matches_schoolbook_oracle(pair, scalar):
    a, _ = pair
    expected = schoolbook_product(a.terms, {(0,) * len(a.variables): Fraction(scalar)})
    assert_clean_product(a * scalar, expected)
    assert_clean_product(scalar * a, expected)


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs(), st.integers(0, 5))
def test_power_matches_repeated_schoolbook_products(pair, e):
    a, _ = pair
    expected = {(0,) * len(a.variables): Fraction(1)}
    for _ in range(e):
        expected = schoolbook_product(expected, a.terms)
    assert_clean_product(a**e, expected)


@pytest.mark.parametrize(
    "a, b, product",
    [
        (X_MINUS_Y, X_PLUS_Y, X2_MINUS_Y2),
        (
            biv({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}),
            biv({(1, 0): 2, (0, 1): -3}),
            biv({(2, 0): 1, (1, 1): Fraction(-5, 6), (0, 2): -1}),
        ),
        (biv({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}), biv({(1, 0): 2, (0, 1): -2}), biv({(2, 0): 1, (0, 2): -1})),
    ],
)
def test_product_with_internal_cancellation(a, b, product):
    assert_clean_product(a * b, schoolbook_product(a.terms, b.terms))
    assert a * b == product


@pytest.mark.parametrize("m", [(1 << 61) - 1, 5**8])
def test_residues_commute_with_evaluation(m):
    rng = random.Random(8)

    def rational():
        den = rng.randint(1, 40)
        while gcd(den, m) != 1:
            den = rng.randint(1, 40)
        return Fraction(rng.randint(-10**6, 10**6), den)

    for vars_ in (("x", "y"), ("x", "y", "z")):
        for _ in range(25):
            poly = Polynomial(vars_, {tuple(rng.randint(0, 4) for _ in vars_): rational() for _ in range(6)})
            point = {v: rational() for v in vars_}
            coords = [residue(point[v], m) for v in vars_]
            assert residue_eval(poly.residues(m), coords, m) == residue(poly.evaluate(point), m)


@pytest.mark.parametrize("m, bad", [((1 << 61) - 1, Fraction(3, (1 << 61) - 1)), (5**8, Fraction(2, 15))])
def test_residue_rejects_a_denominator_not_invertible(m, bad):
    with pytest.raises(ZeroDivisionError):
        residue(bad, m)
    with pytest.raises(ZeroDivisionError):
        Polynomial(("x", "y"), {(1, 0): 1, (0, 0): bad}).residues(m)


def test_zero_polynomial_degree_sentinel():
    z = Polynomial(("x",), {})
    assert z.is_zero
    assert z.total_degree() is None
    assert z.degree("x") is None


def test_substitute_and_drop():
    f = biv({(2, 0): 1, (1, 1): 2, (0, 0): -3})
    g = f.substitute({"y": Fraction(1, 2)})
    assert g.evaluate({"x": 2, "y": 99}) == f.evaluate({"x": 2, "y": Fraction(1, 2)})
    shrunk = g.drop_variables(["y"])
    assert shrunk.variables == ("x",)


def test_compose_polynomials():
    t = Polynomial.variable("t")
    f = t**2 + 1
    g = f.substitute({"t": f})  # f(f(t))
    assert g.evaluate({"t": 2}) == 26


def test_content_and_primitive():
    f = Polynomial(("x",), {(2,): Fraction(4, 3), (0,): Fraction(-2, 3)})
    c, prim = f.content_and_primitive()
    assert c == Fraction(2, 3)
    assert prim.terms == {(2,): 2, (0,): -1}
    neg = Polynomial(("x",), {(1,): -2})
    c2, prim2 = neg.content_and_primitive()
    assert c2 == -2 and prim2.terms == {(1,): 1}


def test_factor_list_and_irreducibility():
    x4_minus_y4 = Polynomial(("x", "y"), {(4, 0): 1, (0, 4): -1})
    _, factors = x4_minus_y4.factor_list()
    degrees = sorted(f.total_degree() for f, _ in factors)
    assert degrees == [1, 1, 2]
    assert biv({(1, 0): 1, (0, 1): 1}).is_irreducible()
    assert not X2_MINUS_Y2.is_irreducible()


def test_rational_roots():
    t = Polynomial.variable("t")
    f = (t - Fraction(1, 2)) * (t + 3) * (t**2 + 1)
    assert f.rational_roots() == [-3, Fraction(1, 2)]


def test_format_round_trippable_shape():
    f = biv({(2, 0): 1, (1, 1): -2, (0, 0): Fraction(1, 3)})
    assert format_polynomial(f) == "x^2 - 2*x*y + 1/3"
