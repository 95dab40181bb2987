import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import schoolbook_product
from orbitlang.errors import InexactDivision, RingMismatch
from orbitlang.padics import residue
from orbitlang.parsing import parse_expression
from orbitlang.polynomials import Polynomial, format_polynomial, is_product, residue_eval


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


@st.composite
def product_triples(draw):
    """(a, b, c) over 1-3 variables with exponents below 5, each of a and b
    zero, one term or up to 6 terms; c is a * b, a * b with one coefficient
    moved by +-1, or a third polynomial."""
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(variables)), RATIONALS, max_size=6)
    a, b = Polynomial(variables, draw(terms)), Polynomial(variables, draw(terms))
    kind = draw(st.sampled_from(["product", "moved", "other"]))
    if kind == "other":
        return a, b, Polynomial(variables, draw(terms))
    c = a * b
    if kind == "moved":
        monomials = st.tuples(*[st.integers(0, 8)] * len(variables))
        if c.terms:
            monomials = st.one_of(monomials, st.sampled_from(sorted(c.terms)))
        c = c + Polynomial(variables, {draw(monomials): draw(st.sampled_from([1, -1]))})
    return a, b, c


@settings(max_examples=300, deadline=None)
@given(product_triples())
def test_is_product_agrees_with_the_expanded_product(triple):
    a, b, c = triple
    assert is_product(a, b, c) == (a * b == c)


@pytest.mark.parametrize(
    "a, b", [(X_PLUS_Y, X_MINUS_Y), (biv({(1, 0): Fraction(1, 2), (0, 1): 1}), biv({(1, 0): 2, (0, 1): -3}))]
)
def test_is_product_takes_its_width_from_c_too(a, b):
    # 2^s y - y^2 vanishes at y = 2^s: a width from a and b alone, or one bit
    # short of c's 2^s, would accept these
    ab = a * b
    for s in range(1, 601):
        assert not is_product(a, b, ab + biv({(0, 1): 2**s, (0, 2): -1}))


def test_is_product_expands_no_product(monkeypatch):
    a, b = X_MINUS_Y, X_PLUS_Y
    monkeypatch.setattr(Polynomial, "__mul__", None)
    assert is_product(a, b, X2_MINUS_Y2)
    assert not is_product(a, b, X2_MINUS_Y2 + 1)


def test_is_product_rejects_a_moved_exponent_in_any_variable():
    # rows are keyed by the packed (x, y) exponents; moving one term of a * b
    # by one step in x, in the middle variable y or in z must be seen
    names = ("x", "y", "z")
    a = Polynomial(names, {(2, 1, 0): 1, (0, 0, 1): 3, (0, 0, 0): -1})
    b = Polynomial(names, {(0, 2, 0): 1, (1, 0, 0): -2, (0, 0, 2): Fraction(1, 2)})
    ab = a * b
    assert is_product(a, b, ab)
    for e, c in ab.terms.items():
        for v in range(3):
            for step in (1, -1):
                f = list(e)
                f[v] += step
                if f[v] < 0:
                    continue
                wrong = ab + Polynomial(names, {e: -c, tuple(f): c})
                assert wrong != ab and not is_product(a, b, wrong)


def test_is_product_rejects_an_exponent_past_the_key_digit():
    # x's digit runs to deg_a(x) + deg_b(x) = 3, so x^4 y packs like y^2: a c
    # that moves the 3*y^2*z of a * b to 3*x^4*y*z has a * b's packed rows
    names = ("x", "y", "z")
    a = Polynomial(names, {(2, 1, 0): 1, (0, 0, 1): 3, (0, 0, 0): -1})
    b = Polynomial(names, {(0, 2, 0): 1, (1, 0, 0): -2, (0, 0, 2): 1})
    ab = a * b
    assert ab.terms[(0, 2, 1)] == 3
    wrong = ab + Polynomial(names, {(0, 2, 1): -3, (4, 1, 1): 3})
    assert not is_product(a, b, wrong)


def test_is_product_of_constants_without_variables():
    a, b = Polynomial.constant(Fraction(3, 2)), Polynomial.constant(-4)
    zero = Polynomial((), {})
    assert a.variables == ()
    assert is_product(a, b, Polynomial.constant(-6))
    assert not is_product(a, b, Polynomial.constant(-5))
    assert not is_product(a, b, zero)
    assert is_product(zero, b, zero)
    assert not is_product(zero, b, a)


def assert_canonical(p):
    assert p.den > 0
    assert all(type(e) is tuple and len(e) == len(p.variables) for e in p.num)
    assert all(type(n) is int and n for n in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1


def reference_sum(*maps):
    out = {}
    for terms in maps:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def reference_value(terms, point):
    total = Fraction(0)
    for exps, c in terms.items():
        for x, e in zip(point, exps):
            c *= Fraction(x) ** e
        total += c
    return total


@st.composite
def rational_polynomials(draw, variables=None, max_size=6):
    """A polynomial over 0-3 variables with exponents below 5 and rational
    coefficients, built from a drawn {exponents: coefficient} map."""
    if variables is None:
        variables = ("x", "y", "z")[: draw(st.integers(0, 3))]
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(variables)), RATIONALS, max_size=max_size)
    return Polynomial(variables, draw(terms))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(*[rational_polynomials(("x", "y", "z")[:k])] * 3)))
def test_routes_to_one_polynomial_agree(polys):
    a, b, other = polys
    one = Polynomial.constant(1, a.variables)
    monomial_sum = Polynomial(a.variables, {})
    for e, c in a.terms.items():
        monomial_sum = monomial_sum + Polynomial(a.variables, {e: c})
    routes = [a, monomial_sum, (a * 2) * Fraction(1, 2), b - b + a, a * one, one * a, -(-a)]
    product = Polynomial(a.variables, schoolbook_product(a.terms, b.terms))
    for p in routes + [product, a * b, b * a]:
        assert_canonical(p)
    for p in routes:
        assert p == a and hash(p) == hash(a) and p.terms == a.terms
    assert product == a * b and hash(product) == hash(a * b)
    for p, q in [(a, b), (a, other), (a * b, other)]:
        assert (p == q) == (p.terms == q.terms)
        if p == q:
            assert hash(p) == hash(q)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda k: st.tuples(*[rational_polynomials(("x", "y", "z")[:k])] * 2)),
    st.integers(0, 3),
    st.lists(RATIONALS, min_size=3, max_size=3),
    st.sampled_from([7, 9, 10, 2**61 - 1]),
)
def test_arithmetic_agrees_with_the_fraction_reference(pair, e, point, m):
    a, b = pair
    ta, tb = a.terms, b.terms
    for p, expected in [
        (a + b, reference_sum(ta, tb)),
        (a - b, reference_sum(ta, {k: -c for k, c in tb.items()})),
        (-a, {k: -c for k, c in ta.items()}),
        (a * b, schoolbook_product(ta, tb)),
        (a + Fraction(1, 3), reference_sum(ta, {(0,) * len(a.variables): Fraction(1, 3)})),
    ]:
        assert_canonical(p)
        assert p.terms == expected
    power = {(0,) * len(a.variables): Fraction(1)}
    for _ in range(e):
        power = schoolbook_product(power, ta)
    assert_canonical(a**e)
    assert (a**e).terms == power

    # with_variables: reversed, with one unused variable in front
    target = ("w",) + a.variables[::-1]
    moved = a.with_variables(target)
    assert_canonical(moved)
    assert moved.terms == {(0,) + k[::-1]: c for k, c in ta.items()}

    assert a.evaluate(dict(zip(a.variables, point))) == reference_value(ta, point)
    if all(gcd(c.denominator, m) == 1 for c in ta.values()):
        assert a.residues(m) == {k: residue(c, m) for k, c in ta.items()}
    else:
        with pytest.raises(ZeroDivisionError):
            a.residues(m)

    content, prim = a.content_and_primitive()
    assert_canonical(prim)
    if ta:
        den = lcm(*(c.denominator for c in ta.values()))
        g = gcd(*(int(c * den) for c in ta.values()))
        sign = 1 if ta[max(ta)] > 0 else -1
        assert content == sign * Fraction(g, den)
        assert prim.den == 1 and prim.num[max(prim.num)] > 0
        assert prim.terms == {k: c / content for k, c in ta.items()}
    else:
        assert content == 0 and prim == a


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("x", "y"), ("x1", "x2", "x3")]).flatmap(lambda names: rational_polynomials(names, max_size=5)))
def test_parse_format_round_trip(p):
    # the parser reads curves and generators up to a unit, as their primitive part
    assume(not p.is_constant())
    parsed = parse_expression(format_polynomial(p))
    value = parsed.value.poly if parsed.kind == "curve" else parsed.value
    _, prim = p.content_and_primitive()
    assert value.with_variables(p.variables) == prim
