import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import divexact, reference_format_polynomial, schoolbook_product
from orbitlang.errors import InexactDivision, RingMismatch
from orbitlang.padics import residue
from orbitlang.parsing import parse_expression
from orbitlang.polynomials import Polynomial, format_polynomial, format_univariate, is_product, is_separated_sum, residue_eval


def biv(x_exp_y_exp_coeff):
    return Polynomial(("x", "y"), x_exp_y_exp_coeff)


X2_MINUS_Y2 = biv({(2, 0): 1, (0, 2): -1})
X_MINUS_Y = biv({(1, 0): 1, (0, 1): -1})
X_PLUS_Y = biv({(1, 0): 1, (0, 1): 1})


def test_gcd_example():
    assert X2_MINUS_Y2.gcd(X_MINUS_Y) == X_MINUS_Y


def test_divexact_example():
    assert divexact(X2_MINUS_Y2, X_MINUS_Y) == X_PLUS_Y


def test_divexact_raises_on_remainder():
    with pytest.raises(InexactDivision):
        divexact(X2_MINUS_Y2, X_PLUS_Y + 1)


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
        assert divexact(a * b, b) == a


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


T_ONE = Polynomial.constant(1, ("t",))


def uni(*coeffs):
    return Polynomial.univariate(coeffs)


def expanded(terms):
    """The sum of the separated terms by Polynomial arithmetic, the reference."""
    acc = biv({})
    for sign, a, b in terms:
        acc = acc + biv({(0, 0): sign}) * a.placed(("x", "y"), "x") * b.placed(("x", "y"), "y")
    return acc


@st.composite
def separated_sums(draw):
    """(terms, c): up to 3 terms of sign 1 or -1 with one univariate a side,
    each zero, one term or up to 5 terms of degree below 5; c is their sum,
    the sum with one coefficient moved by +-1, or a third polynomial."""
    univariates = st.builds(Polynomial, st.just(("t",)), st.dictionaries(st.tuples(st.integers(0, 4)), RATIONALS, max_size=5))
    terms = draw(st.lists(st.tuples(st.sampled_from([1, -1]), univariates, univariates), max_size=3))
    kind = draw(st.sampled_from(["sum", "moved", "other"]))
    if kind == "other":
        return terms, biv(draw(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)), RATIONALS, max_size=6)))
    c = expanded(terms)
    if kind == "moved":
        monomials = st.tuples(st.integers(0, 9), st.integers(0, 9))
        if c.terms:
            monomials = st.one_of(monomials, st.sampled_from(sorted(c.terms)))
        c = c + biv({draw(monomials): draw(st.sampled_from([1, -1]))})
    return terms, c


@settings(max_examples=200, deadline=None)
@given(separated_sums())
def test_is_separated_sum_agrees_with_the_expanded_sum(case):
    terms, c = case
    assert is_separated_sum(terms, c) == (expanded(terms) == c)


@pytest.mark.parametrize(
    "terms",
    [[(1, uni(1, 1), uni(-1, 1))], [(1, uni(1, Fraction(1, 2)), uni(-3, 2)), (-1, uni(0, 1), T_ONE)]],
)
def test_is_separated_sum_takes_its_width_from_c_too(terms):
    # 2^s y - y^2 vanishes at y = 2^s: a width from the terms alone, or one
    # bit short of c's 2^s, would accept these
    total = expanded(terms)
    for s in range(1, 601):
        assert not is_separated_sum(terms, total + biv({(0, 1): 2**s, (0, 2): -1}))


def test_is_separated_sum_takes_its_width_from_the_y_factor():
    # 2^s y - y^2 vanishes at y = 2^s: a width from the x side alone would
    # accept it as zero at s = 1
    for s in range(1, 301):
        assert not is_separated_sum([(1, T_ONE, uni(0, 2**s, -1))], biv({}))


def test_is_separated_sum_expands_no_product(monkeypatch):
    terms = [(1, uni(0, 0, 1), T_ONE), (-1, T_ONE, uni(0, 0, 1))]
    off_by_one = X2_MINUS_Y2 + 1
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Polynomial, name, None)
    assert is_separated_sum(terms, X2_MINUS_Y2)
    assert not is_separated_sum(terms, off_by_one)


def test_is_separated_sum_rejects_a_moved_exponent_in_either_variable():
    # moving one term of the sum by one step in x or in y must be seen
    terms = [
        (1, uni(-2, -1, 6, 3), uni(0, 1, 0, 1)),  # (3x^2 - 1)(x + 2) y (y^2 + 1)
        (-1, uni(0, 0, 1), uni(5, Fraction(1, 2), 5, Fraction(1, 2))),  # x^2 (y/2 + 5)(y^2 + 1)
    ]
    total = expanded(terms)
    assert is_separated_sum(terms, total)
    for e, c in total.terms.items():
        for v in range(2):
            for step in (1, -1):
                f = list(e)
                f[v] += step
                if f[v] < 0:
                    continue
                wrong = total + biv({e: -c, tuple(f): c})
                assert wrong != total and not is_separated_sum(terms, wrong)


def test_is_separated_sum_rejects_a_term_past_the_sum_degrees():
    # the sum has x-degree 3 and y-degree 2; c moves its 3*x^2 to x^4*y^3,
    # a row and a power of y that no term reaches
    terms = [(1, uni(-1, 0, 3), uni(1, 0, 1)), (1, uni(0, 1, 0, 1), uni(2))]
    total = expanded(terms)
    assert total.terms[(2, 0)] == 3
    assert not is_separated_sum(terms, total + biv({(2, 0): -3, (4, 3): 3}))


def test_is_separated_sum_of_constants_and_zeros():
    a, b, zero = Polynomial.constant(Fraction(3, 2), ("t",)), Polynomial.constant(-4, ("t",)), Polynomial(("t",), {})
    assert is_separated_sum([(1, a, b)], biv({(0, 0): -6}))
    assert not is_separated_sum([(1, a, b)], biv({(0, 0): -5}))
    assert not is_separated_sum([(1, a, b)], biv({}))
    assert is_separated_sum([(-1, a, b)], biv({(0, 0): 6}))
    assert is_separated_sum([(1, zero, b), (1, a, zero)], biv({}))
    assert not is_separated_sum([(1, zero, b)], biv({(0, 0): Fraction(3, 2)}))
    assert is_separated_sum([], biv({}))
    assert not is_separated_sum([], X_MINUS_Y)


@st.composite
def products(draw):
    """(a, b, c): univariates of up to 5 terms of degree below 8, with c
    their product, the product with one coefficient moved by +-1, or a
    third polynomial."""
    univariates = st.builds(Polynomial, st.just(("t",)), st.dictionaries(st.tuples(st.integers(0, 7)), RATIONALS, max_size=5))
    a, b = draw(univariates), draw(univariates)
    kind = draw(st.sampled_from(["product", "moved", "other"]))
    if kind == "other":
        return a, b, draw(univariates)
    c = Polynomial(("t",), schoolbook_product(a.terms, b.terms))
    if kind == "moved":
        exponents = st.tuples(st.integers(0, 15))
        if c.terms:
            exponents = st.one_of(exponents, st.sampled_from(sorted(c.terms)))
        c = c + Polynomial(("t",), {draw(exponents): draw(st.sampled_from([1, -1]))})
    return a, b, c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(products())
def test_is_product_agrees_with_the_expanded_product(case):
    a, b, c = case
    assert is_product(a, b, c) == (Polynomial(("t",), schoolbook_product(a.terms, b.terms)) == c)


def test_is_product_takes_its_width_from_every_operand():
    # 2^s t - t^2 vanishes at t = 2^s: a width one bit short of the 1-norm
    # of a, or of the largest coefficient of b or of c, would accept these
    zero = Polynomial(("t",), {})
    for s in range(1, 301):
        assert not is_product(uni(2**s, -1), uni(0, 1), zero)
        assert not is_product(uni(0, 1), uni(2**s, -1), zero)
        assert not is_product(T_ONE, uni(0, 0, -1), uni(0, -(2**s)))
        assert not is_product(uni(Fraction(1, 2)), uni(0, 0, -2), uni(0, -(2**s), 0))
    # (1 + t + t^2 + t^3)^2 - c = 16 t^3 - t^4 vanishes at t = 16: the largest
    # coefficient of a in place of its 1-norm gives 13 < 16 and would accept it
    assert not is_product(uni(1, 1, 1, 1), uni(1, 1, 1, 1), uni(1, 2, 3, -12, 4, 2, 1))


def test_is_product_expands_no_product(monkeypatch):
    a, b = uni(1, Fraction(2, 3), 0, -5), uni(Fraction(-1, 4), 0, 7)
    c = a * b
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Polynomial, name, None)
    assert is_product(a, b, c) and is_product(b, a, c)
    assert not is_product(a, a, c)


def test_rename_onto_a_present_variable_merges_the_slots():
    names = ("x", "x1", "y")
    x, x1 = Polynomial.variable("x", names), Polynomial.variable("x1", names)
    renamed = (x * x1 - x1 * x1 + x * Fraction(1, 2) - 3).rename_variables({"x": "x1"})
    assert renamed == Polynomial(("x1", "y"), {(1, 0): Fraction(1, 2), (0, 0): -3})
    assert (x - x1).rename_variables({"x": "x1", "y": "x2"}) == Polynomial(("x1", "x2"), {})
    assert (x - x1).rename_variables({"y": "x2"}).variables == ("x", "x1", "x2")


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_polynomials(), st.lists(st.integers(-20, 20), min_size=1, max_size=5), st.integers(-12, 12).filter(bool))
def test_printers_agree_with_the_fraction_view(poly, coeffs, den):
    # the printers read num/den; the reference prints each Fraction of `terms`
    assert format_polynomial(poly) == reference_format_polynomial(poly)
    univariate = Polynomial(("t",), {(i,): Fraction(c, den) for i, c in enumerate(coeffs)})
    assert format_univariate(coeffs, den) == reference_format_polynomial(univariate)


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
