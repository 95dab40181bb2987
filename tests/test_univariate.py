"""The native univariate algebra of Polynomial, with sympy as the oracle.

`factor_list`, `gcd` and `divmod` in one variable never call sympy; these
tests compare them with sympy's answers.  The property tests draw random
products of up to four factors of degree at most 3, each to a power up to
3, with rational content and negative leads (derandomized, 120 examples
each; the three took 3.3 s together on a shared 2-core machine).
The named cases force the recombination step: t^4+1, t^4-10t^2+1 and the
Swinnerton-Dyer polynomial of sqrt(2), sqrt(3), sqrt(5) are irreducible
over Q but split modulo every prime.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlang.polynomials import Polynomial

T4_PLUS_1 = [1, 0, 0, 0, 1]
T4_MINUS_10T2_PLUS_1 = [1, 0, -10, 0, 1]
SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def poly(coeffs) -> Polynomial:
    return Polynomial.univariate(coeffs)


def sympy_factor_list(p: Polynomial):
    const, factors = sympy.factor_list(p.to_sympy())
    return Fraction(str(const)), [(Polynomial.from_sympy(f, p.variables), int(m)) for f, m in factors]


def sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    g = Polynomial.from_sympy(sympy.gcd(a.to_sympy(), b.to_sympy()), a.variables)
    return g if g.is_zero else g.monic()


def sympy_divmod(a: Polynomial, b: Polynomial):
    q, r = sympy.div(a.to_sympy(), b.to_sympy())
    return Polynomial.from_sympy(q, a.variables), Polynomial.from_sympy(r, a.variables)


small = st.integers(-6, 6)
factors = st.lists(small, min_size=2, max_size=4).filter(lambda c: c[-1] != 0).map(poly)
contents = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))


@st.composite
def products(draw, max_factors=4):
    """content * prod(f_i^m_i), with repeated factors and negative leads."""
    p = Polynomial.constant(draw(contents), ("t",))
    for _ in range(draw(st.integers(0, max_factors))):
        p = p * draw(factors) ** draw(st.integers(1, 3))
    return p


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products())
def test_factor_list_matches_sympy(p):
    assert p.factor_list() == sympy_factor_list(p)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products(max_factors=2), products(), products())
def test_gcd_matches_sympy(common, a, b):
    a, b = common * a, common * b
    assert a.gcd(b) == sympy_gcd(a, b)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products(), products(max_factors=2))
def test_divmod_matches_sympy(a, b):
    q, r = a.divmod(b)
    assert (q, r) == sympy_divmod(a, b)
    assert q * b + r == a


@pytest.mark.parametrize(
    "coeffs",
    [T4_PLUS_1, T4_MINUS_10T2_PLUS_1, SWINNERTON_DYER_8, [-3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]],
    ids=["t4+1", "t4-10t2+1", "swinnerton-dyer-8", "2t16-3"],
)
def test_irreducible_polynomials_that_split_modulo_the_prime(coeffs):
    # 2t^16-3 is Eisenstein at 3; modulo 5, the prime used, it has two factors
    p = poly(coeffs)
    assert p.is_irreducible()
    assert p.factor_list() == sympy_factor_list(p)


def test_products_of_polynomials_that_split_mod_every_prime():
    sd, t4, t4b = poly(SWINNERTON_DYER_8), poly(T4_PLUS_1), poly(T4_MINUS_10T2_PLUS_1)
    p = sd * t4 * t4b**2 * poly([-1, 3]) * Fraction(-5, 7)
    assert p.factor_list() == (Fraction(-5, 7), [(poly([-1, 3]), 1), (t4, 1), (t4b, 2), (sd, 1)])
    assert p.factor_list() == sympy_factor_list(p)
    assert (p * sd).gcd(sd * t4 * poly([2, 1])) == sd * t4


@pytest.mark.parametrize(
    "coeffs", [[], [Fraction(-3, 4)], [5], [Fraction(2, 3), -4], [0, 7]], ids=["zero", "rational", "integer", "linear", "monomial"]
)
def test_constants_zero_and_degree_one(coeffs):
    p = poly(coeffs)
    assert p.factor_list() == sympy_factor_list(p)
    for other in (poly([1, 1]), poly([Fraction(1, 2)]), p):
        if not other.is_zero:
            assert p.divmod(other) == sympy_divmod(p, other)
        assert p.gcd(other) == sympy_gcd(p, other)
    assert p.gcd(poly([])) == sympy_gcd(p, poly([]))
