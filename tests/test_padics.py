import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlang import padics
from orbitlang.padics import (
    PadicNumber,
    is_prime,
    next_prime,
    PRIME_SEGMENT,
    padic_of_rational,
    prime_factors,
    primes_in_order,
    primes_upto,
    valuation,
)


def test_valuation_examples():
    assert valuation(Fraction(50, 3), 5) == 2
    assert valuation(0, 7) == math.inf
    assert valuation(Fraction(1, 3), 3) == -1


def test_valuation_rejects_composite():
    with pytest.raises(ValueError):
        valuation(Fraction(1, 2), 6)


def test_primes_helpers():
    assert primes_upto(20) == (2, 3, 5, 7, 11, 13, 17, 19)
    assert next_prime(13) == 17
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 1000, PRIME_SEGMENT, PRIME_SEGMENT + 1, 3 * PRIME_SEGMENT + 5, 10**6])
def test_primes_in_order_are_the_sieved_primes(bound):
    # below the first segment, at its edge and across several later ones
    assert tuple(primes_in_order(bound)) == primes_upto(bound)


@pytest.mark.parametrize("segment", [2, 16, 100])
def test_primes_in_order_with_short_segments(monkeypatch, segment):
    # past segment^2 the sieving primes come from earlier segments, not the first
    monkeypatch.setattr(padics, "PRIME_SEGMENT", segment)
    assert tuple(primes_in_order(20000)) == primes_upto(20000)


def test_primes_in_order_sieve_only_as_far_as_they_are_read():
    # a bound of 10^18 would be an exabyte sieve; the first primes past 10^6 come at once
    primes = primes_in_order(10**18)
    assert next(p for p in primes if p > 10**6) == 1_000_003


def test_padic_of_rational_unit_examples():
    x = padic_of_rational(Fraction(1, 3), 2, 4)
    assert x.valuation == 0
    assert x.unit == 11  # 3 * 11 == 1 mod 16

    y = padic_of_rational(Fraction(50, 3), 5, 6)
    assert y.valuation == 2
    assert y.unit == 2 * pow(3, -1, 5**4) % 5**4

    z = padic_of_rational(0, 5, 6)
    assert z.valuation == math.inf
    assert z.unit is None


def test_padic_round_trip_residue():
    # result must agree with the modular-inverse computation mod p**M
    for q, p, M in [(Fraction(7, 5), 3, 8), (Fraction(-11, 4), 7, 5), (Fraction(9, 2), 5, 6)]:
        x = padic_of_rational(q, p, M)
        expected = q.numerator * pow(q.denominator, -1, p**M) % p**M
        assert x.residue() == expected


def test_negative_valuation():
    x = padic_of_rational(Fraction(1, 5), 5, 6)
    assert x.valuation == -1


def test_ultrametric_on_valuations():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(40):
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            if a == 0 or b == 0 or a + b == 0:
                continue
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)
            assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


def test_ring_homomorphism_at_precision():
    rng = random.Random(11)
    p, M = 5, 10
    for _ in range(60):
        a = Fraction(rng.randint(-300, 300), rng.choice([1, 2, 3, 7, 25]))
        b = Fraction(rng.randint(-300, 300), rng.choice([1, 2, 3, 7, 25]))
        xa, xb = padic_of_rational(a, p, M), padic_of_rational(b, p, M)
        assert xa + xb == padic_of_rational(a + b, p, M)
        prod = xa * xb
        assert prod == padic_of_rational(a * b, p, prod.precision)


def test_arithmetic_precision_propagation():
    p = 3
    x = PadicNumber(p, 2, 1, 8)  # 9 + O(3^8)
    y = PadicNumber(p, 0, 2, 5)  # 2 + O(3^5)
    assert (x + y).precision == 5
    z = x * y
    # absolute error: min(v_x + M_y, v_y + M_x) = min(7, 8)
    assert z.precision == 7
    assert z.valuation == 2

    inv = y.inverse()
    assert inv.valuation == 0
    assert (inv * y).unit == 1


def test_zero_at_precision_semantics():
    p = 5
    tiny = PadicNumber.from_integer(5**6, p, 4)
    assert tiny.is_zero_at_precision
    assert tiny.valuation == math.inf
    assert tiny == PadicNumber.zero(p, 4)
    # multiplying an invisible value keeps a sound precision bound
    unit = PadicNumber.from_integer(2, p, 4)
    prod = tiny * unit
    assert prod.is_zero_at_precision


def test_division():
    p = 7
    a = padic_of_rational(Fraction(3, 2), p, 6)
    b = padic_of_rational(Fraction(5, 4), p, 6)
    q = a / b
    assert q == padic_of_rational(Fraction(6, 5), p, q.precision)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(-360) == [2, 3, 5]
    p = next_prime(10**4)
    assert prime_factors(4 * p * p) == [2, p]
    assert prime_factors(next_prime(10**12)) == [next_prime(10**12)]


def _v(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational, counted without the code under test."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _agrees(x: PadicNumber, q: Fraction, precision: int) -> bool:
    """x is q mod p^precision, carries exactly that precision and is normalized."""
    p = x.prime
    if x.is_zero_at_precision:
        value = Fraction(0)
    else:
        rel = x.precision - x.valuation
        if not (0 < x.unit < p**rel and x.unit % p):
            return False
        value = x.unit * Fraction(p) ** x.valuation
    return x.precision == precision and (value == q or _v(value - q, p) >= precision)


@st.composite
def _operands(draw):
    """A prime, a precision M and three rationals of valuation at least -3:
    a p-free denominator times p^k, k in -3..3."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(8, 24))

    def rational():
        den = draw(st.integers(1, 10**4))
        while den % p == 0:
            den //= p
        return Fraction(draw(st.integers(-(10**6), 10**6)), den) * Fraction(p) ** draw(st.integers(-3, 3))

    return p, M, rational(), rational(), rational()


def _visible(q: Fraction, p: int, M: int) -> int:
    """The valuation PadicNumber sees for q at absolute precision M."""
    return M if q == 0 else min(_v(q, p), M)


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_padic_operations_agree_with_fractions_mod_p_power(operands):
    p, M, a, b, unit = operands
    unit = unit or Fraction(1)
    unit /= Fraction(p) ** _v(unit, p)
    xa, xb, xu = (padic_of_rational(q, p, M) for q in (a, b, unit))
    va, vb = _visible(a, p, M), _visible(b, p, M)
    assert _agrees(xa, a, M) and _agrees(xb, b, M)
    assert _agrees(xa + xb, a + b, M)
    assert _agrees(xa - xb, a - b, M)
    assert _agrees(-xa, -a, M)
    # absolute precision of a product: min(v(a) + M, v(b) + M)
    assert _agrees(xa * xb, a * b, M + min(va, vb))
    assert _agrees(xa / xu, a / unit, M + min(va, 0))


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_padic_ring_laws_hold_at_the_computed_precision(operands):
    p, M, a, b, c = operands
    xa, xb, xc = (padic_of_rational(q, p, M) for q in (a, b, c))
    sides = [
        ((xa + xb) + xc, xa + (xb + xc), a + b + c),
        ((xa * xb) * xc, xa * (xb * xc), a * b * c),
        (xa * (xb + xc), xa * xb + xa * xc, a * (b + c)),
        ((xa + xb) * xc, xa * xc + xb * xc, (a + b) * c),
    ]
    for left, right, exact in sides:
        assert left == right
        for side in (left, right):
            # each side is exact at its own precision, which loses at most
            # 3 digits per factor of negative valuation
            assert _agrees(side, exact, side.precision) and side.precision >= M - 6
