import math
import random
from fractions import Fraction

import pytest

from orbitlang import padics
from orbitlang.padics import (
    is_prime,
    next_prime,
    PRIME_SEGMENT,
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


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(-360) == [2, 3, 5]
    p = next_prime(10**4)
    assert prime_factors(4 * p * p) == [2, p]
    assert prime_factors(next_prime(10**12)) == [next_prime(10**12)]

