"""Primes and the two p-adic views of a rational the analytic step reads.

A rational is seen p-adically through its valuation v_p (+inf at 0) and its
residue mod p**M, a plain int in [0, p**M) when the denominator is prime to
p.  Maps and Mahler series act on such residues (`reduction`, `analytic`);
Strassmann counts read only valuations.  Primes are tested by deterministic
Miller-Rabin and listed by a sieve, in segments when the bound is large.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "valuation",
    "residue",
    "is_prime",
    "primes_upto",
    "primes_in_order",
    "next_prime",
    "prime_factors",
    "INFINITY",
]

INFINITY = math.inf

DEFAULT_PRECISION = 64


# ---------------------------------------------------------------------------
# primes

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any bound used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def primes_upto(bound: int) -> tuple[int, ...]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


PRIME_SEGMENT = 1 << 15


def primes_in_order(bound: int):
    """The primes <= bound in increasing order, sieved one segment of
    PRIME_SEGMENT integers at a time: a caller that stops at an early prime
    pays for the segments up to it, not for a sieve up to bound."""
    first = primes_upto(min(bound, PRIME_SEGMENT))
    yield from first
    root = math.isqrt(bound)
    # the primes up to sqrt(bound), all found before the segment that needs them
    base = [p for p in first if p <= root]
    lo = PRIME_SEGMENT + 1
    while lo <= bound:
        hi = min(bound, lo + PRIME_SEGMENT - 1)
        sieve = bytearray([1]) * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, -(-lo // p) * p) - lo
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
        for i in (i for i, flag in enumerate(sieve) if flag):
            if lo + i <= root:
                base.append(lo + i)
            yield lo + i
        lo = hi + 1


def next_prime(n: int) -> int:
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending, by trial division to 10^5.

    A cofactor left after trial division is reported when it is prime and
    dropped otherwise, so the list is complete below 10^10 and may miss
    factors above; callers use it only for sufficient conditions.
    """
    n = abs(n)
    out = []
    for p in primes_upto(10**5):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1 and is_prime(n):
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# valuations


def valuation(q, p: int):
    """p-adic valuation v_p(q) of a rational (or integer); v_p(0) = +inf."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INFINITY
    v = 0
    num = q.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def residue(x, m: int) -> int:
    """x mod m for an integer, or a rational whose denominator is prime to m.

    Raises ZeroDivisionError when the denominator is not invertible mod m.
    """
    if isinstance(x, int):
        return x % m
    try:
        return x.numerator * pow(x.denominator, -1, m) % m
    except ValueError:
        raise ZeroDivisionError(f"denominator of {x} is not invertible mod {m}") from None

