"""Capped-precision p-adic scalars and valuations.

A :class:`PadicNumber` is the value ``unit * p**valuation`` remembered
modulo ``p**precision`` (absolute precision).  Arithmetic propagates
worst-case absolute precision and never rounds silently.  Values are
immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "valuation",
    "residue",
    "PadicNumber",
    "padic_of_rational",
    "is_prime",
    "primes_upto",
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


def _strip_p(n: int, p: int) -> tuple[int, int]:
    """Return (v, u) with n = p**v * u and p not dividing u.  n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


class PadicNumber:
    """An element of Q_p known to absolute precision ``precision``.

    Attributes:
        prime: the prime p.
        precision: absolute precision M; the value is known modulo p**M.
        valuation: exact valuation, or +inf when no digit is visible below
            the cap (covers both the exact zero and "zero at precision").
        unit: integer in [1, p**(M - v)) coprime to p, or None at +inf
            valuation.  The represented value is unit * p**valuation.
    """

    __slots__ = ("prime", "precision", "_val", "unit")

    def __init__(self, prime: int, valuation_, unit, precision: int = DEFAULT_PRECISION):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.prime = prime
        self.precision = precision
        if valuation_ is None or valuation_ == INFINITY or unit in (None, 0) or valuation_ >= precision:
            self._val = None
            self.unit = None
            return
        rel = precision - valuation_
        u = unit % prime**rel
        if u == 0:
            self._val = None
            self.unit = None
            return
        if u % prime == 0:
            # absorb stray powers of p into the valuation
            extra, u = _strip_p(u, prime)
            valuation_ += extra
            if valuation_ >= precision:
                self._val = None
                self.unit = None
                return
            u %= prime ** (precision - valuation_)
        self._val = valuation_
        self.unit = u

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_integer(cls, n: int, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        n %= p**precision
        if n == 0:
            return cls(p, None, None, precision)
        v, u = _strip_p(n, p)
        return cls(p, v, u, precision)

    @classmethod
    def zero(cls, p: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls(p, None, None, precision)

    # -- queries ----------------------------------------------------------------

    @property
    def valuation(self):
        """Exact valuation when visible; +inf when the value vanishes mod p**M."""
        return INFINITY if self._val is None else self._val

    @property
    def is_zero_at_precision(self) -> bool:
        return self._val is None

    def residue(self) -> int:
        """The value as an integer mod p**precision.  Requires valuation >= 0."""
        if self._val is None:
            return 0
        if self._val < 0:
            raise ValueError("negative valuation has no integral residue")
        return self.unit * self.prime**self._val % self.prime**self.precision

    def abs_p(self) -> Fraction:
        """|x|_p = p**(-v); 0 when the value vanishes at precision."""
        if self._val is None:
            return Fraction(0)
        return Fraction(1, self.prime**self._val) if self._val >= 0 else Fraction(self.prime ** (-self._val))

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if self.prime != other.prime:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            return PadicNumber.from_integer(other, self.prime, self.precision)
        if isinstance(other, Fraction):
            return padic_of_rational(other, self.prime, self.precision)
        raise TypeError(f"cannot coerce {other!r} to PadicNumber")

    def __add__(self, other):
        other = self._coerce(other)
        p = self.prime
        prec = min(self.precision, other.precision)
        v1 = self._val if self._val is not None else prec
        v2 = other._val if other._val is not None else prec
        base = min(v1, v2, prec)
        rel = prec - base
        if rel < 1:
            return PadicNumber(p, None, None, prec)
        mod = p**rel
        t1 = (self.unit or 0) * pow(p, v1 - base) % mod if v1 - base < rel else 0
        t2 = (other.unit or 0) * pow(p, v2 - base) % mod if v2 - base < rel else 0
        return PadicNumber(p, base, (t1 + t2) % mod, prec)

    __radd__ = __add__

    def __neg__(self):
        if self._val is None:
            return self
        rel = self.precision - self._val
        return PadicNumber(self.prime, self._val, -self.unit % self.prime**rel, self.precision)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.prime
        v1 = self._val if self._val is not None else self.precision
        v2 = other._val if other._val is not None else other.precision
        prec = min(v1 + other.precision, v2 + self.precision)
        if self._val is None or other._val is None:
            return PadicNumber(p, None, None, max(prec, 1))
        rel = min(self.precision - v1, other.precision - v2)
        if prec < v1 + v2 + 1:
            return PadicNumber(p, None, None, max(prec, 1))
        return PadicNumber(p, v1 + v2, self.unit * other.unit % p**rel, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self._val is None:
            raise ZeroDivisionError("cannot invert a value that vanishes at precision")
        rel = self.precision - self._val
        u_inv = pow(self.unit, -1, self.prime**rel)
        # relative precision is preserved under inversion
        return PadicNumber(self.prime, -self._val, u_inv, rel - self._val)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.prime != other.prime:
            return False
        prec = min(self.precision, other.precision)
        v1 = self._val if self._val is not None else prec
        v2 = other._val if other._val is not None else prec
        if v1 >= prec and v2 >= prec:
            return True
        if v1 != v2:
            return False
        rel = prec - v1
        return (self.unit - other.unit) % self.prime**rel == 0

    def __hash__(self):
        if self._val is None:
            return hash((self.prime, "zero"))
        return hash((self.prime, self._val, self.unit))

    def __repr__(self):
        p, M = self.prime, self.precision
        if self._val is None:
            return f"O({p}^{M})"
        if self._val == 0:
            return f"{self.unit} + O({p}^{M})"
        return f"{self.unit}*{p}^{self._val} + O({p}^{M})"


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


def padic_of_rational(q, p: int, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Embed a rational into Q_p at the given absolute precision.

    Denominators divisible by p are fine and produce negative valuation.
    """
    q = Fraction(q)
    if q == 0:
        return PadicNumber.zero(p, precision)
    v_num, num = _strip_p(q.numerator, p)
    v_den, den = _strip_p(q.denominator, p)
    v = v_num - v_den
    rel = precision - v
    if rel < 1:
        return PadicNumber(p, None, None, precision)
    unit = num * pow(den, -1, p**rel) % p**rel
    return PadicNumber(p, v, unit, precision)
