from fractions import Fraction

import pytest

from orbitlang.dynsys import RationalMap
from orbitlang.errors import PrecisionExhausted
from orbitlang.polynomials import Polynomial
from orbitlang.scan import OrbitScanner


def test_control_prime_in_a_generator_denominator_exhausts_precision():
    # the orbit of 0 under t^2+1 passes the exact horizon before n = 20
    scanner = OrbitScanner([RationalMap.quadratic(1)], [0])
    q = scanner.control_primes[0]
    gen = Polynomial(("x1",), {(1,): Fraction(1, q), (0,): 1})
    assert not scanner.is_hit([gen], 5)
    assert scanner.exact_point(20) is None
    with pytest.raises(PrecisionExhausted, match="control prime collides with a coefficient"):
        scanner.is_hit([gen], 20)
