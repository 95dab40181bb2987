"""Finite-precision p-adic analytic machinery.

Three pieces:

* Strassmann's unit-disk zero count, read from the valuations of a power
  series' coefficients at a precision and a bound on its tail's;
* Mahler (binomial-basis) interpolation of an orbit along an arithmetic
  progression of iteration indices, sampled by the map reduced mod p**M and
  held as residues mod p**M;
* vanishing certificates for a polynomial composed with such interpolants.

Verdicts produced here are precision-stamped: "identically zero at
(order, precision)" asserts that every computed Mahler coefficient vanishes
modulo p**precision, nothing more.  The decision engine pairs these
certificates with an exact scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .errors import (
    InsufficientPrecision,
    InvalidOption,
    NotQuasiperiodic,
    VerificationFailed,
    ZeroSeries,
)
from .dynsys import PPoint, RationalMap
from .padics import DEFAULT_PRECISION, residue, valuation
from .polynomials import Polynomial, residue_eval
from .reduction import INF_RESIDUE, ReducedMap, reduce_map, reduce_point, residue_cycle_multiplier

__all__ = [
    "TruncatedPadicSeries",
    "strassmann_count",
    "residue_disk_quasiperiodic",
    "MahlerSeries",
    "orbit_interpolate",
    "certify_vanishing",
    "IdenticallyZeroAtPrecision",
    "NonzeroWitness",
]

DEFAULT_ORDER = 48
# the bits a Mahler series' difference table may hold: (order+1)^2 entries of
# up to M*log2(p) + order bits each
DIFFERENCE_TABLE_BITS_CAP = 1 << 32


# ---------------------------------------------------------------------------
# truncated series and Strassmann counting


@dataclass(frozen=True)
class TruncatedPadicSeries:
    """The valuations of coefficients a_0..a_J at precision M, plus a lower
    bound on the valuations of the tail.

    ``valuations[j]`` is v_p(a_j) when it is below M, else None: a_j is zero
    at precision.  ``tail_valuation`` bounds v_p(a_j) below over all j > J:
    +inf for polynomial (exactly truncated) series, an integer for a genuine
    analytic tail, or None when no bound is known.
    """

    prime: int
    precision: int
    valuations: tuple[int | None, ...]
    tail_valuation: int | float | None = math.inf

    @classmethod
    def from_rationals(cls, coeffs, p, precision=DEFAULT_PRECISION, tail_valuation=math.inf):
        vals = (valuation(c, p) for c in coeffs)
        return cls(p, precision, tuple(v if v < precision else None for v in vals), tail_valuation)


def strassmann_count(series: TruncatedPadicSeries) -> int:
    """Number of unit-disk zeros (with multiplicity) over C_p.

    This is the largest index attaining the maximal coefficient absolute
    value, that is the least valuation.  Every visible valuation is below
    the precision, so a coefficient zero at precision cannot attain it; the
    count requires the tail bound to exceed it.
    """
    visible = [v for v in series.valuations if v is not None]
    if not visible:
        raise ZeroSeries("every stored coefficient vanishes at its precision")
    m_min = min(visible)
    if series.tail_valuation is None:
        raise InsufficientPrecision("no tail valuation bound supplied")
    if series.tail_valuation <= m_min:
        raise InsufficientPrecision("tail bound does not exceed the attained maximum")
    return max(j for j, v in enumerate(series.valuations) if v == m_min)


# ---------------------------------------------------------------------------
# quasiperiodic residue disks


def residue_disk_quasiperiodic(
    phi_v: ReducedMap, center_residue, k: int
) -> tuple[bool, str, int | None]:
    """Certificate that the residue disk of a point is a quasiperiodicity disk
    for the k-th iterate of a good-reduction map.

    Sufficient (and, on residue disks, equivalent) conditions: the residue is
    k-periodic under the reduced map, the k-step trajectory stays finite and
    off the reduced denominator's zeros, and the chain-rule multiplier along
    the k steps is a unit.  Returns (ok, reason, multiplier mod p).
    """
    path = [center_residue]
    for _ in range(k):
        path.append(phi_v.apply(path[-1]))
    lam = residue_cycle_multiplier(phi_v, path[:-1])
    if lam is None:
        # the first step off the finite chart names the reason: a pole residue maps to infinity
        i = next(i for i in range(k) if INF_RESIDUE in (path[i], path[i + 1]))
        reason = "trajectory meets infinity" if path[i] is INF_RESIDUE else "trajectory meets a pole residue"
        return False, reason, None
    if path[-1] != center_residue:
        return False, "residue disk is not k-periodic", None
    if lam == 0:
        return False, "attracting residue class", 0
    return True, "ok", lam


# ---------------------------------------------------------------------------
# Mahler interpolation


class MahlerSeries:
    """Binomial-basis interpolation of n -> (orbit value at offset + n*step).

    Coefficients are the forward finite differences of the sampled values,
    held modulo p**precision; evaluation at integers reproduces the samples
    exactly at that precision.
    """

    __slots__ = ("prime", "precision", "step", "offset", "samples", "residues")

    def __init__(self, prime: int, precision: int, step: int, offset: int, samples):
        self.prime = prime
        self.precision = precision
        self.step = step
        self.offset = offset
        mod = prime**precision
        self.samples = tuple(int(s) % mod for s in samples)
        # exact differences: an entry of row j is at most 2^j mod, and only
        # the first entry of each row is read and reduced
        table = list(self.samples)
        residues = [table[0]]
        for _ in range(len(table) - 1):
            table = list(map(sub, table[1:], table))
            residues.append(table[0] % mod)
        self.residues = tuple(residues)

    @property
    def order(self) -> int:
        return len(self.samples) - 1

    def evaluate_residue(self, n: int) -> int:
        """Value at integer n, modulo p**precision."""
        mod = self.prime**self.precision
        acc = 0
        binom = 1  # C(n, j), exact integer arithmetic then reduced
        for j, r in enumerate(self.residues):
            if j:
                binom = binom * (n - j + 1) // j
            acc = (acc + r * (binom % mod)) % mod
        return acc


def orbit_interpolate(
    phi: RationalMap,
    x,
    k: int,
    ell: int,
    *,
    prime: int,
    order: int = DEFAULT_ORDER,
    precision: int = DEFAULT_PRECISION,
) -> MahlerSeries:
    """Mahler series of n -> phi^(n*k + ell)(x) at the given prime.

    Preconditions checked here: good reduction, p-integral start, and the
    residue disk of phi^ell(x) being a quasiperiodicity disk for phi^k
    (k-periodic residue, unit multiplier: the residue-disk certificate).
    An order whose difference table passes DIFFERENCE_TABLE_BITS_CAP is
    refused before the walk.
    """
    if k < 1:
        raise ValueError("step k must be >= 1")
    phi_m = reduce_map(phi, prime, precision)
    if (order + 1) ** 2 * (math.ceil(precision * math.log2(prime)) + order) > DIFFERENCE_TABLE_BITS_CAP:
        raise InvalidOption(
            f"--order {order} at prime {prime} and precision {precision} makes a difference table"
            f" past {DIFFERENCE_TABLE_BITS_CAP} bits"
        )
    pt = PPoint.of(x)
    if pt.is_infinity or pt.b % prime == 0:
        raise NotQuasiperiodic("start is not p-integral")
    phi_v = reduce_map(phi, prime)
    base_residue = reduce_point(pt, prime)
    for _ in range(ell):
        base_residue = phi_v.apply(base_residue)
    ok, reason, _ = residue_disk_quasiperiodic(phi_v, base_residue, k)
    if not ok:
        raise NotQuasiperiodic(reason)
    values = [residue(pt.as_fraction(), phi_m.modulus)]
    while len(values) <= ell + order * k:
        value = phi_m.apply(values[-1])
        if value is INF_RESIDUE:
            raise NotQuasiperiodic("orbit leaves the p-integral domain")
        values.append(value)
    samples = values[ell::k]
    series = MahlerSeries(prime, precision, k, ell, samples)
    # repeated prefix sums invert the forward-difference table: the series at
    # n = 0, 1, ..., summed exactly and reduced where read
    mod, table = phi_m.modulus, list(series.residues)
    for n in range(order + 1):
        if table[0] % mod != samples[n]:
            raise VerificationFailed(f"Mahler series misses its sample at n={n}")
        table = list(map(add, table, table[1:]))
    return series


# ---------------------------------------------------------------------------
# vanishing certificates


@dataclass(frozen=True)
class IdenticallyZeroAtPrecision:
    """All Mahler coefficients of the composition vanish mod p**precision."""

    order: int
    precision: int

    @property
    def identically_zero(self) -> bool:
        return True


@dataclass(frozen=True)
class NonzeroWitness:
    """Smallest sample index n with F(theta(n)) visibly nonzero (hence nonzero)."""

    n: int

    @property
    def identically_zero(self) -> bool:
        return False


def _p_normalized_integer_coeffs(F: Polynomial, p: int) -> Polynomial:
    """Scale F by a power of p times a unit so coefficients are p-integral
    with at least one unit; scaling does not change the vanishing locus."""
    if F.is_zero:
        return F
    shift = min(valuation(n, p) for n in F.num.values()) - valuation(F.den, p)
    return F * (Fraction(p) ** (-shift)) if shift else F


def certify_vanishing(F: Polynomial, thetas: list[MahlerSeries]):
    """Check whether F composed with the coordinate interpolants vanishes.

    Returns NonzeroWitness(n) for the smallest sample index where the
    composition is visibly nonzero modulo p**precision (which certifies an
    exact nonzero value), else IdenticallyZeroAtPrecision(order, precision).
    """
    if not thetas:
        raise ValueError("need at least one coordinate series")
    p = thetas[0].prime
    M = min(t.precision for t in thetas)
    J = min(t.order for t in thetas)
    if any(t.prime != p for t in thetas):
        raise ValueError("mixed primes")
    if len({(t.step, t.offset) for t in thetas}) != 1:
        raise ValueError("coordinate series are not aligned")
    if len(F.variables) != len(thetas):
        raise ValueError("variable count does not match the coordinate series")
    Fp = _p_normalized_integer_coeffs(F, p)
    mod = p**M
    int_terms = Fp.residues(mod)
    for n in range(J + 1):
        if residue_eval(int_terms, [t.samples[n] for t in thetas], mod):
            return NonzeroWitness(n)
    # Mahler coefficients of the composition: finite differences of zeros vanish
    return IdenticallyZeroAtPrecision(J, M)
