"""Finite-precision p-adic analytic machinery.

Four pieces:

* truncated power series with a tail-valuation bound, and Strassmann-style
  unit-disk zero counting;
* the quasiperiodicity-disk test for an explicitly given disk, done in exact
  rational arithmetic (the disk-normalized expansion has rational
  coefficients, so every inequality on |.|_p is decided exactly);
* Mahler (binomial-basis) interpolation of an orbit along an arithmetic
  progression of iteration indices, computed modulo p**M;
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

from .errors import (
    BadReduction,
    InsufficientPrecision,
    NotQuasiperiodic,
    PoleInDisk,
    VerificationFailed,
    ZeroSeries,
)
from .dynsys import PPoint, RationalMap
from .padics import DEFAULT_PRECISION, PadicNumber, residue, valuation
from .polynomials import Polynomial, residue_eval
from .reduction import INF_RESIDUE, ReducedMap, good_reduction, reduce_map, reduce_point

__all__ = [
    "TruncatedPadicSeries",
    "strassmann_count",
    "Disk",
    "is_quasiperiodicity_disk",
    "residue_disk_quasiperiodic",
    "MahlerSeries",
    "orbit_interpolate",
    "certify_vanishing",
    "IdenticallyZeroAtPrecision",
    "NonzeroWitness",
    "ModularOrbit",
]

DEFAULT_ORDER = 48


# ---------------------------------------------------------------------------
# truncated series and Strassmann counting


class TruncatedPadicSeries:
    """Coefficients a_0..a_J as PadicNumbers plus a lower bound on tail valuations.

    ``tail_valuation`` is a single lower bound for v_p(a_j) over all j > J:
    +inf for polynomial (exactly truncated) series, an integer for a genuine
    analytic tail, or None when no bound is known.
    """

    __slots__ = ("prime", "coefficients", "tail_valuation")

    def __init__(self, prime, coefficients, tail_valuation=math.inf):
        self.prime = prime
        self.coefficients = tuple(coefficients)
        for c in self.coefficients:
            if not isinstance(c, PadicNumber) or c.prime != prime:
                raise ValueError("coefficients must be PadicNumbers over the same prime")
        self.tail_valuation = tail_valuation

    @classmethod
    def from_rationals(cls, coeffs, p, precision=DEFAULT_PRECISION, tail_valuation=math.inf):
        from .padics import padic_of_rational

        return cls(p, [padic_of_rational(Fraction(c), p, precision) for c in coeffs], tail_valuation)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "TruncatedPadicSeries") -> "TruncatedPadicSeries":
        if self.prime != other.prime:
            raise ValueError("mixed primes")
        if self.tail_valuation == math.inf and other.tail_valuation == math.inf:
            n1, n2 = len(self.coefficients), len(other.coefficients)
            prec = min(c.precision for c in self.coefficients + other.coefficients)
            out = [PadicNumber.zero(self.prime, prec) for _ in range(n1 + n2 - 1)]
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    out[i + j] = out[i + j] + a * b
            return TruncatedPadicSeries(self.prime, out, math.inf)
        # with unknown-order tails only a conservative product is possible
        J = min(self.order, other.order)
        prec = min(c.precision for c in self.coefficients + other.coefficients)
        out = [PadicNumber.zero(self.prime, prec) for _ in range(J + 1)]
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                if i + j <= J:
                    out[i + j] = out[i + j] + a * b

        def min_val(series):
            vals = [c.valuation for c in series.coefficients]
            vals.append(series.tail_valuation if series.tail_valuation is not None else -math.inf)
            return min(vals)

        tail = min_val(self) + min_val(other)
        return TruncatedPadicSeries(self.prime, out, tail)


def strassmann_count(series: TruncatedPadicSeries) -> int:
    """Number of unit-disk zeros (with multiplicity) over C_p.

    This is the largest index attaining the maximal coefficient absolute
    value.  The count requires the maximum to be certifiably attained among
    the stored coefficients, away from the tail and from any coefficient
    whose valuation is hidden by its precision cap.
    """
    visible = [(j, c.valuation) for j, c in enumerate(series.coefficients) if not c.is_zero_at_precision]
    if not visible:
        raise ZeroSeries("every stored coefficient vanishes at its precision")
    m_min = min(v for _, v in visible)
    for j, c in enumerate(series.coefficients):
        if c.is_zero_at_precision and c.precision <= m_min:
            raise InsufficientPrecision(
                f"coefficient {j} is O(p^{c.precision}) and could attain the maximum"
            )
    if series.tail_valuation is None:
        raise InsufficientPrecision("no tail valuation bound supplied")
    if series.tail_valuation <= m_min:
        raise InsufficientPrecision("tail bound does not exceed the attained maximum")
    return max(j for j, v in visible if v == m_min)


# ---------------------------------------------------------------------------
# quasiperiodicity disks


@dataclass(frozen=True)
class Disk:
    """Open disk D(center, p**(-radius_valuation)) inside Q_p."""

    center: Fraction
    radius_valuation: int = 0


def _series_inverse(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """1 / sum(coeffs[i] s^i) modulo s^(order+1); coeffs[0] != 0."""
    inv = [Fraction(1) / coeffs[0]]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(n, len(coeffs) - 1) + 1):
            acc += coeffs[i] * inv[n - i]
        inv.append(-acc / coeffs[0])
    return inv


def is_quasiperiodicity_disk(
    phi: RationalMap,
    disk: Disk,
    p: int,
    order: int = 24,
) -> bool:
    """Test whether phi maps the disk bijectively onto itself with unit slope.

    The disk-normalized conjugate of phi is expanded to the given order in
    exact rational arithmetic; the constant term must be small, the linear
    term a unit, and all further coefficients integral.  The tail is covered
    by a Gauss-norm bound on the rational-function expansion, so a True
    answer is a certificate while False may also mean "not certifiable at
    this normalization".
    """
    a = Fraction(disk.center)
    rho = disk.radius_valuation
    lam = Fraction(p) ** rho
    t = Polynomial.variable("s")
    shift = t * lam + a  # gamma(s) = a + lambda s maps the unit disk onto the given disk
    num = phi.affine_numerator("s").substitute({"s": shift})
    den = phi.affine_denominator("s").substitute({"s": shift})
    # psi(s) = (phi(a + lambda s) - a) / lambda as P(s)/Q(s)
    P = (num - den * a) * (Fraction(1) / lam)
    Q = den
    q_coeffs = Q.univariate_coeffs()
    if not q_coeffs or q_coeffs[0] == 0:
        raise PoleInDisk("pole at the disk center")
    v_q0 = valuation(q_coeffs[0], p)
    if any(valuation(c, p) < v_q0 for c in q_coeffs[1:] if c != 0):
        raise PoleInDisk("denominator vanishes inside the disk")
    p_coeffs = P.univariate_coeffs()
    if not p_coeffs:
        return False  # psi identically zero: not a bijection
    tail_bound = min(valuation(c, p) for c in p_coeffs if c != 0) - v_q0
    inv = _series_inverse(q_coeffs, order)
    c = []
    for n in range(order + 1):
        acc = Fraction(0)
        for i in range(min(n, len(p_coeffs) - 1) + 1):
            acc += p_coeffs[i] * inv[n - i]
        c.append(acc)
    if valuation(c[0], p) < 1:
        return False
    if len(c) < 2 or valuation(c[1], p) != 0:
        return False
    if any(valuation(ci, p) < 0 for ci in c[2:] if ci != 0):
        return False
    return tail_bound >= 0


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
    p = phi_v.prime
    pt = center_residue
    lam = 1
    for _ in range(k):
        if pt is INF_RESIDUE:
            return False, "trajectory meets infinity", None
        try:
            step = phi_v.derivative_at(pt)
        except BadReduction:
            return False, "trajectory meets a pole residue", None
        lam = lam * step % p
        pt = phi_v.apply(pt)
    if pt != center_residue:
        return False, "residue disk is not k-periodic", None
    if lam == 0:
        return False, "attracting residue class", 0
    return True, "ok", lam


# ---------------------------------------------------------------------------
# modular orbits and Mahler interpolation


class ModularOrbit:
    """Forward orbit of a p-integral point computed modulo p**precision.

    Requires good reduction and a trajectory whose residues stay finite and
    away from the reduced denominator's zeros (automatic for polynomial maps
    with a p-integral start).
    """

    def __init__(self, phi: RationalMap, x, p: int, precision: int = DEFAULT_PRECISION):
        if not good_reduction(phi, p):
            raise BadReduction(f"bad reduction at {p}")
        pt = PPoint.of(x)
        if pt.is_infinity or pt.b % p == 0:
            raise NotQuasiperiodic("start is not p-integral")
        self.phi = phi
        self.prime = p
        self.precision = precision
        self.modulus = p**precision
        self._f = [int(c) % self.modulus for c in phi.coeffs_f]
        self._g = [int(c) % self.modulus for c in phi.coeffs_g]
        self._values = [residue(pt.as_fraction(), self.modulus)]

    def value(self, n: int) -> int:
        while len(self._values) <= n:
            self._values.append(self._step(self._values[-1]))
        return self._values[n]

    def _step(self, v: int) -> int:
        mod = self.modulus
        num = 0
        den = 0
        power = 1
        for i in range(self.phi.degree + 1):
            num = (num + self._f[i] * power) % mod
            den = (den + self._g[i] * power) % mod
            power = power * v % mod
        if den % self.prime == 0:
            raise NotQuasiperiodic("orbit leaves the p-integral domain")
        return num * pow(den, -1, mod) % mod


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
        self.samples = tuple(int(s) % prime**precision for s in samples)
        mod = prime**precision
        table = list(self.samples)
        residues = [table[0]]
        for _ in range(len(table) - 1):
            table = [(b - a) % mod for a, b in zip(table, table[1:])]
            residues.append(table[0])
        self.residues = tuple(residues)

    @property
    def order(self) -> int:
        return len(self.samples) - 1

    @property
    def coefficients(self) -> tuple[PadicNumber, ...]:
        return tuple(PadicNumber.from_integer(r, self.prime, self.precision) for r in self.residues)

    def coefficient_valuations(self) -> list:
        return [c.valuation for c in self.coefficients]

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

    def evaluate(self, n: int) -> PadicNumber:
        return PadicNumber.from_integer(self.evaluate_residue(n), self.prime, self.precision)


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
    """
    if k < 1:
        raise ValueError("step k must be >= 1")
    orbit = ModularOrbit(phi, x, prime, precision)
    phi_v = reduce_map(phi, prime)
    base_residue = reduce_point(PPoint.of(x), prime)
    for _ in range(ell):
        base_residue = phi_v.apply(base_residue)
    ok, reason, _ = residue_disk_quasiperiodic(phi_v, base_residue, k)
    if not ok:
        raise NotQuasiperiodic(reason)
    samples = [orbit.value(ell + n * k) for n in range(order + 1)]
    series = MahlerSeries(prime, precision, k, ell, samples)
    for n in range(order + 1):
        if series.evaluate_residue(n) != samples[n]:
            raise VerificationFailed(f"Mahler series misses its sample at n={n}")
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
    shift = min(valuation(c, p) for c in F.terms.values())
    return F * (Fraction(p) ** (-shift))


def certify_vanishing(F: Polynomial, thetas: list[MahlerSeries], order=None, precision=None):
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
    if order is not None:
        J = min(J, order)
    if precision is not None:
        M = min(M, precision)
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
