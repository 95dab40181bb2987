"""Reduction of maps and points modulo primes, and residue-orbit analysis.

Good reduction is tested through the resultant of the normalized integral
model: the reduced map keeps full degree exactly when the resultant of the
coefficient forms is a p-adic unit.  `reduce_map` gives the one model of
a map acting on residues, mod p or mod p**M.  Residue orbits are computed
exactly over the finite set P^1(F_p), with Brent's cycle finder as the
memory-light fallback for large p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadReduction
from .dynsys import PPoint, RationalMap
from .padics import is_prime

__all__ = [
    "binary_form_resultant",
    "good_reduction",
    "reduce_point",
    "reduce_map",
    "ReducedMap",
    "ResidueOrbit",
    "residue_orbit",
    "RPoint",
    "INF_RESIDUE",
]

# A point of P^1(F_p) is an int residue in [0, p) or the infinity marker None.
RPoint = int | None
INF_RESIDUE: RPoint = None

# above this prime a residue orbit is walked by Brent's finder in O(1) memory
BRENT_THRESHOLD = 10**6


def binary_form_resultant(coeffs_f, coeffs_g) -> int:
    """Resultant of two degree-d binary forms given low-to-high in X.

    Computed as the 2d x 2d Sylvester-style determinant by fraction-free
    (Bareiss) elimination, so vanishing top coefficients are handled as
    genuine forms of degree d rather than lower-degree polynomials.
    """
    if len(coeffs_f) != len(coeffs_g):
        raise ValueError("forms must have equal degree")
    d = len(coeffs_f) - 1
    n = 2 * d
    rows = []
    f_desc = list(reversed([int(c) for c in coeffs_f]))
    g_desc = list(reversed([int(c) for c in coeffs_g]))
    for i in range(d):
        rows.append([0] * i + f_desc + [0] * (d - 1 - i))
    for i in range(d):
        rows.append([0] * i + g_desc + [0] * (d - 1 - i))
    # Bareiss elimination over Z
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def good_reduction(phi: RationalMap, p: int) -> bool:
    """True iff the reduction of the normalized model keeps degree d.

    For polynomial maps this agrees with the elementary criterion: p-integral
    coefficients with a unit leading coefficient.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    res = binary_form_resultant(phi.coeffs_f, phi.coeffs_g)
    return res % p != 0


def reduce_point(x, p: int) -> RPoint:
    """r_p(x) in P^1(F_p) from coprime integral coordinates."""
    x = PPoint.of(x)
    a, b = x.a % p, x.b % p
    if b == 0:
        if a == 0:
            raise ArithmeticError("non-normalized point")  # coprime pairs never both reduce to 0
        return INF_RESIDUE
    return a * pow(b, -1, p) % p


@dataclass(frozen=True)
class ReducedMap:
    """A map of good reduction acting on residues mod prime**precision.

    At precision 1 the points are P^1(F_p): residues in [0, p) and
    INF_RESIDUE.  Above it a residue is a p-integral point mod p**precision,
    and INF_RESIDUE stands for every point off the p-integral chart.  A
    polynomial map steps by one Horner pass over its affine coefficients.
    """

    prime: int
    precision: int
    modulus: int  # prime**precision
    coeffs_f: tuple[int, ...]
    coeffs_g: tuple[int, ...]
    degree: int
    # affine coefficients high to low, for a polynomial map; None otherwise
    horner: tuple[int, ...] | None

    def at_precision(self, precision: int) -> "ReducedMap":
        """The same map mod prime**precision, for precision <= self.precision."""
        if not 1 <= precision <= self.precision:
            raise ValueError(f"precision {precision} is outside 1..{self.precision}")
        return _model(self.prime, precision, self.coeffs_f, self.coeffs_g)

    def apply(self, x: RPoint) -> RPoint:
        m = self.modulus
        if self.horner is not None:
            if x is INF_RESIDUE:
                return INF_RESIDUE
            acc = 0
            for c in self.horner:
                acc = (acc * x + c) % m
            return acc
        a, b = (1, 0) if x is INF_RESIDUE else (x, 1)
        d = self.degree
        pa = [1] * (d + 1)
        pb = [1] * (d + 1)
        for i in range(1, d + 1):
            pa[i] = pa[i - 1] * a % m
            pb[i] = pb[i - 1] * b % m
        fv = sum(self.coeffs_f[i] * pa[i] * pb[d - i] for i in range(d + 1)) % m
        gv = sum(self.coeffs_g[i] * pa[i] * pb[d - i] for i in range(d + 1)) % m
        if gv % self.prime == 0:
            if fv % self.prime == 0:
                raise BadReduction("common root mod p")
            return INF_RESIDUE
        return fv * pow(gv, -1, m) % m

    @cached_property
    def derivative_terms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(numerator, denominator) coefficient vectors of the affine derivative."""
        m = self.modulus
        f = list(self.coeffs_f)
        g = list(self.coeffs_g)

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] = (out[i + j] + ai * bj) % m
            return out

        def deriv(cs):
            return [i * c % m for i, c in enumerate(cs)][1:]

        # both products have length 2d because the form vectors keep full length
        num = [(x - y) % m for x, y in zip(mul(deriv(f), g), mul(f, deriv(g)))]
        return tuple(num), tuple(mul(g, g))

    def derivative_at(self, x: int) -> int:
        """Affine derivative value at a finite non-pole residue."""
        m = self.modulus
        num, den = self.derivative_terms
        dv = sum(c * pow(x, i, m) for i, c in enumerate(den)) % m
        if dv % self.prime == 0:
            raise BadReduction("derivative at a pole residue")
        nv = sum(c * pow(x, i, m) for i, c in enumerate(num)) % m
        return nv * pow(dv, -1, m) % m


def _model(p: int, precision: int, coeffs_f, coeffs_g) -> ReducedMap:
    m = p**precision
    f = tuple(c % m for c in coeffs_f)
    g = tuple(c % m for c in coeffs_g)
    horner = None
    if not any(g[1:]):
        # polynomial map: good reduction makes the constant denominator a unit
        inv = pow(g[0], -1, m)
        horner = tuple(c * inv % m for c in reversed(f))
    return ReducedMap(p, precision, m, f, g, len(f) - 1, horner)


def reduce_map(phi: RationalMap, p: int, precision: int = 1) -> ReducedMap:
    """Reduction of the normalized integral model mod p**precision; raises on bad reduction."""
    if not good_reduction(phi, p):
        raise BadReduction(f"bad reduction at {p}")
    return _model(p, precision, phi.coeffs_f, phi.coeffs_g)


@dataclass(frozen=True)
class ResidueOrbit:
    """Tail and cycle of a point's forward orbit in P^1(F_p)."""

    start: RPoint
    tail: int
    cycle_length: int
    cycle: tuple[RPoint, ...]


def residue_orbit(phi_v: ReducedMap, x: RPoint) -> ResidueOrbit:
    """Exact tail and cycle data of x under the reduced map."""
    if phi_v.prime <= BRENT_THRESHOLD:
        seen: dict[RPoint, int] = {}
        pt = x
        path = []
        while pt not in seen:
            seen[pt] = len(path)
            path.append(pt)
            pt = phi_v.apply(pt)
        tail = seen[pt]
        cycle = tuple(path[tail:])
        return ResidueOrbit(x, tail, len(cycle), cycle)
    return _residue_orbit_brent(phi_v, x)


def _residue_orbit_brent(phi_v: ReducedMap, x: RPoint) -> ResidueOrbit:
    """Brent's cycle finder: O(tail + cycle) time, O(1) extra memory."""
    power = length = 1
    tortoise = x
    hare = phi_v.apply(x)
    while tortoise != hare:
        if power == length:
            tortoise = hare
            power *= 2
            length = 0
        hare = phi_v.apply(hare)
        length += 1
    tortoise = hare = x
    for _ in range(length):
        hare = phi_v.apply(hare)
    tail = 0
    while tortoise != hare:
        tortoise = phi_v.apply(tortoise)
        hare = phi_v.apply(hare)
        tail += 1
    cycle = [tortoise]
    pt = phi_v.apply(tortoise)
    while pt != tortoise:
        cycle.append(pt)
        pt = phi_v.apply(pt)
    return ResidueOrbit(x, tail, length, tuple(cycle))


def residue_cycle_multiplier(phi_v: ReducedMap, cycle: tuple[RPoint, ...]) -> int | None:
    """Product of derivative values along a residue cycle, mod the map's modulus.

    Returns None when the cycle passes through infinity or a pole residue,
    where the affine chain rule does not apply directly.
    """
    lam = 1
    for pt in cycle:
        if pt is INF_RESIDUE:
            return None
        try:
            lam = lam * phi_v.derivative_at(pt) % phi_v.modulus
        except BadReduction:
            return None
    return lam
