"""Reduction of maps and points modulo primes, residue orbits, and the proof
that a critical point is or is not periodic.

Good reduction is tested through the resultant of the normalized integral
model: the reduced map keeps full degree exactly when the resultant of the
coefficient forms is a p-adic unit.  `reduce_map` gives the one model of
a map acting on residues, mod p or mod p**M.  Residue orbits are computed
exactly over P^1(F_p), and over P^1(F_p[t]/(w)) for a critical factor w.

Each map's resultant, each reduction and each residue orbit is found once
per process, for the inputs in recent use, so every stage shares one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

from .errors import BadReduction, InvalidOption, PeriodicCriticalPoint, UndecidedPeriodicity
from .dynsys import EXACT_BITS_CAP, PPoint, RationalMap, exceptional_places, form_scale
from .padics import is_prime, next_prime, prime_factors
from .polynomials import Polynomial
from .univariate import derivative, gf_combination, gf_monomials, gf_mulmod, gf_squarefree, mul

__all__ = [
    "binary_form_resultant",
    "good_reduction",
    "reduce_point",
    "reduce_map",
    "ReducedMap",
    "ResidueOrbit",
    "residue_orbit",
    "has_periodic_root",
    "aperiodic_critical_places",
    "RPoint",
    "INF_RESIDUE",
]

# A point of P^1(F_p) is an int residue in [0, p) or the infinity marker None.
RPoint = int | None
INF_RESIDUE: RPoint = None

# bounded: a long run over many random maps would otherwise keep every entry
CACHE_SIZE = 1024


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
    return _resultant(phi) % p != 0


@lru_cache(maxsize=CACHE_SIZE)
def _resultant(phi: RationalMap) -> int:
    """The resultant of phi's coefficient forms, found once per process."""
    return binary_form_resultant(phi.coeffs_f, phi.coeffs_g)


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

    def ring_orbit(self, w: list[int]):
        """The orbit of t in P^1(F_p[t]/(w)) at precision 1: points (A : B) of
        length deg w, from (t : 1) by (A, B) <- (F(A, B), G(A, B)) mod (w, p)."""
        p = self.prime
        A, B = gf_mulmod([0, 1], [1], w, p), gf_mulmod([1], [1], w, p)
        while True:
            yield A, B
            forms = gf_monomials(A, B, self.degree, w, p)
            A, B = gf_combination(self.coeffs_f, forms, p), gf_combination(self.coeffs_g, forms, p)

    @cached_property
    def derivative_terms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(numerator, denominator) coefficient vectors of the affine derivative."""
        m = self.modulus
        f, g = self.coeffs_f, self.coeffs_g
        # both products have length 2d because the form vectors keep full length
        num = [(x - y) % m for x, y in zip(mul(derivative(f), g), mul(f, derivative(g)))]
        return tuple(num), tuple(c % m for c in mul(g, g))

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


@lru_cache(maxsize=CACHE_SIZE)
def reduce_map(phi: RationalMap, p: int, precision: int = 1) -> ReducedMap:
    """Reduction of the normalized integral model mod p**precision, found
    once per process; raises on bad reduction (every time: nothing is cached
    for it, but the resultant that decides it is), and on a modulus p**precision
    past EXACT_BITS_CAP bits, before building it."""
    if precision * math.log2(p) > EXACT_BITS_CAP:
        raise InvalidOption(f"--precision {precision} at prime {p} makes a modulus past {EXACT_BITS_CAP} bits")
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


@lru_cache(maxsize=CACHE_SIZE)
def residue_orbit(phi_v: ReducedMap, x: RPoint) -> ResidueOrbit:
    """Exact tail and cycle data of x under the reduced map, found once per
    process for each (reduced map, start)."""
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


# ---------------------------------------------------------------------------
# periodic critical points


def has_periodic_root(phi: RationalMap, place) -> bool:
    """Whether some root of a critical place of phi is periodic.

    A place is a PPoint or an irreducible polynomial W in t, as
    :func:`dynsys.ramification_portrait` gives them.  A periodic critical
    point is superattracting, as are its Galois conjugates, all of one exact
    period n.  At an odd prime p of good reduction not dividing
    lead(W) disc(W), the roots of W reduce to distinct roots of W mod p,
    each of exact period n with no tail (Morton-Silverman: the exact period
    equals the residue period when the reduced multiplier is 0).  So:

    1. a polynomial map with good reduction at a prime dividing lead(W) has
       no periodic root of W: a periodic point is integral at such a prime;
    2. a tail in t's orbit in P^1(F_p[t]/(W mod p)) at either of the first
       two such primes, or two different periods, proves that none is;
    3. otherwise one exact check of phi^m(theta) = theta in Q[t]/(W),
       m the common period, decides.

    A rational point, infinity included, is the case deg W = 1: its residue
    orbit is :func:`residue_orbit`'s.  Raises UndecidedPeriodicity when the
    exact iterate passes EXACT_BITS_CAP bits.
    """
    W = None
    if not isinstance(place, PPoint):
        W = [int(c) for c in place.content_and_primitive()[1].univariate_coeffs()]
        if phi.is_polynomial and any(good_reduction(phi, ell) for ell in prime_factors(W[-1])):
            return False
    periods, p = [], 2
    while len(periods) < 2:
        p = next_prime(p)
        if not good_reduction(phi, p) or (W and (W[-1] % p == 0 or not gf_squarefree(W, p))):
            continue
        rm = reduce_map(phi, p)
        if W is None:
            orbit = residue_orbit(rm, reduce_point(place, p))
            period = None if orbit.tail else orbit.cycle_length
        else:
            period = _ring_period(rm, [c % p for c in W])
        if period is None:
            return False
        periods.append(period)
    return periods[0] == periods[1] and _returns_exactly(phi, place, periods[0])


def _ring_period(rm: ReducedMap, w: list[int]) -> int | None:
    """The period of t in P^1(F_p[t]/(w)), or None when its orbit has a tail.
    w is squarefree, so the ring is a product of fields, and (A : B) equals
    (A' : B') exactly when A B' = A' B mod (w, p).  Brent's search finds the
    period; t is periodic exactly when it comes back after one period."""
    p = rm.prime

    def same(x, y) -> bool:
        return gf_mulmod(x[0], y[1], w, p) == gf_mulmod(y[0], x[1], w, p)

    orbit = rm.ring_orbit(w)
    start = slow = next(orbit)
    fast, power, period = next(orbit), 1, 1
    while not same(slow, fast):
        if power == period:
            slow, power, period = fast, 2 * power, 0
        fast, period = next(orbit), period + 1
    return period if same(start, next(islice(rm.ring_orbit(w), period, None))) else None


def _returns_exactly(phi: RationalMap, place, m: int) -> bool:
    """Whether phi^m fixes the place's roots exactly: the point itself, or
    phi^m(t) = t in Q[t]/(W), iterated as (A : B) <- (F(A, B), G(A, B))
    mod W and scaled to coprime integers at each step.  Raises
    UndecidedPeriodicity when an iterate passes EXACT_BITS_CAP bits."""
    t = Polynomial.variable("t")
    state = place if isinstance(place, PPoint) else (t, Polynomial.constant(1, ("t",)))
    for _ in range(m):
        if isinstance(place, PPoint):
            state = phi.apply(state)
            bits = state.height_bits()
        else:
            A, B = (h.divmod(place)[1] for h in phi.forms_at(*state))
            scale = form_scale(A.univariate_coeffs(), B.univariate_coeffs())
            state = (A * scale, B * scale)
            bits = max(abs(n).bit_length() for h in state for n in h.num.values())
        if bits > EXACT_BITS_CAP:
            raise UndecidedPeriodicity(f"the exact check of period {m} passes {EXACT_BITS_CAP} bits")
    if isinstance(place, PPoint):
        return state == place
    return (state[0] - t * state[1]).divmod(place)[1].is_zero


def aperiodic_critical_places(phi: RationalMap, portrait: list) -> list[tuple[object, int]]:
    """The places (place, e) of ``ramification_portrait(phi)`` off phi's
    exceptional locus (rational points, or the factor of a conjugate pair),
    once :func:`has_periodic_root` proves each free of periodic roots;
    raises PeriodicCriticalPoint at the first place with one."""
    exceptional = exceptional_places(phi, portrait)
    places = [(place, e) for place, e in portrait if place not in exceptional]
    for place, _e in places:
        if has_periodic_root(phi, place):
            name = f"critical point {place}" if isinstance(place, PPoint) else "a conjugate critical point"
            raise PeriodicCriticalPoint(f"{name} is periodic")
    return places
