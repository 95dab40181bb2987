"""Pullbacks of the diagonal under diagonal iterates, and integrality scans.

For a degree-d self-map of the line acting diagonally on the plane, the
level-n divisor is cut out (in the affine chart) by the difference of the
n-th iterates in the two variables.  Each level is divisible by the one
before; the fresh layer at level n is the quotient, computed for polynomial
maps through the divided-difference polynomial rather than by long division.

Squarefreeness of a layer is certified by specializing one variable and one
prime: if the specialized image keeps the x-degree and is squarefree over
F_q, the layer has no repeated factor (a sound one-sided certificate, with
the exact bivariate gcd as fallback).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapExceeded, InexactDivision, PeriodicCriticalPoint, PreperiodicInput, UndecidedPeriodicity
from .dynsys import (
    HEIGHT_CUTOFF_BITS,
    PPoint,
    RationalMap,
    escape_radius,
    exceptional_points,
    orbit_status,
    ramification_portrait,
)
from .padics import is_prime, next_prime, prime_factors
from .polynomials import Polynomial, poly_eval
from .reduction import good_reduction

__all__ = [
    "PlaceSet",
    "DiagonalPullback",
    "diagonal_pullback",
    "layer",
    "ramification_bound",
    "multiplicity_at",
    "s_integrality_scan",
    "bivariate_squarefree",
]

DEFAULT_LEVEL_CAP = 6

_BIV = ("x", "y")


@dataclass(frozen=True)
class PlaceSet:
    """A finite set of primes together with the (always present) archimedean place."""

    primes: frozenset[int]

    def __init__(self, primes=()):
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    @property
    def includes_archimedean(self) -> bool:
        return True


def _difference_poly(iter_poly: Polynomial) -> Polynomial:
    """g(x) - g(y) as a plane polynomial, for univariate g."""
    terms = {}
    for (e,), c in iter_poly.terms.items():
        if e == 0:
            continue
        terms[(e, 0)] = c
        terms[(0, e)] = -c
    return Polynomial(_BIV, terms)


def divided_difference(f_coeffs: list[Fraction]) -> Polynomial:
    """(f(x) - f(y)) / (x - y) as an exact plane polynomial."""
    terms: dict = {}
    for i, a in enumerate(f_coeffs):
        if i == 0 or a == 0:
            continue
        for j in range(i):
            key = (j, i - 1 - j)
            terms[key] = terms.get(key, Fraction(0)) + a
    return Polynomial(_BIV, terms)


@dataclass(frozen=True)
class DiagonalPullback:
    """Defining polynomial of the level-n diagonal pullback with its factor chain."""

    phi: RationalMap
    level: int
    poly: Polynomial
    chain: tuple[Polynomial, ...]  # levels 0..n, each dividing the next

    def layer(self, n: int) -> Polynomial:
        if n == 0:
            return self.chain[0]
        return self.chain[n].divexact(self.chain[n - 1])


def _polynomial_chain(phi: RationalMap, n: int) -> list[Polynomial]:
    f = Polynomial.univariate(phi.affine_coefficients(), "t")
    iterates = [Polynomial.variable("t")]
    for _ in range(n):
        iterates.append(f.substitute({"t": iterates[-1]}))
    return [_difference_poly(g) for g in iterates]


def _rational_chain(phi: RationalMap, n: int) -> list[Polynomial]:
    chain = []
    current = phi
    pairs = []
    for _ in range(n):
        pairs.append(current)
        current = phi.compose(current)

    def cross_difference(psi: RationalMap | None) -> Polynomial:
        if psi is None:
            return Polynomial(_BIV, {(1, 0): 1, (0, 1): -1})
        fx = psi.affine_numerator().placed(_BIV, "x")
        gx = psi.affine_denominator().placed(_BIV, "x")
        fy = psi.affine_numerator().placed(_BIV, "y")
        gy = psi.affine_denominator().placed(_BIV, "y")
        return fx * gy - fy * gx

    chain.append(cross_difference(None))
    for k in range(n):
        chain.append(cross_difference(pairs[k]))
    return chain


def diagonal_pullback(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> DiagonalPullback:
    """Exact defining polynomial of the level-n pullback, chain verified."""
    if phi.degree < 1:
        raise ValueError("degree must be at least 1")
    if n > cap:
        raise DegreeCapExceeded(f"level {n} exceeds cap {cap}")
    if phi.is_polynomial:
        chain = _polynomial_chain(phi, n)
        dd = divided_difference(phi.affine_coefficients())
        f = Polynomial.univariate(phi.affine_coefficients(), "t")
        iterate = Polynomial.variable("t")
        for k in range(1, n + 1):
            ux = iterate.placed(_BIV, "x")
            uy = iterate.placed(_BIV, "y")
            quotient = _substitute_pair(dd, ux, uy)
            if chain[k - 1] * quotient != chain[k]:
                raise InexactDivision(f"chain verification failed at level {k}")
            iterate = f.substitute({"t": iterate})
    else:
        chain = _rational_chain(phi, n)
        for k in range(1, n + 1):
            chain[k].divexact(chain[k - 1])  # raises InexactDivision on failure
    return DiagonalPullback(phi, n, chain[n], tuple(chain))


def _substitute_pair(plane_poly: Polynomial, ux: Polynomial, uy: Polynomial) -> Polynomial:
    """Evaluate a plane polynomial at (ux(x), uy(y)) for univariate images."""
    x_pows: dict[int, Polynomial] = {0: Polynomial.constant(1, _BIV)}
    y_pows: dict[int, Polynomial] = {0: Polynomial.constant(1, _BIV)}

    def power(cache, base, e):
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for _ in range(e - best):
                acc = acc * base
            cache[e] = acc
        return cache[e]

    acc = Polynomial(_BIV, {})
    for (ex, ey), c in plane_poly.terms.items():
        term = Polynomial.constant(c, _BIV)
        if ex:
            term = term * power(x_pows, ux, ex)
        if ey:
            term = term * power(y_pows, uy, ey)
        acc = acc + term
    return acc


def layer(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> tuple[Polynomial, bool]:
    """The fresh layer at level n with its squarefreeness certificate."""
    if n > cap:
        raise DegreeCapExceeded(f"level {n} exceeds cap {cap}")
    if n == 0:
        return Polynomial(_BIV, {(1, 0): 1, (0, 1): -1}), True
    if phi.is_polynomial:
        dd = divided_difference(phi.affine_coefficients())
        prev = phi.iterate_polynomial(n - 1)
        ux = prev.placed(_BIV, "x")
        uy = prev.placed(_BIV, "y")
        Y = _substitute_pair(dd, ux, uy)
    else:
        pullback = diagonal_pullback(phi, n, cap)
        Y = pullback.chain[n].divexact(pullback.chain[n - 1])
    return Y, bivariate_squarefree(Y)


# ---------------------------------------------------------------------------
# squarefreeness


def _specialized_mod_q(poly: Polynomial, y0: int, q: int) -> list[int] | None:
    """Dense coefficient list of poly(x, y0) mod q, or None if q hits denominators."""
    try:
        residues = poly.residues(q)
    except ZeroDivisionError:
        return None
    out = [0] * (poly.degree("x") + 1)
    ypow = {0: 1}
    for (ex, ey), val in residues.items():
        if ey not in ypow:
            ypow[ey] = pow(y0, ey, q)
        out[ex] = (out[ex] + val * ypow[ey]) % q
    return out


def _gf_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            coef = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - coef * c) % q
            trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def bivariate_squarefree(poly: Polynomial, attempts: int = 8, seed: int = 20240613) -> bool:
    """Exact squarefreeness of a plane polynomial over Q.

    Fast path: a specialization y = y0 reduced mod a random prime q that
    keeps the x-degree and is squarefree over F_q proves squarefreeness of
    the x-primitive part; the x-content is handled separately.  Falls back
    to the exact bivariate gcd when no specialization certifies.
    """
    if poly.is_zero:
        return False
    if poly.degree("x") == 0:
        return _univariate_squarefree(poly, "y")
    content = _content_in_x(poly)
    if content.degree("y") and not _univariate_squarefree(content, "y"):
        return False
    if content.degree("y"):
        prim = poly.divexact(content.with_variables(_BIV))
        if prim.gcd(content.with_variables(_BIV)).total_degree() > 0:
            return False
    else:
        prim = poly
    rng = random.Random(seed)
    deg = prim.degree("x")
    for _ in range(attempts):
        y0 = rng.randint(2, 997)
        q = next_prime(rng.randint(1 << 29, 1 << 30))
        coeffs = _specialized_mod_q(prim, y0, q)
        if coeffs is None or len(coeffs) - 1 != deg or coeffs[-1] == 0:
            continue
        deriv = [i * c % q for i, c in enumerate(coeffs)][1:]
        if _gf_gcd_degree(coeffs, deriv, q) == 0:
            return True
    gx = prim.gcd(prim.derivative("x"))
    return gx.degree("x") == 0


def _univariate_squarefree(poly: Polynomial, var: str) -> bool:
    g = poly.gcd(poly.derivative(var))
    return g.total_degree() == 0


def _content_in_x(poly: Polynomial) -> Polynomial:
    """gcd over Q[y] of the coefficients of poly viewed in (Q[y])[x]."""
    by_x: dict[int, dict] = {}
    for (ex, ey), c in poly.terms.items():
        by_x.setdefault(ex, {})[(ey,)] = c
    coeffs = [Polynomial(("y",), t) for t in by_x.values()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = g.gcd(c)
        if g.total_degree() == 0:
            break
    return g


# ---------------------------------------------------------------------------
# ramification


def _factor_has_periodic_root(phi: RationalMap, factor: Polynomial, bound: int = 64) -> bool:
    """Exact periodicity decision for the conjugate roots of an irreducible factor.

    Polynomial maps with good reduction at a prime dividing the factor's
    leading coefficient cannot have those roots periodic (periodic points
    stay integral at good primes).  Otherwise iterate t mod factor: a gcd
    hit proves a periodic root; a state revisit proves there is none, and so
    does an iterate with a conjugate beyond the escape radius.  Iterates
    whose coefficients pass the height cutoff leave the question open.
    """
    if not phi.is_polynomial:
        raise UndecidedPeriodicity("irrational critical points of a non-polynomial map")
    _, prim = factor.content_and_primitive()
    lead = prim.terms[max(prim.terms)]
    if any(good_reduction(phi, ell) for ell in prime_factors(int(lead))):
        return False
    var = factor.variables[0]
    coeffs = phi.affine_coefficients()
    f = Polynomial.univariate(coeffs, var)
    radius = escape_radius(coeffs)
    t = Polynomial.variable(var)
    h = t
    seen = {h}
    for _ in range(bound):
        h = _poly_mod(f.substitute({var: h}), factor)
        if (h - t).gcd(factor).total_degree() > 0:
            return True
        if h in seen or _has_conjugate_beyond(h, factor, radius):
            return False
        if max(max(abs(c.numerator), c.denominator).bit_length() for c in h.terms.values()) > HEIGHT_CUTOFF_BITS:
            break
        seen.add(h)
    raise UndecidedPeriodicity("periodicity of conjugate critical points unresolved")


def _has_conjugate_beyond(h: Polynomial, factor: Polynomial, radius: Fraction) -> bool:
    """Whether |h(theta)| > radius for some complex root theta of the factor.

    The values h(theta) are the roots of Res_t(factor(t), z - h(t)); were
    they all in the closed disk of that radius, the coefficient k places
    below the top would be at most binom(d, k) * radius^k times the top one.
    """
    var = factor.variables[0]
    names = (var, "z")
    z = Polynomial.variable("z", names)
    char = factor.with_variables(names).resultant(z - h.with_variables(names), var).univariate_coeffs()
    d = len(char) - 1
    return any(abs(char[d - k]) > math.comb(d, k) * radius**k * abs(char[d]) for k in range(1, d + 1))


def _poly_mod(poly: Polynomial, modulus: Polynomial) -> Polynomial:
    import sympy

    _, r = sympy.div(poly.to_sympy(), modulus.to_sympy())
    return Polynomial.from_sympy(r, poly.variables)


def ramification_bound(phi: RationalMap) -> int:
    """Product of ramification indices over the non-exceptional critical points.

    Raises PeriodicCriticalPoint when some non-exceptional critical point is
    periodic (the uniform-multiplicity bound does not exist in that case).
    """
    if phi.degree < 2:
        raise ValueError("degree must be at least 2")
    exceptional = exceptional_points(phi)
    bound = 1
    for place, e in ramification_portrait(phi):
        if isinstance(place, PPoint):
            if place in exceptional:
                continue
            status = orbit_status(phi, place)
            if status.kind == "periodic":
                raise PeriodicCriticalPoint(f"critical point {place} is periodic")
            if not status.proven and status.kind == "wanders":
                raise UndecidedPeriodicity(f"cannot resolve critical orbit of {place}")
            bound *= e
        else:
            if _factor_has_periodic_root(phi, place):
                raise PeriodicCriticalPoint("a conjugate critical point is periodic")
            bound *= e ** place.degree(place.variables[0])
    return bound


# ---------------------------------------------------------------------------
# multiplicities and integral points


def multiplicity_at(pullback: DiagonalPullback, P, Q) -> int:
    """Order of vanishing of the defining polynomial at the finite point (P, Q)."""
    a, b = Fraction(P), Fraction(Q)
    poly = pullback.poly
    total = poly.total_degree()
    row = [poly]
    m = 0
    while m <= total:
        for deriv in row:
            if deriv.evaluate({"x": a, "y": b}) != 0:
                return m
        m += 1
        new_row = [row[0].derivative("x")]
        for deriv in row:
            new_row.append(deriv.derivative("y"))
        row = new_row
    return m


def _is_s_unit(q: Fraction, places: PlaceSet) -> bool:
    if q == 0:
        return False
    num, den = abs(q.numerator), q.denominator
    for p in places.primes:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return num == 1 and den == 1


def s_integrality_scan(phi: RationalMap, alpha, beta, places: PlaceSet, n_max: int) -> list[int]:
    """Indices n <= n_max where the n-th iterate difference is an S-unit.

    Exact rational evaluation; heights roughly square each step, so keep
    n_max at desk scale.  Both starting points must be non-preperiodic.
    """
    if not phi.is_polynomial:
        raise ValueError("integrality scan expects a polynomial map")
    for pt in (alpha, beta):
        status = orbit_status(phi, pt)
        if status.is_preperiodic:
            raise PreperiodicInput(f"{pt} is preperiodic")
    hits = []
    a, b = Fraction(alpha), Fraction(beta)
    coeffs = phi.affine_coefficients()
    for n in range(n_max + 1):
        if _is_s_unit(a - b, places):
            hits.append(n)
        a = poly_eval(coeffs, a)
        b = poly_eval(coeffs, b)
    return hits
