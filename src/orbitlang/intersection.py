"""Pullbacks of the diagonal under diagonal iterates, and integrality scans.

For a degree-d self-map phi = [F : G] of the line acting diagonally on the
plane, the level-k divisor is cut out (in the affine chart) by the cross
difference p_k(x) q_k(y) - p_k(y) q_k(x) of the affine forms of phi^k, which
is f^k(x) - f^k(y) for a polynomial map f.  One construction serves every
map.  Each level is the one before times a fresh layer: the Bezoutian of phi,

    (F(X1, Y1) G(X2, Y2) - F(X2, Y2) G(X1, Y1)) / (X1 Y2 - X2 Y1),

evaluated at (p_{k-1}, q_{k-1}) in x and in y (the divided difference
(f(x) - f(y)) / (x - y) for a polynomial map).  No long division is done:
every level is checked by the exact product chain[k-1] * layer_k == chain[k].

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
    form_scale,
    orbit_status,
    ramification_portrait,
)
from .padics import is_prime, next_prime, prime_factors
from .polynomials import Polynomial, horner_forms, poly_eval
from .reduction import good_reduction

__all__ = [
    "PlaceSet",
    "DiagonalPullback",
    "diagonal_pullback",
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


@dataclass(frozen=True)
class DiagonalPullback:
    """Defining polynomial of the level-n diagonal pullback with its factor chain."""

    phi: RationalMap
    level: int
    poly: Polynomial
    chain: tuple[Polynomial, ...]  # levels 0..n, each dividing the next
    layers: tuple[Polynomial, ...]  # layers[k] = chain[k] / chain[k-1]; layers[0] = chain[0]


def _bezout_matrix(phi: RationalMap) -> list[list[Fraction]]:
    """B with F(X1, Y1) G(X2, Y2) - F(X2, Y2) G(X1, Y1) equal to
    (X1 Y2 - X2 Y1) * sum B[a][b] X1^a Y1^(d-1-a) X2^b Y2^(d-1-b)."""
    f, g, d = phi.coeffs_f, phi.coeffs_g, phi.degree
    B = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d + 1):
        for j in range(i):
            c = f[i] * g[j] - f[j] * g[i]
            if c:
                # the pair (i, j) contributes c (U^m - V^m) / (U - V) times a
                # common monomial, with U = X1 Y2, V = X2 Y1 and m = i - j
                for ell in range(i - j):
                    B[j + ell][i - 1 - ell] += c
    return B


def _cross(p: Polynomial, q: Polynomial) -> Polynomial:
    """p(x) q(y) - p(y) q(x) for univariate p, q."""
    return p.placed(_BIV, "x") * q.placed(_BIV, "y") - p.placed(_BIV, "y") * q.placed(_BIV, "x")


def _bezoutian_at(bezout: list[list[Fraction]], p: Polynomial, q: Polynomial) -> Polynomial:
    """The Bezoutian at (X1, Y1) = (p(x), q(x)) and (X2, Y2) = (p(y), q(y))."""
    d = len(bezout)
    basis = horner_forms([[int(a == b) for b in range(d)] for a in range(d)], p, q)  # p^a q^(d-1-a)
    rows = horner_forms(bezout, p, q)
    acc = Polynomial(_BIV, {})
    for left, right in zip(basis, rows):
        if not right.is_zero:
            acc = acc + left.placed(_BIV, "x") * right.placed(_BIV, "y")
    return acc


def diagonal_pullback(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> DiagonalPullback:
    """Exact defining polynomial of the level-n pullback, every level checked.

    (p_k, q_k) is phi's Horner step at (p_{k-1}, q_{k-1}) times the scalar s_k
    that makes q_k = 1 for a polynomial map and normalizes the forms as
    RationalMap does otherwise, so layer k is s_k^2 times the Bezoutian.
    """
    if phi.degree < 1:
        raise ValueError("degree must be at least 1")
    if n > cap:
        raise DegreeCapExceeded(f"level {n} exceeds cap {cap}")
    bezout = _bezout_matrix(phi)
    p, q = Polynomial.variable("t"), Polynomial.constant(1, ("t",))
    chain = [_cross(p, q)]
    layers = [chain[0]]
    for k in range(1, n + 1):
        P, Q = phi.forms_at(p, q)
        if phi.is_polynomial:
            scale = 1 / Q.constant_value()
        else:
            scale = form_scale(P.univariate_coeffs(), Q.univariate_coeffs())
        layers.append(_bezoutian_at(bezout, p, q) * (scale * scale))
        p, q = P * scale, Q * scale
        chain.append(_cross(p, q))
        if chain[k - 1] * layers[k] != chain[k]:
            raise InexactDivision(f"chain verification failed at level {k}")
    return DiagonalPullback(phi, n, chain[n], tuple(chain), tuple(layers))


def layer(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> tuple[Polynomial, bool]:
    """The fresh layer at level n with its squarefreeness certificate.

    It builds the whole pullback; callers read `diagonal_pullback(...).layers`.
    Kept only for bench/spans.py, which traces `intersection.layer` by name."""
    Y = diagonal_pullback(phi, n, cap).layers[n]
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

    poly = c(y) * prim with c its x-content; no factor of c divides the
    x-primitive part prim, so poly is squarefree iff c and prim are.  Fast
    path: a specialization y = y0 reduced mod a random prime q that keeps
    the x-degree and is squarefree over F_q proves prim squarefree (poly's
    specialization is prim's times the unit c(y0)).  Falls back to the
    exact bivariate gcd when no specialization certifies.
    """
    if poly.is_zero:
        return False
    if poly.degree("x") == 0:
        return _univariate_squarefree(poly, "y")
    content = _content_in_x(poly)
    if content.degree("y") and not _univariate_squarefree(content, "y"):
        return False
    rng = random.Random(seed)
    deg = poly.degree("x")
    for _ in range(attempts):
        y0 = rng.randint(2, 997)
        q = next_prime(rng.randint(1 << 29, 1 << 30))
        coeffs = _specialized_mod_q(poly, y0, q)
        if coeffs is None or len(coeffs) - 1 != deg or coeffs[-1] == 0:
            continue
        deriv = [i * c % q for i, c in enumerate(coeffs)][1:]
        if _gf_gcd_degree(coeffs, deriv, q) == 0:
            return True
    # gcd(c prim, c prim_x) = c gcd(prim, prim_x): its x-degree is prim's
    gx = poly.gcd(poly.derivative("x"))
    return gx.degree("x") == 0


def _univariate_squarefree(poly: Polynomial, var: str) -> bool:
    g = poly.gcd(poly.derivative(var))
    return g.total_degree() == 0


def _content_in_x(poly: Polynomial) -> Polynomial:
    """gcd over Q[y], up to a unit, of the coefficients of poly viewed in
    (Q[y])[x].  Lowest y-degree first, so a constant coefficient (as in every
    layer of a monic polynomial map) settles it without a gcd."""
    by_x: dict[int, dict] = {}
    for (ex, ey), c in poly.terms.items():
        by_x.setdefault(ex, {})[(ey,)] = c
    coeffs = sorted((Polynomial(("y",), t) for t in by_x.values()), key=lambda c: c.degree("y"))
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.total_degree() == 0:
            break
        g = g.gcd(c)
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
        _, h = f.substitute({var: h}).divmod(factor)
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
