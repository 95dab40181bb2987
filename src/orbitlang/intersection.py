"""Pullbacks of the diagonal under diagonal iterates.

For a degree-d self-map phi = [F : G] of the line acting diagonally on the
plane, the level-k divisor is cut out (in the affine chart) by the cross
difference p_k(x) q_k(y) - p_k(y) q_k(x) of the affine forms of phi^k, which
is f^k(x) - f^k(y) for a polynomial map f.  One construction serves every
map.  Each level is the one before times a fresh layer: the Bezoutian of phi,

    (F(X1, Y1) G(X2, Y2) - F(X2, Y2) G(X1, Y1)) / (X1 Y2 - X2 Y1),

evaluated at (p_{k-1}, q_{k-1}) in x and in y (the divided difference
(f(x) - f(y)) / (x - y) for a polynomial map).  Each level takes the
monomials p^i q^(e-i) of (p, q) = (p_{k-1}, q_{k-1}) once, as one row per
degree e <= d (with q = 1 only p^2, ..., p^d are products): the layer's
basis U_a is the row of degree d-1, and phi's next forms and the layer's
Bezout rows V_a are scalar combinations of the top two rows.  The layer sum
U_a(x) V_a(y) and the cross difference are each expanded in one pass over
one common denominator.  No long division is done, and no product of the
level before and the layer is expanded: each level is proven to be the
level before times its layer from phi's Bezout identity, checked once per
pullback, and exact tests on univariates.  Each row entry is one product
(is_product), phi's next forms and the V_a are the combinations they
claim to be, and x - y, each layer and each level are the separated sums
of their univariate parts (is_separated_sum), each checked once.

Squarefreeness of a layer is certified at one specialization y = y0 and one
prime q: if the image keeps the x-degree and is squarefree over F_q, the
layer has no repeated factor (a sound one-sided certificate, with the exact
bivariate gcd as fallback).  For the layers of a pullback the image is never
built: it is a unit times H(p(x), q(x)), with H a binary form of degree d-1
fixed by phi^(k-1)(y0) and (p : q) the forms of phi^(k-1), so its verdict is
read off H and the orbits of phi's critical points mod q
(pullback_squarefree).  Any other plane polynomial runs the Euclid over F_q
on its image (bivariate_squarefree).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import BadReduction, DegreeCapExceeded, HypothesisViolated, InexactDivision
from .dynsys import PPoint, RationalMap, form_scale, ramification_portrait
from .padics import next_prime
from .polynomials import Polynomial, combination, is_product, is_separated_sum, raised_monomials
from .reduction import INF_RESIDUE, aperiodic_critical_places, reduce_map
from .univariate import gf_combination, gf_gcd, gf_monomials, gf_squarefree, trim

__all__ = [
    "DiagonalPullback",
    "diagonal_pullback",
    "ramification_bound",
    "bivariate_squarefree",
    "pullback_squarefree",
]

DEFAULT_LEVEL_CAP = 6
SQUAREFREE_ATTEMPTS = 8
SQUAREFREE_SEED = 20240613

_BIV = ("x", "y")


@dataclass(frozen=True)
class DiagonalPullback:
    """Defining polynomial of the level-n diagonal pullback with its factor chain."""

    phi: RationalMap
    level: int
    poly: Polynomial
    chain: tuple[Polynomial, ...]  # levels 0..n, each dividing the next
    layers: tuple[Polynomial, ...]  # layers[k] = chain[k] / chain[k-1]; layers[0] = chain[0]


def _bezout_matrix(phi: RationalMap) -> list[list[int]]:
    """B with F(X1, Y1) G(X2, Y2) - F(X2, Y2) G(X1, Y1) equal to
    (X1 Y2 - X2 Y1) * sum B[a][b] X1^a Y1^(d-1-a) X2^b Y2^(d-1-b)."""
    f, g, d = phi.coeffs_f, phi.coeffs_g, phi.degree
    B = [[0] * d for _ in range(d)]
    for i in range(1, d + 1):
        for j in range(i):
            c = f[i] * g[j] - f[j] * g[i]
            if c:
                # the pair (i, j) contributes c (U^m - V^m) / (U - V) times a
                # common monomial, with U = X1 Y2, V = X2 Y1 and m = i - j
                for ell in range(i - j):
                    B[j + ell][i - 1 - ell] += c
    return B


def _bezout_holds(phi: RationalMap, bezout: list[list[int]]) -> bool:
    """(B): whether `bezout` satisfies the identity of :func:`_bezout_matrix`,
    both sides expanded on integer coefficients keyed by the exponents of
    (X1, Y1, X2, Y2)."""
    f, g, d = phi.coeffs_f, phi.coeffs_g, phi.degree
    side = {(i, d - i, j, d - j): f[i] * g[j] - f[j] * g[i] for i in range(d + 1) for j in range(d + 1)}
    for a, row in enumerate(bezout):
        for b, c in enumerate(row):
            side[a + 1, d - 1 - a, b, d - b] -= c  # X1 Y2 times the monomial
            side[a, d - a, b + 1, d - 1 - b] += c  # -X2 Y1 times it
    return not any(side.values())


@dataclass(frozen=True)
class _Step:
    """Level k of a pullback, built from the forms (p, q) of phi^(k-1).

    rows[e] holds the monomials p^i q^(e-i) of degree e = 0..d, so rows[d-1]
    is the layer's basis U_a; forms = (p_k, q_k) = scale * (F, G)(p, q) are
    the forms of phi^k, and bezout_rows[a] = V_a = scale^2 sum_b B[a][b] U_b.
    """

    p: Polynomial
    q: Polynomial
    rows: list[list[Polynomial]]
    scale: Fraction
    forms: tuple[Polynomial, Polynomial]
    bezout_rows: list[Polynomial]

    @property
    def factors(self) -> list[tuple[Polynomial, Polynomial]]:
        """The pairs (U_a, V_a): the layer is sum U_a(x) V_a(y)."""
        return list(zip(self.rows[-2], self.bezout_rows))


def _step(phi: RationalMap, bezout: list[list[int]], p: Polynomial, q: Polynomial) -> _Step:
    """Level k from the forms (p, q) of level k-1: each row of monomials is
    raised from the one before, (F, G)(p, q) and the V_a are scalar
    combinations of the top two rows, and the scale makes q_k = 1 for a
    polynomial map and normalizes the forms as RationalMap does otherwise."""
    rows = [[Polynomial.constant(1, p.variables)], [q, p]]
    for _ in range(phi.degree - 1):
        rows.append(raised_monomials(rows[-1], p, q))
    P, Q = combination(phi.coeffs_f, rows[-1]), combination(phi.coeffs_g, rows[-1])
    if phi.is_polynomial:
        scale = 1 / Q.constant_value()
    else:
        scale = form_scale(P.univariate_coeffs(), Q.univariate_coeffs())
    if scale != 1:  # a monic polynomial map has scale 1
        P, Q = P * scale, Q * scale
    squared = scale * scale
    bezout_rows = [combination([squared * c for c in row], rows[-2]) for row in bezout]
    return _Step(p, q, rows, scale, (P, Q), bezout_rows)


def _cross(p: Polynomial, q: Polynomial) -> Polynomial:
    """p(x) q(y) - p(y) q(x) for univariate p, q: p(x) - p(y) when q = 1."""
    return _outer_sum([(p, q), (q, -p)])


def _bezoutian_at(factors: list[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of U(x) V(y) over the pairs (U, V), expanded."""
    return _outer_sum(factors)


def _outer_sum(pairs: list[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum U(x) V(y) over pairs (U, V) of univariates, expanded in one pass
    over one common denominator, one x-row at a time: no product of
    polynomials is taken, and a constant U or V costs one row or column."""
    den = math.lcm(*(left.den * right.den for left, right in pairs))
    rows: dict = {}
    for left, right in pairs:
        scale = den // (left.den * right.den)
        ys = [(j, n * scale) for (j,), n in right.num.items()]
        for (i,), m in left.num.items():
            row = rows.setdefault(i, {})
            get = row.get
            for j, n in ys:
                row[j] = get(j, 0) + m * n
    num = {(i, j): n for i, row in rows.items() for j, n in row.items() if n}
    return Polynomial._lowest(_BIV, num, den)


def _rows_hold(rows: list[list[Polynomial]], p: Polynomial, q: Polynomial) -> bool:
    """(r): whether rows[e] is [p^i q^(e-i) for i = 0..e] for every e.
    rows[0] must be [1] and rows[1] [q, p]; every entry of a later row is
    one exact product (:func:`is_product`), an entry of the row before
    times q (the first) or p (the others).  With q = 1 a row is the row
    before plus p^e, its one product."""
    if rows[0] != [Polynomial.constant(1, p.variables)] or rows[1] != [q, p]:
        return False
    unit = q.is_constant() and q.constant_value() == 1
    for lower, upper in zip(rows[1:], rows[2:]):
        if unit:
            holds = upper[:-1] == lower and is_product(lower[-1], p, upper[-1])
        else:
            holds = (
                len(upper) == len(lower) + 1
                and is_product(lower[0], q, upper[0])
                and all(is_product(m, p, u) for m, u in zip(lower, upper[1:]))
            )
        if not holds:
            return False
    return True


def _is_combination(target: Polynomial, scale: Fraction, coeffs, polys: list[Polynomial]) -> bool:
    """(s): whether target == scale * sum(c * f for c, f in zip(coeffs, polys))
    for integer coeffs, coefficient by coefficient over one common
    denominator (not through :func:`combination`, whose results it checks)."""
    if len(coeffs) != len(polys):
        return False
    terms = [(c, f) for c, f in zip(coeffs, polys) if c]
    den = math.lcm(*(f.den for _, f in terms))
    # target.num / target.den against scale * (sum of c * f.num * (den / f.den)) / den
    mine, theirs = scale.denominator * den, scale.numerator * target.den
    diff = {e: -mine * n for e, n in target.num.items()}
    get = diff.get
    for c, f in terms:
        m = theirs * c * (den // f.den)
        for e, n in f.num.items():
            diff[e] = get(e, 0) + m * n
    return not any(diff.values())


def _level_holds(layer: Polynomial, after: Polynomial, step: _Step, phi: RationalMap, bezout) -> bool:
    """Whether before * layer == after, for `step` the construction of the
    level from before's forms (p, q), given (B) for phi and `bezout` and
    (a) before == p(x) q(y) - q(x) p(y), which the level before proved (or
    :func:`diagonal_pullback`, for level 0).

    (r) the rows are the monomials of (p, q) (:func:`_rows_hold`); (s)
    p_k = s sum f_i row_i, q_k = s sum g_i row_i and V_a = s^2 sum_b
    B[a][b] U_b, with s the scale, row the degree-d row and U the
    degree-(d-1) one (:func:`_is_combination`); and, by
    :func:`is_separated_sum`, (b) layer == sum U_a(x) V_a(y) and after ==
    p_k(x) q_k(y) - q_k(x) p_k(y), which is (a) for the next level.

    Why this proves the level: substituting (p(x), q(x), p(y), q(y)) for
    (X1, Y1, X2, Y2) in (B) is a ring homomorphism, and (r) makes the rows
    the images of its monomials.  Multiply both sides by s^2: by (s) the
    left side is p_k(x) q_k(y) - p_k(y) q_k(x), that is after, and by (a),
    (b) and (s) the right side is before * layer.  So p_k and q_k are
    s (F, G)(p, q) and after is the cross difference of phi^k's forms.
    """
    p, q, s = step.p, step.q, step.scale
    basis, row = step.rows[-2], step.rows[-1]
    P, Q = step.forms
    return (
        len(step.rows) == phi.degree + 1
        and _rows_hold(step.rows, p, q)
        and _is_combination(P, s, phi.coeffs_f, row)
        and _is_combination(Q, s, phi.coeffs_g, row)
        and len(step.bezout_rows) == len(bezout)
        and all(_is_combination(v, s * s, b, basis) for v, b in zip(step.bezout_rows, bezout))
        and is_separated_sum([(1, u, v) for u, v in step.factors], layer)
        and is_separated_sum([(1, P, Q), (-1, Q, P)], after)
    )


def diagonal_pullback(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> DiagonalPullback:
    """Exact defining polynomial of the level-n pullback, every level proven.

    Level k is built by :func:`_step` from the forms (p, q) of level k-1:
    the monomials of (p, q) are taken once, one row per degree up to d, and
    the degree-(d-1) row is the basis U_a of the layer.  phi's next forms
    (p_k, q_k) are s_k (F, G)(p, q), combinations of the degree-d row, and
    layer k is s_k^2 times the Bezoutian at (p, q), sum U_a(x) V_a(y).
    Level k is proven to equal level k-1 times layer k by
    :func:`_level_holds`, from phi's Bezout identity (B), checked once by
    :func:`_bezout_holds`, and exact tests on univariates; the product is
    never expanded.  Level 0, x - y, is proven here; each later level is
    proven a cross difference once, as level k and as level k+1's before.
    """
    if phi.degree < 1:
        raise ValueError("degree must be at least 1")
    if n > cap:
        raise DegreeCapExceeded(f"level {n} exceeds cap {cap}")
    bezout = _bezout_matrix(phi)
    p, q = Polynomial.variable("t"), Polynomial.constant(1, ("t",))
    chain = [_cross(p, q)]
    layers = [chain[0]]
    proven = _bezout_holds(phi, bezout) and is_separated_sum([(1, p, q), (-1, q, p)], chain[0])
    for k in range(1, n + 1):
        step = _step(phi, bezout, p, q)
        layers.append(_bezoutian_at(step.factors))
        chain.append(_cross(*step.forms))
        if not (proven and _level_holds(layers[k], chain[k], step, phi, bezout)):
            raise InexactDivision(f"chain verification failed at level {k}")
        p, q = step.forms
    return DiagonalPullback(phi, n, chain[n], tuple(chain), tuple(layers))


def layer(phi: RationalMap, n: int, cap: int = DEFAULT_LEVEL_CAP) -> tuple[Polynomial, bool]:
    """The fresh layer at level n with its squarefreeness certificate.

    It builds the whole pullback; callers read `diagonal_pullback(...).layers`.
    Kept only for bench/spans.py, which traces `intersection.layer` by name."""
    pullback = diagonal_pullback(phi, n, cap)
    return pullback.layers[n], pullback_squarefree(pullback)[n]


# ---------------------------------------------------------------------------
# squarefreeness


@functools.cache
def _attempts() -> tuple[tuple[int, int], ...]:
    """The specializations (y0, q) that the certificates try, in order:
    drawn once from SQUAREFREE_SEED, on first use."""
    rng = random.Random(SQUAREFREE_SEED)
    out = []
    for _ in range(SQUAREFREE_ATTEMPTS):
        y0 = rng.randint(2, 997)
        out.append((y0, next_prime(rng.randint(1 << 29, 1 << 30))))
    return tuple(out)


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


def _euclid_certifies(poly: Polynomial, y0: int, q: int) -> bool | None:
    """Whether poly(x, y0) mod q is squarefree over F_q, or None when the
    attempt does not apply: q divides a denominator or the top x-row
    vanishes at y0."""
    coeffs = _specialized_mod_q(poly, y0, q)
    if coeffs is None or coeffs[-1] == 0:
        return None
    return gf_squarefree(coeffs, q)


def _squarefree(poly: Polynomial, certifies) -> bool:
    """Exact squarefreeness of a plane polynomial over Q, with the fast path
    `certifies(y0, q)` tried at each attempt.

    poly = c(y) * prim with c its x-content; no factor of c divides the
    x-primitive part prim, so poly is squarefree iff c and prim are.  An
    attempt whose specialization keeps the x-degree and is squarefree over
    F_q proves prim squarefree (poly's specialization is prim's times the
    unit c(y0)).  Falls back to the exact bivariate gcd when no attempt
    certifies.
    """
    if poly.is_zero:
        return False
    if poly.degree("x") == 0:
        return _univariate_squarefree(poly, "y")
    content = _content_in_x(poly)
    if content.degree("y") and not _univariate_squarefree(content, "y"):
        return False
    if any(certifies(y0, q) for y0, q in _attempts()):
        return True
    # gcd(c prim, c prim_x) = c gcd(prim, prim_x): its x-degree is prim's
    gx = poly.gcd(poly.derivative("x"))
    return gx.degree("x") == 0


def bivariate_squarefree(poly: Polynomial) -> bool:
    """Exact squarefreeness of a plane polynomial over Q: each attempt
    specializes y = y0 mod q and runs the Euclid over F_q on the image."""
    return _squarefree(poly, lambda y0, q: _euclid_certifies(poly, y0, q))


def _univariate_squarefree(poly: Polynomial, var: str) -> bool:
    g = poly.gcd(poly.derivative(var))
    return g.total_degree() == 0


def _content_in_x(poly: Polynomial) -> Polynomial:
    """gcd over Q[y], up to a unit, of the coefficients of poly viewed in
    (Q[y])[x].  A nonzero constant coefficient (as in every layer of a monic
    polynomial map) settles it before any row is built; else a gcd, lowest
    y-degree first."""
    rows_in_y = {ex for ex, ey in poly.num if ey}
    if any(not ey and ex not in rows_in_y for ex, ey in poly.num):
        return Polynomial.constant(1, ("y",))
    by_x: dict[int, dict] = {}
    for (ex, ey), n in poly.num.items():
        by_x.setdefault(ex, {})[(ey,)] = n
    coeffs = sorted((Polynomial(("y",), t) for t in by_x.values()), key=lambda c: c.degree("y"))
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.total_degree() == 0:
            break
        g = g.gcd(c)
    return g


# ---------------------------------------------------------------------------
# squarefreeness of a whole pullback, from the critical orbits of phi mod q


class _CriticalOrbitTest:
    """The squarefree certificate of :func:`pullback_squarefree` for the layers
    of one level-n pullback of phi.  Each attempt's orbits are computed once
    and kept only as long as the object (one call)."""

    def __init__(self, phi: RationalMap, n: int):
        d = phi.degree
        self.phi, self.n = phi, n
        self.bezout = _bezout_matrix(phi)
        W = phi.wronskian()  # an integer form: its den is 1
        self.wronskian = [W.num.get((i, 2 * d - 2 - i), 0) for i in range(2 * d - 1)]
        self.orbits: dict[tuple[int, int], tuple | None] = {}

    def _orbits(self, y0: int, q: int) -> tuple | None:
        """The orbits of y0 and of phi's critical points in P^1(F_q-bar) at one
        attempt, or None when phi has bad reduction at q or W = 0 mod q:

        - points: phi^j(y0) for j = 0..n-1, residues or INF_RESIDUE;
        - w: W(t, 1) mod q, trimmed, whose roots are the finite critical points;
        - finite: for i = 1..n-1, [A_i^a B_i^(d-1-a) mod (w, q)] with (A_i : B_i) = phi^i(t);
        - infinite: phi^i(infinity) for i = 1..n-1 when infinity is critical mod q, else [].
        """
        phi, n = self.phi, self.n
        try:
            rm = reduce_map(phi, q)
        except BadReduction:
            return None
        wq = [c % q for c in self.wronskian]
        if not any(wq):
            return None
        points = [y0 % q]
        for _ in range(n - 1):
            points.append(rm.apply(points[-1]))
        infinite = []
        if wq[-1] == 0:  # Y divides W: infinity is critical
            r = INF_RESIDUE
            for _ in range(n - 1):
                r = rm.apply(r)
                infinite.append(r)
        w = trim(wq)
        orbit = islice(rm.ring_orbit(w), 1, n) if len(w) > 1 else ()
        finite = [gf_monomials(A, B, phi.degree - 1, w, q) for A, B in orbit]
        return points, w, finite, infinite

    def certifies(self, layer: Polynomial, k: int, y0: int, q: int) -> bool | None:
        """Whether layer k (of full x-degree (d-1) d^(k-1), k >= 1) is
        squarefree at y = y0 over F_q, by tests (i) and (ii); None when a
        guard skips the attempt."""
        d = len(self.bezout)
        deg = (d - 1) * d ** (k - 1)
        if layer.den % q == 0 or sum(c * pow(y0, ey, q) for (ex, ey), c in layer.num.items() if ex == deg) % q == 0:
            return None
        if (y0, q) not in self.orbits:
            self.orbits[y0, q] = self._orbits(y0, q)
        if self.orbits[y0, q] is None:
            return None
        points, w, finite, infinite = self.orbits[y0, q]
        r = points[k - 1]
        P, Q = (1, 0) if r is INF_RESIDUE else (r, 1)
        at = [P**b * Q ** (d - 1 - b) for b in range(d)]
        c = [sum(x * y for x, y in zip(row, at)) % q for row in self.bezout]  # H_k(t, 1), low to high
        h = trim(list(c))
        if not h or len(h) < d - 1 or not gf_squarefree(h, q):  # (i)
            return False
        for forms in finite[: k - 1]:  # (ii) at the finite critical points
            if len(gf_gcd(w, gf_combination(c, forms, q), q)) > 1:
                return False
        for r in infinite[: k - 1]:  # (ii) at infinity
            if (c[-1] if r is INF_RESIDUE else sum(ca * pow(r, a, q) for a, ca in enumerate(c)) % q) == 0:
                return False
        return True


def pullback_squarefree(pullback: DiagonalPullback) -> list[bool]:
    """The exact squarefreeness of every layer, as :func:`bivariate_squarefree`
    decides it, with a fast path that never specializes a layer of k >= 1.

    Layer k >= 1 is s_k^2 times the Bezoutian of phi at (p_{k-1}, q_{k-1})
    in x and in y.  At y = y0 mod q it is therefore a unit times
    H_k(p(x), q(x)), where H_k(X, Y) = sum B[a][b] P^b Q^(d-1-b) X^a Y^(d-1-a),
    B is the Bezout matrix of phi mod q and (P : Q) = phi^(k-1)(y0) in
    P^1(F_q).  An attempt (y0, q) certifies the layer when both hold:

    (i) H_k is squarefree as a binary form: h = H_k(t, 1) is squarefree
        over F_q and deg h >= d - 2 (infinity is at most a simple root);
    (ii) H_k(phi^i(c)) != 0 for every root c of the Wronskian
        W = F_X G_Y - F_Y G_X in P^1(F_q-bar) and every 1 <= i <= k-1.  The
        finite roots are handled at once: (A, B) <- (F(A, B), G(A, B)) is
        iterated from (t, 1) in F_q[t]/(W(t, 1)), and gcd(W(t, 1),
        H_k(A_i, B_i)) = 1 is tested; infinity, when Y divides W mod q, is
        iterated as a point.

    Why this is the Euclid's verdict, gcd(spec, spec') = 1: the roots of
    H_k(p, q) are the preimages under Phi = phi^(k-1) of the roots of H_k,
    each with multiplicity (its multiplicity in H_k) times (Phi's
    ramification index there).  Full x-degree (d-1) d^(k-1) puts no
    preimage at infinity.  Phi ramifies exactly where some phi^j(x),
    j < k-1, is a root of W (the chain rule, with W's roots the
    ramification points of a separable reduction), and phi is onto
    P^1(F_q-bar), so every root of H_k has preimages and every critical
    point has ancestors.  So the specialization is squarefree iff (i) and
    (ii) hold.

    Guards: an attempt is skipped, as the Euclid skips it, when q divides
    the layer's denominator or the layer's x^((d-1) d^(k-1)) row vanishes
    at y0.  (Over Q that row is never 0: up to a unit it is the Bezoutian
    at Phi(infinity) and Phi(y), which vanishes identically only if phi^k
    is constant.)  It is also skipped where the argument fails: phi has bad
    reduction at q (as it has wherever q divides a layer's denominator), or
    W = 0 mod q.  Layer 0 goes to :func:`bivariate_squarefree`.  A layer
    that no attempt certifies gets the exact gcd; the content step and the
    gcd are the ones bivariate_squarefree runs (:func:`_squarefree`).
    """
    test = _CriticalOrbitTest(pullback.phi, pullback.level)
    flags = [bivariate_squarefree(pullback.layers[0])]
    for k, Y in enumerate(pullback.layers[1:], 1):
        flags.append(_squarefree(Y, lambda y0, q: test.certifies(Y, k, y0, q)))
    return flags


# ---------------------------------------------------------------------------
# ramification


def ramification_bound(phi: RationalMap) -> int:
    """Product of ramification indices over the non-exceptional critical points.

    Raises PeriodicCriticalPoint when some non-exceptional critical point is
    periodic (the uniform-multiplicity bound does not exist in that case), as
    :func:`reduction.has_periodic_root` decides it: residue periods at two odd
    primes of good reduction not dividing lead(W) disc(W), then one exact check.
    """
    if phi.degree < 2:
        raise HypothesisViolated("degree must be at least 2")
    bound = 1
    for place, e in aperiodic_critical_places(phi, ramification_portrait(phi)):
        bound *= e if isinstance(place, PPoint) else e ** place.degree("t")
    return bound
