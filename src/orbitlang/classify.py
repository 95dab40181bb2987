"""Normal forms, Chebyshev-type classification, decomposition, periodic curves.

A polynomial is brought to normal form (monic, zero subleading coefficient)
by an explicit degree-one conjugation over Q when the needed root of the
leading coefficient is rational.  Power/Chebyshev conjugates are recognized
by comparing normal forms against the two rational candidates.  Functional
decomposition peels the unique monic zero-constant right factor candidate
off the top coefficients and tests it by base-h expansion.  Plane-curve
periodicity under the diagonal action is verified through elimination
ideals with extraneous resultant factors removed by exact membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import HypothesisViolated, RootNotRational, VerificationFailed
from .dynsys import RationalMap
from .polynomials import Polynomial
from .varieties import PlaneCurve

__all__ = [
    "NormalFormRecord",
    "normal_form",
    "type_of",
    "chebyshev",
    "PowerConjugate",
    "ChebyshevConjugate",
    "Neither",
    "power_or_chebyshev_class",
    "Decomposition",
    "Indecomposable",
    "decompose",
    "CurveCandidate",
    "periodic_curve_candidates",
    "PeriodicWithPeriod",
    "NotPeriodicUpTo",
    "verify_invariant_curve",
    "rational_periodic_points",
]

PERIOD_BOUND = 3


def _as_univariate(f) -> Polynomial:
    if isinstance(f, RationalMap):
        if not f.is_polynomial:
            raise HypothesisViolated("map must be polynomial")
        return Polynomial.univariate(f.affine_coefficients(), "t")
    if isinstance(f, Polynomial):
        if len(f.variables) != 1:
            raise ValueError("univariate polynomial expected")
        return f if f.variables == ("t",) else f.with_variables(("t",))
    return Polynomial.univariate([Fraction(c) for c in f], "t")


def _integer_kth_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None; exact at any size, by Newton's
    iteration on integers from 2^ceil(bits/k) >= n^(1/k) down to the floor root."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = _integer_kth_root(-n, k)
        return None if r is None else -r
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r if r**k == n else None


def _fraction_kth_root(q: Fraction, k: int) -> Fraction | None:
    num = _integer_kth_root(q.numerator, k)
    den = _integer_kth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class NormalFormRecord:
    original: Polynomial
    scale: Fraction  # A of the conjugator mu(t) = A t + B
    shift: Fraction  # B
    normal: Polynomial
    type_pair: tuple[int, int]


def normal_form(f) -> NormalFormRecord:
    """Conjugate f by mu(t) = A t + B into monic form with no subleading term.

    A must satisfy A**(m-1) = 1/lead over Q (RootNotRational otherwise);
    B = -a_{m-1} / (m a_m) kills the subleading coefficient.  The record is
    verified by exact recomposition before being returned.
    """
    poly = _as_univariate(f)
    m = poly.total_degree()
    if m is None or m < 2:
        raise ValueError("degree must be at least 2")
    coeffs = poly.univariate_coeffs()
    lead = coeffs[m]
    A = _fraction_kth_root(1 / lead, m - 1)
    if A is None:
        raise RootNotRational(f"no rational ({m - 1})-th root of {1 / lead}")
    B = -coeffs[m - 1] / (m * lead)
    t = Polynomial.variable("t")
    mu = t * A + B
    composed = poly.substitute({"t": mu})
    normal = (composed - B) * (1 / A)
    ncoeffs = normal.univariate_coeffs()
    if ncoeffs[m] != 1 or ncoeffs[m - 1] != 0:
        raise VerificationFailed("conjugate is not monic with zero subleading term")
    # recomposition check: mu o normal == f o mu
    if normal * A + B != composed:
        raise VerificationFailed("normal form does not recompose to f")
    return NormalFormRecord(poly, A, B, normal, type_of(normal))


def type_of(normal: Polynomial) -> tuple[int, int]:
    """Type (a, b): a the lowest nonzero coefficient index below the top,
    b the largest integer with f(t) = t^a u(t^b).

    Pure powers t^m carry no nonzero low coefficient; they are reported with
    the sentinel (m, 0).
    """
    poly = _as_univariate(normal)
    m = poly.total_degree()
    coeffs = poly.univariate_coeffs()
    if coeffs[m] != 1 or (m >= 2 and coeffs[m - 1] != 0):
        raise ValueError("polynomial is not in normal form")
    low = [i for i in range(m - 1) if coeffs[i] != 0]
    if not low:
        return (m, 0)
    a = low[0]
    b = 0
    for e in [m] + low:
        b = _int_gcd(b, e - a)
    return (a, b)


def chebyshev(m: int) -> Polynomial:
    """Degree-m polynomial sending t + 1/t to t^m + 1/t^m (normalized Chebyshev)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    t = Polynomial.variable("t")
    prev, cur = Polynomial.constant(2, ("t",)), t
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, t * cur - prev
    return cur


@dataclass(frozen=True)
class PowerConjugate:
    degree: int


@dataclass(frozen=True)
class ChebyshevConjugate:
    degree: int


@dataclass(frozen=True)
class Neither:
    pass


def power_or_chebyshev_class(f):
    """Whether f is conjugate over Q to t^m or to the degree-m Chebyshev form.

    Over Q the only roots of unity are +-1, and the -1 twist of the Chebyshev
    form equals the form itself in odd degree, so two comparisons suffice.
    """
    record = normal_form(f)
    m = record.normal.total_degree()
    t_power = Polynomial(("t",), {(m,): 1})
    if record.normal == t_power:
        return PowerConjugate(m)
    if record.normal == chebyshev(m):
        return ChebyshevConjugate(m)
    return Neither()


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class Decomposition:
    outer: Polynomial
    inner: Polynomial


@dataclass(frozen=True)
class Indecomposable:
    degree: int


def _right_factor_candidate(f: Polynomial, s: int) -> Polynomial:
    """The unique monic degree-s candidate with zero constant term, solved
    from the top coefficients of f via a truncated series root."""
    m = f.total_degree()
    r = m // s
    coeffs = f.univariate_coeffs()
    lead = coeffs[m]
    # reversed normalized polynomial as a series: P(z) = z^m f(1/z) / lead
    P = [coeffs[m - k] / lead for k in range(0, s + 1)]
    w = [Fraction(1)] + [Fraction(0)] * s
    for k in range(1, s + 1):
        # coefficient of z^k in w^r equals r*w_k + (lower-order contributions)
        acc = _power_series_coeff(w, r, k)
        w[k] = (P[k] - acc) / r
    h = [w[s - i] for i in range(s)] + [Fraction(1)]
    h[0] = Fraction(0)  # constant term is absorbed by the outer factor
    return Polynomial.univariate(h, f.variables[0])


def _power_series_coeff(w: list[Fraction], r: int, k: int) -> Fraction:
    """Coefficient of z^k in w(z)**r given w truncated at order k (w_k ignored)."""
    power = Polynomial.univariate(w[:k], "z") ** r
    return Fraction(power.num.get((k,), 0), power.den)


def decompose(f) -> Decomposition | Indecomposable:
    """First decomposition f = g(h) with the smallest inner degree, if any.

    For every divisor s of deg f the unique normalized right-factor
    candidate of degree s is tested by expanding f in base h: f decomposes
    through h exactly when all base-h digits are constant.
    """
    poly = _as_univariate(f)
    m = poly.total_degree()
    if m is None or m < 2:
        raise ValueError("degree must be at least 2")
    var = poly.variables[0]
    for s in range(2, m // 2 + 1):
        if m % s:
            continue
        h = _right_factor_candidate(poly, s)
        digits = []
        rest = poly
        while not rest.is_zero:
            rest, rem = rest.divmod(h)
            digits.append(rem)
        if all(d.is_constant() for d in digits):
            g = Polynomial.univariate([d.constant_value() for d in digits], var)
            if g.substitute({var: h}) != poly:
                raise VerificationFailed("decomposition does not recompose to f")
            return Decomposition(g, h)
    return Indecomposable(m)


# ---------------------------------------------------------------------------
# periodic plane curves of the diagonal action


def rational_periodic_points(f) -> dict[Fraction, int]:
    """Rational periodic points with exact minimal periods, found as rational
    roots of the iterate-minus-identity polynomials up to PERIOD_BOUND."""
    poly = _as_univariate(f)
    t = Polynomial.variable("t")
    out: dict[Fraction, int] = {}
    iterate = t
    for n in range(1, PERIOD_BOUND + 1):
        iterate = poly.substitute({"t": iterate})
        for root in (iterate - t).rational_roots():
            if root not in out:
                out[root] = n
    return out


@dataclass(frozen=True)
class CurveCandidate:
    form: str  # "x-const" | "y-const" | "x-of-y" | "y-of-x"
    parameters: dict
    curve: PlaneCurve


def periodic_curve_candidates(f, r_max: int) -> list[CurveCandidate]:
    """All candidate periodic plane curves for the diagonal action of f.

    Requires f nonlinear, in normal form, indecomposable and conjugate to
    neither a power map nor a Chebyshev form; the allowed twists are the
    rational roots of unity compatible with the type of f.
    """
    poly = _as_univariate(f)
    m = poly.total_degree()
    if m is None or m < 2:
        raise HypothesisViolated("map must be nonlinear")
    coeffs = poly.univariate_coeffs()
    if coeffs[m] != 1 or coeffs[m - 1] != 0:
        raise HypothesisViolated("map must be in normal form")
    cls = power_or_chebyshev_class(poly)
    if not isinstance(cls, Neither):
        raise HypothesisViolated(f"map is {cls}")
    if isinstance(decompose(poly), Decomposition):
        raise HypothesisViolated("map is decomposable")
    a, b = type_of(poly)
    twists = [Fraction(1)]
    if b and b % 2 == 0 and a % 2 == 1:
        twists.append(Fraction(-1))
    periodic = rational_periodic_points(poly)
    x = Polynomial.variable("x", ("x", "y"))
    y = Polynomial.variable("y", ("x", "y"))
    candidates: list[CurveCandidate] = []
    seen = set()

    def push(form, params, defining):
        curve = PlaneCurve(defining)
        key = curve.normalized()
        if key not in seen:
            seen.add(key)
            candidates.append(CurveCandidate(form, params, curve))

    for point, period in sorted(periodic.items()):
        push("x-const", {"point": point, "period": period}, x - point)
        push("y-const", {"point": point, "period": period}, y - point)
    t = Polynomial.variable("t")
    iterate = t
    for r in range(r_max + 1):
        fx = iterate.placed(("x", "y"), "x")
        fy = iterate.placed(("x", "y"), "y")
        for zeta in twists:
            push("x-of-y", {"r": r, "zeta": zeta}, x - fy * zeta)
            push("y-of-x", {"r": r, "zeta": zeta}, y - fx * zeta)
        iterate = poly.substitute({"t": iterate})
    return candidates


@dataclass(frozen=True)
class PeriodicWithPeriod:
    period: int
    chain: tuple[Polynomial, ...]


@dataclass(frozen=True)
class NotPeriodicUpTo:
    bound: int
    chain: tuple[Polynomial, ...]


def _image_curve(curve: PlaneCurve, f: Polynomial) -> PlaneCurve:
    """Image of an irreducible plane curve under the diagonal action of f.

    Eliminates (x, y) from {C(x, y), u - f(x), v - f(y)} by iterated
    resultants; extraneous factors are discarded by the exact membership
    test C | g(f(x), f(y)).
    """
    names = ("x", "y", "u", "v")
    C = curve.normalized().with_variables(names)
    fx = f.placed(names, "x")
    fy = f.placed(names, "y")
    u = Polynomial.variable("u", names)
    v = Polynomial.variable("v", names)
    r1 = C.resultant(u - fx, "x")
    r2 = r1.with_variables(names).resultant(v - fy, "y")
    r2 = r2.with_variables(("u", "v"))
    _, factors = r2.factor_list()
    keep = []
    uvxy = ("u", "v", "x", "y")
    f_of_x = f.placed(uvxy, "x")
    f_of_y = f.placed(uvxy, "y")
    for fac, _mult in factors:
        composed = fac.with_variables(("u", "v"))
        substituted = composed.with_variables(uvxy).substitute({"u": f_of_x, "v": f_of_y})
        substituted = substituted.drop_variables(["u", "v"])
        _, rem = substituted.divmod(curve.normalized())
        if rem.is_zero:
            keep.append(fac)
    if not keep:
        raise ValueError("image computation lost every factor")
    image = keep[0].with_variables(("u", "v"))
    for fac in keep[1:]:
        image = image * fac.with_variables(("u", "v"))
    return PlaneCurve(image.rename_variables({"u": "x", "v": "y"}))


def verify_invariant_curve(curve: PlaneCurve, f, k_max: int):
    """Iterate the image of the curve under (f, f) and look for a return.

    Returns PeriodicWithPeriod(k) at the first k <= k_max with the k-th
    image equal to the curve, else NotPeriodicUpTo with the image chain.
    """
    poly = _as_univariate(f)
    curve.assert_irreducible()
    chain = [curve]
    current = curve
    for k in range(1, k_max + 1):
        current = _image_curve(current, poly)
        chain.append(current)
        if current == curve:
            return PeriodicWithPeriod(k, tuple(c.normalized() for c in chain))
    return NotPeriodicUpTo(k_max, tuple(c.normalized() for c in chain))
