"""Rational self-maps of the projective line over Q.

Maps are stored as a coprime pair of integer homogeneous forms (F, G) of
equal degree, normalized to content one with the first nonzero coefficient
of F positive, so the representation is canonical.  Points are coprime
integer coordinate pairs.  Everything here is exact; orbit growth is the
caller's problem (the decision engine works modulo prime powers instead of
iterating exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Union

from .errors import SingularMu
from .padics import is_prime, prime_factors, valuation
from .polynomials import Polynomial

__all__ = [
    "PPoint",
    "INFINITY_POINT",
    "MoebiusMap",
    "RationalMap",
    "iterate",
    "critical_points",
    "classify_cycle",
    "exceptional_structure",
    "conjugate",
    "CycleRecord",
    "NotPeriodic",
    "OrbitStatus",
    "orbit_status",
    "escape_radius",
    "exceptional_points",
    "TwoExceptional",
    "OneExceptional",
    "NoExceptional",
]

Place = Union[str, int]  # "archimedean" or a prime number


class PPoint:
    """A point of P^1(Q) as a coprime integer pair [a : b], b >= 0."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a == 0 and b == 0:
            raise ValueError("[0 : 0] is not a projective point")
        g = _int_gcd(a, b)
        a, b = a // g, b // g
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        self.a = a
        self.b = b

    @classmethod
    def of(cls, value) -> "PPoint":
        if isinstance(value, PPoint):
            return value
        if value is math.inf:
            return INFINITY_POINT
        q = Fraction(value)
        return cls._coprime(q.numerator, q.denominator)

    @classmethod
    def _coprime(cls, a: int, b: int) -> "PPoint":
        """[a : b] from a pair already coprime with b > 0, without the gcd."""
        pt = object.__new__(cls)
        pt.a, pt.b = a, b
        return pt

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction | None:
        return None if self.b == 0 else Fraction(self.a, self.b)

    def height_bits(self) -> int:
        return max(abs(self.a), abs(self.b)).bit_length()

    def __eq__(self, other):
        return isinstance(other, PPoint) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return "inf" if self.b == 0 else str(Fraction(self.a, self.b))


INFINITY_POINT = PPoint(1, 0)


class MoebiusMap:
    """Fractional-linear map t -> (a t + b) / (c t + d) with integer entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [Fraction(v) for v in (a, b, c, d)]
        lcm = 1
        for e in entries:
            lcm = lcm * e.denominator // _int_gcd(lcm, e.denominator)
        ints = [int(e * lcm) for e in entries]
        g = 0
        for v in ints:
            g = _int_gcd(g, v)
        if g == 0 or ints[0] * ints[3] == ints[1] * ints[2]:
            raise SingularMu("determinant is zero")
        ints = [v // g for v in ints]
        self.a, self.b, self.c, self.d = ints

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def apply(self, x) -> PPoint:
        x = PPoint.of(x)
        return PPoint(self.a * x.a + self.b * x.b, self.c * x.a + self.d * x.b)

    def __repr__(self):
        return f"({self.a}*t + {self.b})/({self.c}*t + {self.d})"


def _form_from_affine(num: Polynomial, den: Polynomial, degree: int) -> tuple[list, list]:
    """Homogenize an affine pair to equal-degree coefficient lists (X^0..X^d)."""
    ncs = num.univariate_coeffs()
    dcs = den.univariate_coeffs()
    F = [(ncs[i] if i < len(ncs) else Fraction(0)) for i in range(degree + 1)]
    G = [(dcs[i] if i < len(dcs) else Fraction(0)) for i in range(degree + 1)]
    return F, G


class RationalMap:
    """A morphism of P^1 given by coprime degree-d integer forms [F : G].

    ``coeffs_f[i]`` is the coefficient of ``X^i Y^(d-i)`` (likewise for G).
    """

    __slots__ = ("coeffs_f", "coeffs_g", "degree", "is_polynomial")

    def __init__(self, coeffs_f: Iterable, coeffs_g: Iterable):
        F = [Fraction(c) for c in coeffs_f]
        G = [Fraction(c) for c in coeffs_g]
        if len(F) != len(G):
            raise ValueError("F and G must be forms of equal degree")
        if len(F) > 1 and F[-1] == 0 and G[-1] == 0:
            raise ValueError("degree is ambiguous: top coefficients both vanish")
        lcm = 1
        for c in F + G:
            lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
        fi = [int(c * lcm) for c in F]
        gi = [int(c * lcm) for c in G]
        content = 0
        for v in fi + gi:
            content = _int_gcd(content, v)
        fi = [v // content for v in fi]
        gi = [v // content for v in gi]
        lead = next((v for v in reversed(fi) if v), None)
        if lead is None:
            lead = next(v for v in reversed(gi) if v)
        if lead < 0:
            fi = [-v for v in fi]
            gi = [-v for v in gi]
        self.coeffs_f = tuple(fi)
        self.coeffs_g = tuple(gi)
        self.degree = len(fi) - 1
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self._coprime():
            raise ValueError("F and G share a common factor")
        d = self.degree
        self.is_polynomial = all(gi[i] == 0 for i in range(1, d + 1))

    def _coprime(self) -> bool:
        g = self.affine_numerator().gcd(self.affine_denominator())
        # a shared root at infinity is impossible: top coefficients never both vanish
        return g.total_degree() == 0

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_affine(cls, num: Polynomial, den: Polynomial | None = None) -> "RationalMap":
        if den is None:
            den = Polynomial.constant(1, num.variables)
        if num.variables != den.variables or len(num.variables) != 1:
            raise ValueError("affine pieces must share one variable")
        dn = num.total_degree()
        dd = den.total_degree()
        if dn is None or dd is None:
            raise ValueError("zero numerator or denominator")
        d = max(dn, dd)
        F, G = _form_from_affine(num, den, d)
        return cls(F, G)

    @classmethod
    def polynomial(cls, coeffs: Iterable) -> "RationalMap":
        """Map t -> sum coeffs[i] t^i."""
        f = Polynomial.univariate(coeffs)
        return cls.from_affine(f)

    @classmethod
    def quadratic(cls, c) -> "RationalMap":
        return cls.polynomial([c, 0, 1])

    # -- views ---------------------------------------------------------------------

    def affine_numerator(self, var: str = "t") -> Polynomial:
        return Polynomial.univariate(self.coeffs_f, var)

    def affine_denominator(self, var: str = "t") -> Polynomial:
        return Polynomial.univariate(self.coeffs_g, var)

    def affine_coefficients(self) -> list[Fraction]:
        """Coefficients of the polynomial t -> f(t); requires a polynomial map."""
        if not self.is_polynomial:
            raise ValueError("not a polynomial map")
        lead = self.coeffs_g[0]
        return [Fraction(c, lead) for c in self.coeffs_f]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMap)
            and self.coeffs_f == other.coeffs_f
            and self.coeffs_g == other.coeffs_g
        )

    def __hash__(self):
        return hash((self.coeffs_f, self.coeffs_g))

    def __repr__(self):
        from .polynomials import format_polynomial

        num = format_polynomial(self.affine_numerator())
        if self.is_polynomial and self.coeffs_g[0] == 1:
            return f"RationalMap({num})"
        return f"RationalMap(({num})/({format_polynomial(self.affine_denominator())}))"

    # -- evaluation --------------------------------------------------------------------

    def _eval_forms(self, a: int, b: int) -> tuple[int, int]:
        d = self.degree
        pa = [1] * (d + 1)
        pb = [1] * (d + 1)
        for i in range(1, d + 1):
            pa[i] = pa[i - 1] * a
            pb[i] = pb[i - 1] * b
        fv = sum(self.coeffs_f[i] * pa[i] * pb[d - i] for i in range(d + 1))
        gv = sum(self.coeffs_g[i] * pa[i] * pb[d - i] for i in range(d + 1))
        return fv, gv

    def apply(self, x) -> PPoint:
        x = PPoint.of(x)
        if not self.is_polynomial or x.is_infinity:
            fv, gv = self._eval_forms(x.a, x.b)
            return PPoint(fv, gv)
        # Horner on [a : b].  A prime dividing both F(a, b) and g0 * b^d
        # divides lead * g0, since a and b are coprime, so only that small
        # content is divided out and no gcd of the growing values is taken.
        f, g0 = self.coeffs_f, self.coeffs_g[0]
        a, b = x.a, x.b
        fv, bpow = f[-1], 1
        for c in f[-2::-1]:
            bpow *= b
            fv = fv * a + c * bpow
        gv = g0 * bpow
        content = abs(f[-1] * g0)
        while content > 1 and (h := _int_gcd(fv % content, gv % content, content)) > 1:
            fv, gv = fv // h, gv // h
        return PPoint._coprime(-fv, -gv) if gv < 0 else PPoint._coprime(fv, gv)

    def derivative_pair(self, var: str = "t") -> tuple[Polynomial, Polynomial]:
        """(num, den) with the affine derivative equal to num/den."""
        f, g = self.affine_numerator(var), self.affine_denominator(var)
        return (f.derivative(var) * g - f * g.derivative(var), g * g)

    def derivative_at(self, x) -> Fraction:
        x = Fraction(x)
        num, den = self.derivative_pair()
        dv = den.evaluate({"t": x})
        if dv == 0:
            raise ZeroDivisionError("derivative evaluated at a pole")
        return num.evaluate({"t": x}) / dv

    def wronskian(self) -> Polynomial:
        """The critical form F_X G_Y - F_Y G_X in variables (X, Y), degree 2d-2."""
        d = self.degree
        vars_ = ("X", "Y")
        F = Polynomial(vars_, {(i, d - i): c for i, c in enumerate(self.coeffs_f)})
        G = Polynomial(vars_, {(i, d - i): c for i, c in enumerate(self.coeffs_g)})
        W = F.derivative("X") * G.derivative("Y") - F.derivative("Y") * G.derivative("X")
        return W

    # -- composition --------------------------------------------------------------------

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self after other (x -> self(other(x)))."""
        vars_ = ("X", "Y")
        e = other.degree
        Fo = Polynomial(vars_, {(i, e - i): c for i, c in enumerate(other.coeffs_f)})
        Go = Polynomial(vars_, {(i, e - i): c for i, c in enumerate(other.coeffs_g)})
        d = self.degree
        newF = Polynomial(vars_, {})
        newG = Polynomial(vars_, {})
        for i in range(d + 1):
            mono = (Fo**i) * (Go ** (d - i))
            if self.coeffs_f[i]:
                newF = newF + mono * self.coeffs_f[i]
            if self.coeffs_g[i]:
                newG = newG + mono * self.coeffs_g[i]
        deg = d * e
        F = [newF.terms.get((i, deg - i), Fraction(0)) for i in range(deg + 1)]
        G = [newG.terms.get((i, deg - i), Fraction(0)) for i in range(deg + 1)]
        return RationalMap(F, G)

    def iterate_polynomial(self, n: int, var: str = "t") -> Polynomial:
        """f^n as a univariate polynomial; requires a polynomial map."""
        f = Polynomial.univariate(self.affine_coefficients(), var)
        result = Polynomial.variable(var)
        for _ in range(n):
            result = f.substitute({var: result})
        return result


def iterate(phi: RationalMap, x, n: int) -> PPoint:
    """Exact n-th forward image of x; n = 0 returns x."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pt = PPoint.of(x)
    for _ in range(n):
        pt = phi.apply(pt)
    return pt


def conjugate(phi: RationalMap, mu: MoebiusMap) -> RationalMap:
    """mu^(-1) o phi o mu in normalized coordinates."""
    vars_ = ("X", "Y")
    d = phi.degree
    # substitute (X, Y) -> (a X + b Y, c X + d Y) into both forms
    sub = {
        "X": Polynomial(vars_, {(1, 0): mu.a, (0, 1): mu.b}),
        "Y": Polynomial(vars_, {(1, 0): mu.c, (0, 1): mu.d}),
    }
    F = Polynomial(vars_, {(i, d - i): c for i, c in enumerate(phi.coeffs_f)}).substitute(sub)
    G = Polynomial(vars_, {(i, d - i): c for i, c in enumerate(phi.coeffs_g)}).substitute(sub)
    # apply the adjugate of mu on the output side
    newF = F * mu.d - G * mu.b
    newG = F * (-mu.c) + G * mu.a
    Fc = [newF.terms.get((i, d - i), Fraction(0)) for i in range(d + 1)]
    Gc = [newG.terms.get((i, d - i), Fraction(0)) for i in range(d + 1)]
    return RationalMap(Fc, Gc)


# ---------------------------------------------------------------------------
# critical points and ramification


def ramification_portrait(phi: RationalMap) -> list[tuple[object, int]]:
    """Critical locus as [(place, ramification index e)] with e > 1.

    Each place is a PPoint for rational critical points (including infinity)
    or an irreducible Polynomial in t whose roots are conjugate critical
    points sharing the same index.
    """
    if phi.degree < 2:
        return []
    W = phi.wronskian()
    y_mult = min(e[1] for e in W.terms)  # exponent of Y dividing the form
    out: list[tuple[object, int]] = []
    if y_mult > 0:
        out.append((INFINITY_POINT, y_mult + 1))
    # W is a form, so each term has a distinct X-exponent: W(t, 1) collides nothing
    affine = Polynomial(("t",), {(ex,): c for (ex, _ey), c in W.terms.items()})
    if affine.is_constant():
        return out
    _, factors = affine.factor_list()
    for fac, mult in factors:
        if fac.degree("t") == 1:
            c0, c1 = (fac.univariate_coeffs() + [Fraction(0)])[:2]
            out.append((PPoint.of(-c0 / c1), mult + 1))
        else:
            out.append((fac, mult + 1))
    return out


def critical_points(phi: RationalMap) -> list[tuple[PPoint, int]]:
    """Q-rational critical points with their ramification indices e > 1."""
    if phi.degree < 2:
        raise ValueError("degree must be at least 2")
    return [(pl, e) for pl, e in ramification_portrait(phi) if isinstance(pl, PPoint)]


# ---------------------------------------------------------------------------
# orbits and cycles


@dataclass(frozen=True)
class OrbitStatus:
    """Outcome of the exact forward-orbit scan of one starting point."""

    kind: str  # "periodic" | "preperiodic" | "wanders"
    tail: int | None
    cycle_length: int | None
    prefix: tuple[PPoint, ...]
    proven: bool
    reason: str

    @property
    def is_preperiodic(self) -> bool:
        return self.kind in ("periodic", "preperiodic")

    def cycle_points(self) -> tuple[PPoint, ...]:
        if not self.is_preperiodic:
            raise ValueError("no cycle")
        return self.prefix[self.tail : self.tail + self.cycle_length]


def escape_radius(coeffs: list[Fraction]) -> Fraction:
    """R with |z| >= R implying |f(z)| >= 2|z| (monotone escape), degree >= 2.

    The bound holds for complex z too, so no point of absolute value >= R is
    periodic.
    """
    lead = abs(coeffs[-1])
    rest = sum(abs(c) for c in coeffs[:-1])
    return max(Fraction(1), (2 + rest) / lead)


def _padic_escape_step(coeffs: list[Fraction], z: Fraction, p: int) -> bool:
    """True when v_p strictly decreases from z on and keeps decreasing."""
    vz = valuation(z, p)
    if vz == math.inf or vz >= 0:
        return False
    d = len(coeffs) - 1
    top = valuation(coeffs[-1], p) + d * vz
    others = [valuation(c, p) + i * vz for i, c in enumerate(coeffs[:-1]) if c != 0]
    lowest_other = min(others) if others else math.inf
    return top < lowest_other and top < vz


def _padic_escape(coeffs: list[Fraction], z: Fraction) -> bool:
    """Whether some prime of the denominator of z starts a p-adic escape.

    In degree >= 2 every prime dividing no coefficient numerator or
    denominator does, so a gcd against that data settles it without
    factoring z; only the shared primes are tested one by one.
    """
    data = math.prod(c.numerator * c.denominator for c in coeffs if c)
    shared = _int_gcd(z.denominator, data)
    rest = z.denominator // shared
    g = _int_gcd(rest, shared)
    while g > 1:
        rest //= g
        g = _int_gcd(rest, g)
    if rest > 1 and len(coeffs) > 2:
        return True
    return any(_padic_escape_step(coeffs, z, p) for p in prime_factors(shared))


HEIGHT_CUTOFF_BITS = 200


def orbit_status(
    phi: RationalMap,
    x,
    *,
    prefix_bound: int = 4096,
    height_cutoff_bits: int = HEIGHT_CUTOFF_BITS,
) -> OrbitStatus:
    """Decide preperiodicity of x by exact orbit storage with escape cutoffs.

    For polynomial maps the escape verdicts are proofs (archimedean growth
    or p-adic valuation descent).  For general rational maps exceeding the
    height cutoff the verdict is NotPeriodic-by-escape with proven=False.
    """
    pt = PPoint.of(x)
    coeffs = phi.affine_coefficients() if phi.is_polynomial else None
    radius = escape_radius(coeffs) if coeffs and phi.degree >= 2 else None
    seen: dict[PPoint, int] = {}
    prefix: list[PPoint] = []
    for step in range(prefix_bound):
        if pt in seen:
            tail = seen[pt]
            cycle = step - tail
            kind = "periodic" if tail == 0 else "preperiodic"
            return OrbitStatus(kind, tail, cycle, tuple(prefix), True, "orbit-revisit")
        seen[pt] = step
        prefix.append(pt)
        if coeffs is not None and not pt.is_infinity:
            z = pt.as_fraction()
            if radius is not None and abs(z) >= radius:
                return OrbitStatus("wanders", None, None, tuple(prefix), True, "archimedean-escape")
            if z.denominator > 1 and _padic_escape(coeffs, z):
                return OrbitStatus("wanders", None, None, tuple(prefix), True, "p-adic-escape")
        if pt.height_bits() > height_cutoff_bits:
            return OrbitStatus("wanders", None, None, tuple(prefix), False, "height-cutoff")
        pt = phi.apply(pt)
    return OrbitStatus("wanders", None, None, tuple(prefix), False, "prefix-bound")


@dataclass(frozen=True)
class CycleRecord:
    points: tuple[PPoint, ...]
    period: int
    multiplier: Fraction
    place: Place
    cycle_class: str  # attracting | indifferent | superattracting | repelling


@dataclass(frozen=True)
class NotPeriodic:
    """Certificate that the point is not periodic (possibly not even preperiodic)."""

    reason: str
    tail: int | None = None
    cycle_length: int | None = None
    proven: bool = True


def _classify_multiplier(lam: Fraction, place: Place) -> str:
    if lam == 0:
        return "superattracting"
    if place == "archimedean":
        size = abs(lam)
        if size < 1:
            return "attracting"
        return "indifferent" if size == 1 else "repelling"
    v = valuation(lam, place)
    if v > 0:
        return "attracting"
    return "indifferent" if v == 0 else "repelling"


def cycle_multiplier(phi: RationalMap, cycle: tuple[PPoint, ...]) -> Fraction:
    """Chain-rule multiplier of a verified cycle, via conjugation off infinity."""
    needs_move = any(p.is_infinity for p in cycle) or any(
        phi.affine_denominator().evaluate({"t": p.as_fraction()}) == 0 for p in cycle if not p.is_infinity
    )
    if needs_move:
        shift = 1
        while PPoint.of(shift) in cycle:
            shift += 1
        mu = MoebiusMap(0, 1, 1, -shift)  # t -> 1/(t - shift)
        psi = conjugate(phi, mu.inverse())
        moved = tuple(mu.apply(p) for p in cycle)
        return cycle_multiplier(psi, moved)
    lam = Fraction(1)
    for p in cycle:
        lam *= phi.derivative_at(p.as_fraction())
    return lam


def classify_cycle(phi: RationalMap, x, place: Place = "archimedean", **orbit_kwargs):
    """Detect periodicity of x and classify its cycle at the given place.

    Returns a CycleRecord, or a NotPeriodic certificate (strict preperiodicity
    with tail/cycle data, or an escape verdict).
    """
    if isinstance(place, int) and not is_prime(place):
        raise ValueError("place must be 'archimedean' or a prime")
    status = orbit_status(phi, x, **orbit_kwargs)
    if status.kind == "periodic":
        cycle = status.cycle_points()
        lam = cycle_multiplier(phi, cycle)
        return CycleRecord(cycle, status.cycle_length, lam, place, _classify_multiplier(lam, place))
    if status.kind == "preperiodic":
        return NotPeriodic("strictly-preperiodic", status.tail, status.cycle_length, True)
    return NotPeriodic(status.reason, None, None, status.proven)


# ---------------------------------------------------------------------------
# exceptional (totally invariant) points


@dataclass(frozen=True)
class TwoExceptional:
    """Two exceptional points: the map is conjugate to t -> t^(±m)."""

    points: tuple[PPoint, ...] | None  # None when the pair is a conjugate irrational pair
    pair_factor: Polynomial | None
    swapped: bool  # True: the two points trade places (negative power conjugacy)

    @property
    def power_sign(self) -> int:
        return -1 if self.swapped else 1


@dataclass(frozen=True)
class OneExceptional:
    """Exactly one exceptional point: conjugate to a polynomial, not to a power map."""

    point: PPoint


@dataclass(frozen=True)
class NoExceptional:
    pass


def _is_totally_ramified_fixed(phi: RationalMap, pt: PPoint) -> bool:
    return phi.apply(pt) == pt


def exceptional_structure(phi: RationalMap):
    """Classify the exceptional locus: two points, one point, or none.

    Candidates are the totally ramified points (e = d) read off the critical
    form; candidate sets of size one must be fixed, size two fixed or swapped.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    candidates: list[PPoint] = []
    quad_factors: list[Polynomial] = []
    for place, e in ramification_portrait(phi):
        if e != d:
            continue
        if isinstance(place, PPoint):
            candidates.append(place)
        elif place.degree("t") == 2:
            quad_factors.append(place)
    fixed = [p for p in candidates if _is_totally_ramified_fixed(phi, p)]
    swaps = [
        (p, q)
        for i, p in enumerate(candidates)
        for q in candidates[i + 1 :]
        if phi.apply(p) == q and phi.apply(q) == p
    ]
    if len(fixed) >= 2:
        return TwoExceptional((fixed[0], fixed[1]), None, swapped=False)
    if swaps:
        p, q = swaps[0]
        return TwoExceptional((p, q), None, swapped=True)
    for fac in quad_factors:
        # roots of fac form a stable pair iff fac divides the numerator of fac(phi(t))
        t_num = phi.affine_numerator()
        t_den = phi.affine_denominator()
        coeffs = fac.univariate_coeffs()
        acc = Polynomial(("t",), {})
        for i, c in enumerate(coeffs):
            acc = acc + (t_num**i) * (t_den ** (len(coeffs) - 1 - i)) * c
        if not acc.is_zero and acc.gcd(fac) == fac.monic():
            return TwoExceptional(None, fac, swapped=False)
    if fixed:
        return OneExceptional(fixed[0])
    return NoExceptional()


def exceptional_points(phi: RationalMap) -> set[PPoint]:
    """The rational exceptional points; empty for an irrational conjugate pair."""
    structure = exceptional_structure(phi)
    if isinstance(structure, OneExceptional):
        return {structure.point}
    if isinstance(structure, TwoExceptional) and structure.points:
        return set(structure.points)
    return set()
