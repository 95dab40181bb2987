"""Exact sparse polynomial arithmetic over Q.

A polynomial is stored as integer numerators over one common denominator:
`num` maps exponent vectors to nonzero ints and `den` is a positive int with
gcd(den, *num.values()) == 1 (the zero polynomial has den == 1), so equal
polynomials have equal representations.  `terms` is the derived
{exponents: Fraction} view, each coefficient in its own lowest terms; no
other module of the package reads it (bench/spans.py counts terms with
it), and the printers `format_polynomial` and `format_univariate` read
the integers.
Add/mul/residues/substitute/derive/evaluate are implemented directly on the
maps.  Forms are evaluated at (p, q) in one way: :func:`monomials` makes
the row p^i q^(d-i), each product once, and :func:`combination` sums
scalar multiples of it over one common denominator.  The product is
one packed integer kernel: each exponent vector becomes one int key (mixed
radix, carry-free under addition) and the numerators multiply as ints
(packed exponent vectors: Monagan and Pearce, CASC 2007).  A product that
is only compared is never expanded: :func:`is_separated_sum` decides
whether a plane polynomial is a sum of products a(x) b(y) of univariates,
evaluating each b at a power of 2 (Kronecker substitution); :func:`is_product`
decides a * b == c for univariates from their values at a power of 2.
Division, gcd and factorization in one variable run natively over Q (see
:mod:`orbitlang.univariate`); resultants and the multivariate division, gcd
and factor_list go to sympy, which `_sympy` imports on the first such call.
Reduction modulo m goes through :meth:`Polynomial.residues` and
:func:`residue_eval`.  All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd as _int_gcd, lcm
from operator import attrgetter, mul
from typing import Iterable

from . import univariate
from .errors import RingMismatch

__all__ = [
    "Polynomial", "combination", "format_polynomial", "format_univariate", "is_product", "is_separated_sum",
    "monomials", "raised_monomials", "residue_eval",
]


_denominator = attrgetter("denominator")


@cache
def _sympy():
    """The sympy module, imported on the first call: only the heavy algebra uses it."""
    import sympy

    return sympy


@cache
def _symbol(name: str):
    return _sympy().Symbol(name)


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _from_sympy_number(value) -> Fraction:
    sympy = _sympy()
    return Fraction(int(sympy.numer(value)), int(sympy.denom(value)))


def _unpacked(keys, weights: list):
    """The exponent vectors of packed keys, in order."""
    if not weights:
        return [()] * len(keys)
    cols = []
    for w in weights[:0:-1]:
        cols.append([k // w for k in keys])
        keys = [k % w for k in keys]
    cols.append(keys)  # weights[0] == 1
    return zip(*reversed(cols))


class Polynomial:
    """Sparse exact polynomial in an ordered list of named variables:
    {exponents: numerator} over one positive common denominator, in lowest
    terms."""

    __slots__ = ("variables", "num", "den")

    def __init__(self, variables: Iterable[str], terms: dict):
        self.variables = tuple(variables)
        clean = {}
        width = len(self.variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent vector width mismatch")
            c = _as_fraction(c)
            if c != 0:
                clean[exps] = c
        # each Fraction is in lowest terms, so the lcm leaves no common factor
        self.den = den = lcm(*map(_denominator, clean.values()))
        self.num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _of(cls, variables: tuple, num: dict, den: int) -> "Polynomial":
        """Wrap a representation that is already canonical: exponent tuples
        of the right width mapped to nonzero ints over a positive den in
        lowest terms."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.num = num
        poly.den = den
        return poly

    @classmethod
    def _lowest(cls, variables: tuple, num: dict, den: int) -> "Polynomial":
        """:meth:`_of` for nonzero numerators over a positive den that may
        share a factor with all of them."""
        if den != 1:
            g = _int_gcd(den, *num.values())
            if g != 1:
                num = {e: n // g for e, n in num.items()}
                den //= g
        return cls._of(variables, num, den)

    @classmethod
    def constant(cls, value, variables: Iterable[str] = ()) -> "Polynomial":
        variables = tuple(variables)
        value = _as_fraction(value)
        num = {(0,) * len(variables): value.numerator} if value else {}
        return cls._of(variables, num, value.denominator)

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "Polynomial":
        variables = (name,) if variables is None else tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls._of(variables, {exps: 1}, 1)

    @classmethod
    def univariate(cls, coeffs: Iterable, var: str = "t") -> "Polynomial":
        """Build sum(coeffs[i] * var**i) from low-to-high coefficients."""
        return cls((var,), {(i,): c for i, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh {exponents: Fraction} map of the nonzero coefficients."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def total_degree(self):
        """Total degree; None for the zero polynomial (degree sentinel)."""
        if not self.num:
            return None
        return max(map(sum, self.num))

    def degree(self, var: str):
        """Degree in one variable; None for the zero polynomial."""
        if not self.num:
            return None
        i = self.variables.index(var)
        return max(e[i] for e in self.num)

    def univariate_coeffs(self) -> list:
        """Low-to-high dense coefficient list; requires exactly one variable."""
        if len(self.variables) != 1:
            raise ValueError("not univariate")
        deg = self.degree(self.variables[0])
        if deg is None:
            return []
        out = [Fraction(0)] * (deg + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    def is_constant(self) -> bool:
        return not any(map(any, self.num))

    def constant_value(self):
        return Fraction(self.num.get((0,) * len(self.variables), 0), self.den)

    def with_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Reinterpret over a different variable tuple.

        The target must contain every variable that actually occurs; unused
        slots may be dropped or added freely.
        """
        variables = tuple(variables)
        pos: list[int | None] = []
        for i, v in enumerate(self.variables):
            if v in variables:
                pos.append(variables.index(v))
            elif any(e[i] for e in self.num):
                raise ValueError(f"variable {v} occurs but is missing from target set")
            else:
                pos.append(None)
        num = {}
        for exps, n in self.num.items():
            new = [0] * len(variables)
            for p, e in zip(pos, exps):
                if p is not None:
                    new[p] = e
            num[tuple(new)] = n
        return Polynomial._of(variables, num, self.den)

    # -- arithmetic ------------------------------------------------------------------

    def _compat(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError("expected Polynomial")
        if self.variables != other.variables:
            raise RingMismatch(f"variable sets differ: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        self._compat(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        num = dict(self.num) if sa == 1 else {e: n * sa for e, n in self.num.items()}
        get = num.get
        for e, n in other.num.items():
            v = get(e, 0) + (n if sb == 1 else n * sb)
            if v:
                num[e] = v
            else:
                del num[e]
        return Polynomial._lowest(self.variables, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.variables, {e: -n for e, n in self.num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other, self.variables) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        self._compat(other)
        if len(self.num) < len(other.num):
            small, large = self.num, other.num
        else:
            small, large = other.num, self.num
        # the digit of variable v in a key runs to deg_small(v) + deg_large(v),
        # so keys of the two operands add without carry
        weights, w = [], 1
        for es, el in zip(zip(*small), zip(*large)):
            weights.append(w)
            w *= max(es) + max(el) + 1
        packed_l = [(sum(map(mul, e, weights)), n) for e, n in large.items()]
        acc: dict = {}
        get = acc.get
        for es, cs in small.items():
            ks = sum(map(mul, es, weights))
            for kl, cl in packed_l:
                k = ks + kl
                acc[k] = get(k, 0) + cs * cl
        num = {e: v for e, v in zip(_unpacked(acc, weights), acc.values()) if v}
        return Polynomial._lowest(self.variables, num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return Polynomial.constant(1, self.variables)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.num.items())))

    # -- calculus / evaluation ----------------------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        i = self.variables.index(var)
        # lowering exponent i is one-to-one on the terms where it is positive
        num = {e[:i] + (e[i] - 1,) + e[i + 1 :]: n * e[i] for e, n in self.num.items() if e[i]}
        return Polynomial._lowest(self.variables, num, self.den)

    def evaluate(self, values: dict):
        """Full evaluation; `values` must cover every variable."""
        acc = 0
        powers = [{0: Fraction(1)} for _ in self.variables]
        vals = [_as_fraction(values[v]) for v in self.variables]
        for exps, term in self.num.items():
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = vals[i] ** e
                    term = term * cache[e]
            acc = acc + term
        return Fraction(acc) / self.den

    def residues(self, m: int) -> dict:
        """Coefficients reduced mod m, {exponents: int}; see :func:`residue_eval`.

        Raises ZeroDivisionError when a coefficient denominator is not
        invertible mod m.
        """
        try:
            inv = pow(self.den, -1, m)
        except ValueError:
            raise ZeroDivisionError(f"denominator {self.den} is not invertible mod {m}") from None
        return {e: n * inv % m for e, n in self.num.items()}

    def substitute(self, assignments: dict) -> "Polynomial":
        """Substitute Polynomials/constants for a subset of the variables.

        The result keeps the full variable tuple; substitute constants and
        then use :meth:`drop_variables` to shrink.
        """
        subs = {}
        for name, val in assignments.items():
            if not isinstance(val, Polynomial):
                val = Polynomial.constant(val, self.variables)
            elif val.variables != self.variables:
                val = val.with_variables(self.variables)
            subs[self.variables.index(name)] = val
        one = Polynomial.constant(1, self.variables)
        acc = Polynomial(self.variables, {})
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        for exps, c in self.terms.items():
            rest = list(exps)
            factor = one
            for i in sorted(subs):
                e = rest[i]
                rest[i] = 0
                if e:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = subs[i] ** e
                    factor = factor * pow_cache[key]
            mono = Polynomial._of(self.variables, {tuple(rest): c.numerator}, c.denominator)
            acc = acc + mono * factor
        return acc

    def rename_variables(self, mapping: dict) -> "Polynomial":
        """Rename variables; slots that get one name merge, their exponents
        adding, so renaming x to x1 substitutes x1 for x."""
        names = tuple(mapping.get(v, v) for v in self.variables)
        variables = tuple(dict.fromkeys(names))
        if variables == names:
            return Polynomial._of(names, self.num, self.den)
        num: dict = {}
        for exps, n in self.num.items():
            key = tuple(sum(e for v, e in zip(names, exps) if v == name) for name in variables)
            num[key] = num.get(key, 0) + n
        return Polynomial._lowest(variables, {e: n for e, n in num.items() if n}, self.den)

    def placed(self, variables: Iterable[str], name: str) -> "Polynomial":
        """This univariate polynomial written in `name`, over the variable tuple `variables`."""
        return self.rename_variables({self.variables[0]: name}).with_variables(variables)

    def drop_variables(self, names: Iterable[str]) -> "Polynomial":
        names = set(names)
        for n in names:
            i = self.variables.index(n)
            if any(e[i] for e in self.num):
                raise ValueError(f"variable {n} still occurs")
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        return Polynomial._of(
            tuple(self.variables[i] for i in keep),
            {tuple(e[i] for i in keep): n for e, n in self.num.items()},
            self.den,
        )

    # -- content and normalization ---------------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Write self = content * primitive with integer coprime coefficients.

        Sign convention: the leading coefficient (lexicographically largest
        exponent vector) of the primitive part is positive.
        """
        if not self.num:
            return Fraction(0), self
        g = _int_gcd(*self.num.values())
        if self.num[max(self.num)] < 0:
            g = -g
        return Fraction(g, self.den), Polynomial._of(self.variables, {e: n // g for e, n in self.num.items()}, 1)

    def monic(self) -> "Polynomial":
        """Divide a univariate polynomial by its leading coefficient."""
        if len(self.variables) != 1 or self.is_zero:
            raise ValueError("monic() needs a nonzero univariate polynomial")
        lead = self.num[max(self.num)]
        return Polynomial(self.variables, {e: Fraction(n, lead) for e, n in self.num.items()})

    # -- sympy bridge ----------------------------------------------------------------------

    def to_sympy(self):
        sympy = _sympy()
        syms = [_symbol(v) for v in self.variables] or [_symbol("_c")]
        num = self.num or {(0,) * len(syms): 0}
        d = {e if self.variables else (0,): sympy.Rational(n, self.den) for e, n in num.items()}
        return sympy.Poly.from_dict(d, *syms, domain=sympy.QQ)

    @classmethod
    def from_sympy(cls, poly, variables: Iterable[str]) -> "Polynomial":
        sympy = _sympy()
        variables = tuple(variables)
        if not variables:
            value = sympy.sympify(poly if not isinstance(poly, sympy.Poly) else poly.as_expr())
            return cls((), {(): _from_sympy_number(value)})
        expr = sympy.Poly(poly, *[_symbol(v) for v in variables], domain=sympy.QQ)
        return cls(variables, {tuple(exps): _from_sympy_number(c) for exps, c in expr.terms()})

    # -- heavy algebra: native in one variable, sympy in more -------------------------------

    def _dense(self) -> list[int]:
        """The numerators of a univariate polynomial, low to high."""
        out = [0] * (max(self.num)[0] + 1 if self.num else 0)
        for (e,), n in self.num.items():
            out[e] = n
        return out

    def _from_dense(self, coeffs: list[int], den: int) -> "Polynomial":
        """sum(coeffs[i] t^i) / den in self's one variable, for a nonzero den."""
        if den < 0:
            coeffs, den = [-c for c in coeffs], -den
        return Polynomial._lowest(self.variables, {(i,): c for i, c in enumerate(coeffs) if c}, den)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of the division by `other`: over Q in one
        variable, sympy's lexicographic division in more."""
        self._compat(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(self.variables) == 1:
            a, b = self._dense(), other._dense()
            # lc(b)^e a = q b + r over Z, so self = (q other.den) / s * other + r / s
            scale = b[-1] ** max(len(a) - len(b) + 1, 0)
            q, r = univariate.divmod_z([n * scale for n in a], b)
            s = scale * self.den
            return self._from_dense([n * other.den for n in q], s), self._from_dense(r, s)
        q, r = _sympy().div(self.to_sympy(), other.to_sympy())
        return Polynomial.from_sympy(q, self.variables), Polynomial.from_sympy(r, self.variables)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Polynomial gcd, normalized monic in the lexicographically leading term."""
        self._compat(other)
        if len(self.variables) == 1:
            g = univariate.gcd_z(self._dense(), other._dense())
            return self._from_dense(g, g[-1] if g else 1)
        result = Polynomial.from_sympy(_sympy().gcd(self.to_sympy(), other.to_sympy()), self.variables)
        lead = result.num[max(result.num)] if result.num else 1
        return Polynomial(self.variables, {e: Fraction(n, lead) for e, n in result.num.items()})

    def resultant(self, other: "Polynomial", var: str) -> "Polynomial":
        """Resultant eliminating `var`; result lives in the remaining variables."""
        self._compat(other)
        sympy = _sympy()
        sym = _symbol(var)
        res = sympy.resultant(self.to_sympy().as_expr(), other.to_sympy().as_expr(), sym)
        rest = tuple(v for v in self.variables if v != var)
        return Polynomial.from_sympy(sympy.Poly(res, *[_symbol(v) for v in rest] or [_symbol("_c")]), rest)

    def factor_list(self) -> tuple[Fraction, list[tuple["Polynomial", int]]]:
        """(content, [(factor, multiplicity)]): each factor irreducible over Q,
        primitive over Z with positive lead, in sympy's form and order."""
        if len(self.variables) != 1:
            const, factors = _sympy().factor_list(self.to_sympy())
            return _from_sympy_number(const), [(Polynomial.from_sympy(f, self.variables), int(m)) for f, m in factors]
        content, prim = self.content_and_primitive()
        if prim.is_zero:
            return content, []
        return content, [(self._from_dense(f, 1), m) for f, m in univariate.factor(prim._dense())]

    def is_irreducible(self) -> bool:
        if self.is_zero or self.is_constant():
            return False
        _, factors = self.factor_list()
        return len(factors) == 1 and factors[0][1] == 1

    def rational_roots(self) -> list[Fraction]:
        """All rational roots of a univariate rational polynomial (no multiplicity)."""
        if len(self.variables) != 1:
            raise ValueError("univariate only")
        # the factors are distinct and primitive: each linear one c1 t + c0 gives -c0 / c1
        _, factors = self.factor_list()
        return sorted(Fraction(-f.num.get((0,), 0), f.num[(1,)]) for f, _ in factors if max(f.num) == (1,))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def monomials(p: Polynomial, q: Polynomial, degree: int) -> list[Polynomial]:
    """[p^i q^(degree-i) for i = 0..degree], each product taken once; p and q
    share one variable tuple.  With q = 1 the row is 1, p, ..., p^degree."""
    if not degree:
        return [Polynomial.constant(1, p.variables)]
    row = [q, p]
    for _ in range(degree - 1):
        row = raised_monomials(row, p, q)
    return row


def raised_monomials(row: list[Polynomial], p: Polynomial, q: Polynomial) -> list[Polynomial]:
    """The monomials of degree e + 1 in (p, q) from `row`, those of degree e:
    q^(e+1) = q^e q and p^(i+1) q^(e-i) = (p^i q^(e-i)) p, so every entry is
    one product and no two are equal; with q = 1 only p^(e+1) is new."""
    if q.is_constant() and q.constant_value() == 1:
        return row + [row[-1] * p]
    return [row[0] * q] + [m * p for m in row]


def combination(coeffs, polys: list[Polynomial]) -> Polynomial:
    """sum(c * f for c, f in zip(coeffs, polys)), scalar multiples and sums
    only, built in one pass over one common denominator.  With `polys` the
    row :func:`monomials` of (p, q) this is the form sum(c[i] X^i Y^(d-i))
    at (X, Y) = (p, q): the one evaluator of forms, and with q = 1 the
    composition c(p)."""
    pairs = [(c, f) for c, f in zip(map(_as_fraction, coeffs), polys) if c and f.num]
    den = lcm(*(c.denominator * f.den for c, f in pairs))
    num: dict = {}
    get = num.get
    for c, f in pairs:
        m = c.numerator * (den // (c.denominator * f.den))
        for e, n in f.num.items():
            num[e] = get(e, 0) + m * n
    return Polynomial._lowest(polys[0].variables, {e: n for e, n in num.items() if n}, den)


def is_separated_sum(terms, c: Polynomial) -> bool:
    """Whether c(x, y) == sum(sign * a(x) * b(y) for sign, a, b in terms), for
    univariates a and b and signs 1 or -1, decided exactly without expanding
    the sum.

    Over L = lcm(c.den, each a.den b.den) the claim is
    G = sum(m_i A_i(x) B_i(y)) - m_c C(x, y) = 0, with A_i, B_i the
    numerators of term i, m_i = sign_i L / (a_i.den b_i.den) and
    m_c = L / c.den.  Each B_i is only evaluated at y = 2^w, as an int.  G's
    coefficient of x^a y^b is sum(m_i A_i[a] B_i[b]) - m_c C[a, b], so none
    exceeds H = sum(|m_i| |A_i|_inf |B_i|_inf) + m_c |C|_inf, and 2^w > H.
    An integer polynomial g(y) with coefficients below 2^w in absolute value
    and lowest nonzero one g_m has g(2^w) = 2^(w m) (g_m + 2^w k), k an
    integer, and 0 < |g_m| < 2^w: so each x-row of G is 0 iff its value at
    2^w is, and the test is a proof.

    A pullback proves x - y and then, at each level, two sums: with
    (p', q') the level's forms and sum(U_a(x) V_a(y)) the layer's separated
    form, layer == sum(U_a(x) V_a(y)) and after ==
    p'(x) q'(y) - q'(x) p'(y).  The Bezout identity of the map and the
    univariate checks of :func:`is_product` tie them together (see
    :func:`orbitlang.intersection._level_holds`).
    """
    dens = [a.den * b.den for _, a, b in terms]
    common = lcm(c.den, *dens)
    scale = common // c.den
    height = max(map(abs, c.num.values()), default=0) * scale
    for (_, a, b), den in zip(terms, dens):
        height += common // den * max(map(abs, a.num.values()), default=0) * max(map(abs, b.num.values()), default=0)
    width = height.bit_length()
    rows: dict = {}
    get = rows.get
    for (i, j), n in c.num.items():
        rows[i] = get(i, 0) - (n * scale << width * j)
    for (sign, a, b), den in zip(terms, dens):
        value = sign * (common // den) * sum(n << width * e for (e,), n in b.num.items())
        for (i,), m in a.num.items():
            rows[i] = get(i, 0) + m * value
    return not any(rows.values())


def is_product(a: Polynomial, b: Polynomial, c: Polynomial) -> bool:
    """Whether a * b == c for univariates a, b and c, decided exactly
    without expanding a * b: each is evaluated at t = 2^w as an int.

    With A, B and C the numerators the claim is g = c.den A B -
    a.den b.den C = 0.  No coefficient of g exceeds
    H = c.den |A|_1 |B|_inf + a.den b.den |C|_inf, and 2^w > H, so by the
    lemma of :func:`is_separated_sum` g = 0 iff g(2^w) = 0.
    """
    height = c.den * sum(map(abs, a.num.values())) * max(map(abs, b.num.values()), default=0)
    width = (height + a.den * b.den * max(map(abs, c.num.values()), default=0)).bit_length()

    def value(f: Polynomial) -> int:
        return sum(n << width * e for (e,), n in f.num.items())

    return c.den * value(a) * value(b) == a.den * b.den * value(c)


def residue_eval(residues: dict, coords, m: int) -> int:
    """Value mod m of the polynomial with coefficient residues `residues`
    (from :meth:`Polynomial.residues`) at the residue coordinates `coords`."""
    acc = 0
    for exps, c in residues.items():
        for x, e in zip(coords, exps):
            if e:
                c = c * (x if e == 1 else pow(x, e, m)) % m
        acc += c
    return acc % m


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text form: terms ordered by descending exponent vector."""
    return _format_terms(poly.variables, sorted(poly.num.items(), reverse=True), poly.den)


def format_univariate(coeffs, den: int = 1) -> str:
    """:func:`format_polynomial` of sum(coeffs[i] t^i) / den for integer
    low-to-high coefficients and a nonzero integer den."""
    if den < 0:
        coeffs, den = [-c for c in coeffs], -den
    return _format_terms(("t",), [((i,), coeffs[i]) for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]], den)


def _format_terms(variables: tuple, terms: list, den: int) -> str:
    """The text of sum(n / den * monomial) over the (exponents, n) pairs of
    `terms`, nonzero ints in print order, each coefficient in lowest terms."""
    if not terms:
        return "0"
    parts = []
    for exps, n in terms:
        g = _int_gcd(n, den)
        c = f"{n // den}" if g == den else f"{n // g}/{den // g}"
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(variables, exps) if e)
        if not mono:
            piece = c
        elif c == "1":
            piece = mono
        elif c == "-1":
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    text = parts[0]
    for piece in parts[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text
