"""Exact sparse polynomial arithmetic over Q.

Representation is a sparse map from exponent vectors to Fraction
coefficients.  Add/mul/substitute/derive/evaluate are implemented directly
on the maps, as is :func:`horner_forms`, the one composition step.  The
product is one packed integer kernel: each exponent vector becomes one int
key (mixed radix, carry-free under addition), each operand integer
numerators over its common denominator, and each output term one Fraction
(packed exponent vectors: Monagan and Pearce, CASC 2007).  The
heavy algebra (gcd, resultants, division, factorization) is delegated to
sympy; :meth:`Polynomial.divmod` is the one polynomial division.  Reduction
modulo m goes through :meth:`Polynomial.residues` and :func:`residue_eval`.
All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm
from operator import attrgetter, mul
from typing import Iterable

import sympy
from sympy.polys.domains import RationalField

from .errors import InexactDivision, RingMismatch
from .padics import residue

__all__ = ["Polynomial", "horner_forms", "poly_eval", "residue_eval"]


_RATIONALS = RationalField()
_denominator = attrgetter("denominator")
_SYMBOL_CACHE: dict[str, sympy.Symbol] = {}


def _symbol(name: str) -> sympy.Symbol:
    if name not in _SYMBOL_CACHE:
        _SYMBOL_CACHE[name] = sympy.Symbol(name)
    return _SYMBOL_CACHE[name]


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _from_sympy_number(value) -> Fraction:
    return Fraction(int(sympy.numer(value)), int(sympy.denom(value)))


def _packed(terms: dict, weights: list) -> tuple[int, list]:
    """(den, [(key, numerator)]) with terms = {exps: numerator / den} and
    each exponent vector packed into the key sum(e * w for e, w in zip(exps, weights))."""
    den = lcm(*map(_denominator, terms.values()))
    return den, [(sum(map(mul, e, weights)), c.numerator * (den // c.denominator)) for e, c in terms.items()]


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
    """Sparse exact polynomial in an ordered list of named variables."""

    __slots__ = ("variables", "terms")

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
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _of(cls, variables: tuple, terms: dict) -> "Polynomial":
        """Wrap terms that are already clean: exponent tuples of the right
        width mapped to nonzero Fractions."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, value, variables: Iterable[str] = ()) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "Polynomial":
        variables = (name,) if variables is None else tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def univariate(cls, coeffs: Iterable, var: str = "t") -> "Polynomial":
        """Build sum(coeffs[i] * var**i) from low-to-high coefficients."""
        return cls((var,), {(i,): c for i, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Total degree; None for the zero polynomial (degree sentinel)."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree(self, var: str):
        """Degree in one variable; None for the zero polynomial."""
        if not self.terms:
            return None
        i = self.variables.index(var)
        return max(e[i] for e in self.terms)

    def coefficient(self, exps) -> object:
        return self.terms.get(tuple(exps), Fraction(0))

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
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), Fraction(0))

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
            elif any(e[i] for e in self.terms):
                raise ValueError(f"variable {v} occurs but is missing from target set")
            else:
                pos.append(None)
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(pos, exps):
                if p is not None:
                    new[p] = e
            terms[tuple(new)] = c
        return Polynomial(variables, terms)

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
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in terms:
                terms[exps] = terms[exps] + c
            else:
                terms[exps] = c
        return Polynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

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
        if len(self.terms) < len(other.terms):
            small, large = self.terms, other.terms
        else:
            small, large = other.terms, self.terms
        # the digit of variable v in a key runs to deg_small(v) + deg_large(v),
        # so keys of the two operands add without carry
        weights, w = [], 1
        for es, el in zip(zip(*small), zip(*large)):
            weights.append(w)
            w *= max(es) + max(el) + 1
        den_s, packed_s = _packed(small, weights)
        den_l, packed_l = _packed(large, weights)
        acc: dict = {}
        get = acc.get
        for ks, cs in packed_s:
            for kl, cl in packed_l:
                k = ks + kl
                acc[k] = get(k, 0) + cs * cl
        den = den_s * den_l
        terms = {e: Fraction(v, den) for e, v in zip(_unpacked(acc, weights), acc.values()) if v}
        return Polynomial._of(self.variables, terms)

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
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus / evaluation ----------------------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        i = self.variables.index(var)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            add = c * exps[i]
            terms[key] = terms[key] + add if key in terms else add
        return Polynomial(self.variables, terms)

    def evaluate(self, values: dict):
        """Full evaluation; `values` must cover every variable."""
        acc = Fraction(0)
        powers = [{0: Fraction(1)} for _ in self.variables]
        vals = [_as_fraction(values[v]) for v in self.variables]
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = vals[i] ** e
                    term = term * cache[e]
            acc = acc + term
        return acc

    def residues(self, m: int) -> dict:
        """Coefficients reduced mod m, {exponents: int}; see :func:`residue_eval`.

        Raises ZeroDivisionError when a coefficient denominator is not
        invertible mod m.
        """
        return {e: residue(c, m) for e, c in self.terms.items()}

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
            mono = Polynomial(self.variables, {tuple(rest): c})
            acc = acc + mono * factor
        return acc

    def rename_variables(self, mapping: dict) -> "Polynomial":
        return Polynomial(tuple(mapping.get(v, v) for v in self.variables), self.terms)

    def placed(self, variables: Iterable[str], name: str) -> "Polynomial":
        """This univariate polynomial written in `name`, over the variable tuple `variables`."""
        return self.rename_variables({self.variables[0]: name}).with_variables(variables)

    def drop_variables(self, names: Iterable[str]) -> "Polynomial":
        names = set(names)
        for n in names:
            i = self.variables.index(n)
            if any(e[i] for e in self.terms):
                raise ValueError(f"variable {n} still occurs")
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        return Polynomial(
            tuple(self.variables[i] for i in keep),
            {tuple(e[i] for i in keep): c for e, c in self.terms.items()},
        )

    # -- content and normalization ---------------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Write self = content * primitive with integer coprime coefficients.

        Sign convention: the leading coefficient (lexicographically largest
        exponent vector) of the primitive part is positive.
        """
        if not self.terms:
            return Fraction(0), self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = _int_gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
        content = Fraction(num_gcd, den_lcm)
        lead = max(self.terms)
        if self.terms[lead] < 0:
            content = -content
        prim = Polynomial(self.variables, {e: c / content for e, c in self.terms.items()})
        return content, prim

    def monic(self) -> "Polynomial":
        """Divide a univariate polynomial by its leading coefficient."""
        if len(self.variables) != 1 or self.is_zero:
            raise ValueError("monic() needs a nonzero univariate polynomial")
        lead = self.terms[max(self.terms)]
        return Polynomial(self.variables, {e: c / lead for e, c in self.terms.items()})

    # -- sympy bridge ----------------------------------------------------------------------

    def to_sympy(self):
        syms = [_symbol(v) for v in self.variables] or [_symbol("_c")]
        terms = self.terms or {(0,) * len(syms): 0}
        d = {e if self.variables else (0,): sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
        return sympy.Poly.from_dict(d, *syms, domain=_RATIONALS)

    @classmethod
    def from_sympy(cls, poly, variables: Iterable[str]) -> "Polynomial":
        variables = tuple(variables)
        if not variables:
            value = sympy.sympify(poly if not isinstance(poly, sympy.Poly) else poly.as_expr())
            return cls((), {(): _from_sympy_number(value)})
        expr = sympy.Poly(poly, *[_symbol(v) for v in variables], domain=_RATIONALS)
        return cls(variables, {tuple(exps): _from_sympy_number(c) for exps, c in expr.terms()})

    # -- heavy algebra (delegated) ------------------------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of sympy's (lexicographic) division by `other`."""
        self._compat(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = sympy.div(self.to_sympy(), other.to_sympy())
        return Polynomial.from_sympy(q, self.variables), Polynomial.from_sympy(r, self.variables)

    def divexact(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        if other.is_zero:
            raise InexactDivision("division by the zero polynomial")
        q, r = self.divmod(other)
        if not r.is_zero:
            raise InexactDivision("remainder is nonzero")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Polynomial gcd, normalized monic in the lexicographically leading term."""
        self._compat(other)
        g = sympy.gcd(self.to_sympy(), other.to_sympy())
        result = Polynomial.from_sympy(g, self.variables)
        if result.is_zero:
            return result
        lead = result.terms[max(result.terms)]
        return Polynomial(self.variables, {e: c / lead for e, c in result.terms.items()})

    def resultant(self, other: "Polynomial", var: str) -> "Polynomial":
        """Resultant eliminating `var`; result lives in the remaining variables."""
        self._compat(other)
        sym = _symbol(var)
        res = sympy.resultant(self.to_sympy().as_expr(), other.to_sympy().as_expr(), sym)
        rest = tuple(v for v in self.variables if v != var)
        return Polynomial.from_sympy(sympy.Poly(res, *[_symbol(v) for v in rest] or [_symbol("_c")]), rest)

    def factor_list(self) -> tuple[Fraction, list[tuple["Polynomial", int]]]:
        const, factors = sympy.factor_list(self.to_sympy())
        return _from_sympy_number(const), [(Polynomial.from_sympy(f, self.variables), int(mult)) for f, mult in factors]

    def is_irreducible(self) -> bool:
        if self.is_zero or self.is_constant():
            return False
        _, factors = self.factor_list()
        return len(factors) == 1 and factors[0][1] == 1

    def rational_roots(self) -> list[Fraction]:
        """All rational roots of a univariate rational polynomial (no multiplicity)."""
        if len(self.variables) != 1:
            raise ValueError("univariate only")
        roots = []
        _, factors = self.factor_list()
        for f, _ in factors:
            if f.degree(f.variables[0]) == 1:
                coeffs = f.univariate_coeffs()
                roots.append(-coeffs[0] / coeffs[1])
        return sorted(set(roots))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def horner_forms(forms, p: Polynomial, q: Polynomial) -> list[Polynomial]:
    """Each degree-d form sum(c[i] X^i Y^(d-i)) of `forms` at (X, Y) = (p, q).

    One homogeneous Horner pass per coefficient list c (all of length d + 1),
    sharing the powers of q; p and q share one variable tuple.  With q = 1
    this is the composition c(p) of a polynomial with p.
    """
    d = len(forms[0]) - 1
    q_pows = [Polynomial.constant(1, p.variables), q]
    for _ in range(2, d + 1):
        q_pows.append(q_pows[-1] * q)
    out = []
    for c in forms:
        acc = q_pows[0] * c[d]
        for i in range(d - 1, -1, -1):
            acc = acc * p
            if c[i]:
                acc = acc + q_pows[d - i] * c[i]
        out.append(acc)
    return out


def poly_eval(coeffs, x: Fraction) -> Fraction:
    """Horner evaluation of sum(coeffs[i] * x**i) from low-to-high coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def residue_eval(residues: dict, coords, m: int) -> int:
    """Value mod m of the polynomial with coefficient residues `residues`
    (from :meth:`Polynomial.residues`) at the residue coordinates `coords`."""
    acc = 0
    for exps, c in residues.items():
        term = c
        for x, e in zip(coords, exps):
            if e:
                term = term * pow(x, e, m) % m
        acc += term
    return acc % m


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text form: terms ordered by descending exponent vector."""
    if poly.is_zero:
        return "0"
    parts = []
    for exps in sorted(poly.terms, reverse=True):
        c = poly.terms[exps]
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in zip(poly.variables, exps) if e
        )
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    text = parts[0]
    for piece in parts[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text

