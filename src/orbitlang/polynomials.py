"""Exact dense-coefficient polynomial arithmetic over Q and F_p.

Representation is a sparse map from exponent vectors to coefficients, tagged
with the coefficient ring.  Ring math (add/mul/substitute/derive/evaluate)
is implemented directly on the maps; the heavy algebra (gcd, resultants,
exact division, factorization) is delegated to sympy for the exact rings.
All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable

import sympy

from .errors import InexactDivision, RingMismatch

__all__ = ["RingTag", "QQ", "mod_ring", "Polynomial", "poly_arith", "poly_eval"]


@dataclass(frozen=True)
class RingTag:
    """Coefficient ring marker: rational or residue field mod p."""

    kind: str  # "rational" | "mod"
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in ("rational", "mod"):
            raise ValueError(f"unknown ring kind {self.kind}")
        if self.kind == "mod" and self.prime is None:
            raise ValueError("prime required")


QQ = RingTag("rational")


def mod_ring(p: int) -> RingTag:
    return RingTag("mod", p)


def _coerce(ring: RingTag, c):
    if ring.kind == "rational":
        return c if isinstance(c, Fraction) else Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, ring.prime) % ring.prime
    return int(c) % ring.prime


_SYMBOL_CACHE: dict[str, sympy.Symbol] = {}


def _symbol(name: str) -> sympy.Symbol:
    if name not in _SYMBOL_CACHE:
        _SYMBOL_CACHE[name] = sympy.Symbol(name)
    return _SYMBOL_CACHE[name]


class Polynomial:
    """Sparse exact polynomial in an ordered list of named variables."""

    __slots__ = ("ring", "variables", "terms")

    def __init__(self, ring: RingTag, variables: Iterable[str], terms: dict):
        self.ring = ring
        self.variables = tuple(variables)
        clean = {}
        width = len(self.variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent vector width mismatch")
            c = _coerce(ring, c)
            if c != 0:
                clean[exps] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, value, ring: RingTag = QQ, variables: Iterable[str] = ()) -> "Polynomial":
        variables = tuple(variables)
        return cls(ring, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, ring: RingTag = QQ, variables: Iterable[str] | None = None) -> "Polynomial":
        variables = (name,) if variables is None else tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(ring, variables, {exps: 1})

    @classmethod
    def univariate(cls, coeffs: Iterable, var: str = "t", ring: RingTag = QQ) -> "Polynomial":
        """Build sum(coeffs[i] * var**i) from low-to-high coefficients."""
        return cls(ring, (var,), {(i,): c for i, c in enumerate(coeffs)})

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
        return self.terms.get(tuple(exps), _coerce(self.ring, 0))

    def univariate_coeffs(self) -> list:
        """Low-to-high dense coefficient list; requires exactly one variable."""
        if len(self.variables) != 1:
            raise ValueError("not univariate")
        deg = self.degree(self.variables[0])
        if deg is None:
            return []
        zero = _coerce(self.ring, 0)
        out = [zero] * (deg + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), _coerce(self.ring, 0))

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
        return Polynomial(self.ring, variables, terms)

    # -- ring ops --------------------------------------------------------------------

    def _compat(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError("expected Polynomial")
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.variables != other.variables:
            raise RingMismatch(f"variable sets differ: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ring, self.variables)
        self._compat(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in terms:
                terms[exps] = terms[exps] + c
            else:
                terms[exps] = c
        return Polynomial(self.ring, self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.kind == "mod":
            p = self.ring.prime
            return Polynomial(self.ring, self.variables, {e: (-c) % p for e, c in self.terms.items()})
        return Polynomial(self.ring, self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ring, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other, self.ring, self.variables) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.ring, self.variables)
        self._compat(other)
        if len(self.terms) < len(other.terms):
            small, large = self.terms, other.terms
        else:
            small, large = other.terms, self.terms
        acc: dict = {}
        modp = self.ring.prime if self.ring.kind == "mod" else None
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = c1 * c2
                if key in acc:
                    v = acc[key] + v
                acc[key] = v % modp if modp else v
        return Polynomial(self.ring, self.variables, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.ring, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.variables, frozenset(self.terms.items())))

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
        return Polynomial(self.ring, self.variables, terms)

    def evaluate(self, values: dict):
        """Full evaluation; `values` must cover every variable."""
        zero = _coerce(self.ring, 0)
        acc = zero
        powers = [{0: _coerce(self.ring, 1)} for _ in self.variables]
        vals = [_coerce(self.ring, values[v]) for v in self.variables]
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = vals[i] ** e
                    term = term * cache[e]
            acc = acc + term
        if self.ring.kind == "mod":
            acc %= self.ring.prime
        return acc

    def substitute(self, assignments: dict) -> "Polynomial":
        """Substitute Polynomials/constants for a subset of the variables.

        The result keeps the full variable tuple; substitute constants and
        then use :meth:`drop_variables` to shrink.
        """
        subs = {}
        for name, val in assignments.items():
            if not isinstance(val, Polynomial):
                val = Polynomial.constant(val, self.ring, self.variables)
            elif val.variables != self.variables:
                val = val.with_variables(self.variables)
            subs[self.variables.index(name)] = val
        one = Polynomial.constant(1, self.ring, self.variables)
        acc = Polynomial(self.ring, self.variables, {})
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
            mono = Polynomial(self.ring, self.variables, {tuple(rest): c})
            acc = acc + mono * factor
        return acc

    def rename_variables(self, mapping: dict) -> "Polynomial":
        return Polynomial(self.ring, tuple(mapping.get(v, v) for v in self.variables), self.terms)

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
            self.ring,
            tuple(self.variables[i] for i in keep),
            {tuple(e[i] for i in keep): c for e, c in self.terms.items()},
        )

    # -- rational-ring helpers ------------------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Write self = content * primitive with integer coprime coefficients.

        Sign convention: the leading coefficient (lexicographically largest
        exponent vector) of the primitive part is positive.
        """
        if self.ring.kind != "rational":
            raise RingMismatch("content defined over the rationals only")
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
        prim = Polynomial(self.ring, self.variables, {e: c / content for e, c in self.terms.items()})
        return content, prim

    def monic(self) -> "Polynomial":
        """Divide a univariate polynomial by its leading coefficient."""
        if len(self.variables) != 1 or self.is_zero:
            raise ValueError("monic() needs a nonzero univariate polynomial")
        lead = self.terms[max(self.terms)]
        if self.ring.kind == "mod":
            inv = pow(lead, -1, self.ring.prime)
            return Polynomial(self.ring, self.variables, {e: c * inv % self.ring.prime for e, c in self.terms.items()})
        return Polynomial(self.ring, self.variables, {e: c / lead for e, c in self.terms.items()})

    # -- sympy bridge ----------------------------------------------------------------------

    def _domain(self):
        return sympy.QQ if self.ring.kind == "rational" else sympy.GF(self.ring.prime)

    def to_sympy(self):
        syms = [_symbol(v) for v in self.variables] or [_symbol("_c")]
        terms = self.terms or {(0,) * len(syms): 0}
        if self.ring.kind == "rational":
            d = {e if self.variables else (0,): sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
        else:
            d = {e if self.variables else (0,): int(c) for e, c in terms.items()}
        return sympy.Poly.from_dict(d, *syms, domain=self._domain())

    @classmethod
    def from_sympy(cls, poly, ring: RingTag, variables: Iterable[str]) -> "Polynomial":
        variables = tuple(variables)
        if not variables:
            value = sympy.sympify(poly if not isinstance(poly, sympy.Poly) else poly.as_expr())
            if ring.kind == "rational":
                return cls(ring, (), {(): Fraction(int(sympy.numer(value)), int(sympy.denom(value)))})
            return cls(ring, (), {(): int(value) % ring.prime})
        expr = sympy.Poly(poly, *[_symbol(v) for v in variables], domain="QQ" if ring.kind == "rational" else sympy.GF(ring.prime))
        terms = {}
        for exps, c in expr.terms():
            if ring.kind == "rational":
                c = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
            else:
                c = int(c) % ring.prime
            terms[tuple(exps)] = c
        return cls(ring, variables, terms)

    # -- heavy algebra (delegated) ------------------------------------------------------------

    def divexact(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        if other.is_zero:
            raise InexactDivision("division by the zero polynomial")
        if self.is_zero:
            return self
        q, r = sympy.div(self.to_sympy(), other.to_sympy())
        if not r.is_zero:
            raise InexactDivision("remainder is nonzero")
        return Polynomial.from_sympy(q, self.ring, self.variables)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Polynomial gcd, normalized monic in the lexicographically leading term."""
        self._compat(other)
        g = sympy.gcd(self.to_sympy(), other.to_sympy())
        result = Polynomial.from_sympy(g, self.ring, self.variables)
        if result.is_zero:
            return result
        lead = result.terms[max(result.terms)]
        if self.ring.kind == "mod":
            inv = pow(lead, -1, self.ring.prime)
            return Polynomial(self.ring, self.variables, {e: c * inv % self.ring.prime for e, c in result.terms.items()})
        return Polynomial(self.ring, self.variables, {e: c / lead for e, c in result.terms.items()})

    def resultant(self, other: "Polynomial", var: str) -> "Polynomial":
        """Resultant eliminating `var`; result lives in the remaining variables."""
        self._compat(other)
        sym = _symbol(var)
        res = sympy.resultant(self.to_sympy().as_expr(), other.to_sympy().as_expr(), sym)
        rest = tuple(v for v in self.variables if v != var)
        return Polynomial.from_sympy(sympy.Poly(res, *[_symbol(v) for v in rest] or [_symbol("_c")]), self.ring, rest)

    def factor_list(self) -> tuple[Fraction, list[tuple["Polynomial", int]]]:
        const, factors = sympy.factor_list(self.to_sympy())
        if self.ring.kind == "rational":
            const = Fraction(int(sympy.numer(const)), int(sympy.denom(const)))
        else:
            const = int(const)
        out = []
        for f, mult in factors:
            out.append((Polynomial.from_sympy(f, self.ring, self.variables), int(mult)))
        return const, out

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


def poly_eval(coeffs, x: Fraction) -> Fraction:
    """Horner evaluation of sum(coeffs[i] * x**i) from low-to-high coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def poly_arith(a: Polynomial, b: Polynomial, op: str, var: str | None = None) -> Polynomial:
    """Single entry point for the ring operations: add|mul|divexact|gcd|resultant."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "divexact":
        return a.divexact(b)
    if op == "gcd":
        return a.gcd(b)
    if op == "resultant":
        if var is None:
            raise ValueError("resultant needs the variable to eliminate")
        return a.resultant(b, var)
    raise ValueError(f"unknown op {op}")
