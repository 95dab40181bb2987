"""Independent test oracles and reference implementations.

These deliberately avoid the library's own code paths: root counting is by
exhaustive Hensel-style lifting of solutions mod p, composition checks are
by brute substitution, and orbit scans are by direct iteration.  The
reference implementations `expanded_forms`, `compose` and
`iterate_polynomial` build forms and composites term by term, with none of
the library's rows of monomials, and `divexact` is the exact quotient that
`Polynomial.divmod` must give.  `reference_parse_expression` is the
expression parser as it was before it computed on integers: rational
functions of `Polynomial`s, printed through the `Fraction` view of their
coefficients.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from orbitlang.dynsys import RationalMap
from orbitlang.errors import ExpressionSyntaxError, HypothesisViolated, InexactDivision, NonPolynomialWhereRequired
from orbitlang.parsing import TERM_CAP, ParsedExpression
from orbitlang.polynomials import Polynomial
from orbitlang.dynsys import EXACT_BITS_CAP
from orbitlang.varieties import PLANE_ALIAS, PlaneCurve


def hensel_zp_root_count(int_coeffs, p, levels=12):
    """Distinct Z_p roots of an integer polynomial, found by exhaustive lifting.

    Breadth-first search over solutions of f(x) = 0 mod p**k for k = 1..levels;
    the returned value is the number of residues mod p**levels that solve the
    congruence at the top level.  For polynomials whose roots are simple and
    pairwise distinct mod p this equals the exact number of Z_p roots.
    """

    def value(x, mod):
        acc = 0
        for c in reversed(int_coeffs):
            acc = (acc * x + c) % mod
        return acc

    solutions = [x for x in range(p) if value(x, p) == 0]
    for k in range(2, levels + 1):
        mod = p**k
        step = p ** (k - 1)
        lifted = []
        for x in solutions:
            for c in range(p):
                cand = x + c * step
                if value(cand, mod) == 0:
                    lifted.append(cand)
        solutions = lifted
        if not solutions:
            break
    return len(solutions)


def poly_eval_fraction(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def brute_orbit(f_coeffs, x, steps):
    """Exact orbit values x, f(x), ..., f^steps(x) of a polynomial map."""
    out = [Fraction(x)]
    for _ in range(steps):
        out.append(poly_eval_fraction(f_coeffs, out[-1]))
    return out


def schoolbook_product(a_terms, b_terms):
    """Product of two {exponent tuple: Fraction} maps, one Fraction
    multiply-add per pair of terms, zero coefficients dropped."""
    acc = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in acc.items() if v}


def fraction_orbit_hits(maps, starts, generators, limit):
    """Indices n <= limit at which every generator vanishes at the orbit
    point, by plain Fraction iteration.

    `maps` holds one (numerator, denominator) pair of low-to-high coefficient
    lists per coordinate and each generator is an {exponent tuple:
    coefficient} map; no orbit may pass through infinity.
    """
    point = [Fraction(s) for s in starts]
    hits = []
    for n in range(limit + 1):
        if n:
            point = [poly_eval_fraction(num, x) / poly_eval_fraction(den, x) for (num, den), x in zip(maps, point)]
        powers: dict = {}
        values = []
        for gen in generators:
            total = Fraction(0)
            for exps, c in gen.items():
                term = Fraction(c)
                for i, e in enumerate(exps):
                    if e:
                        if (i, e) not in powers:
                            powers[i, e] = point[i] ** e
                        term *= powers[i, e]
                total += term
            values.append(total)
        if not any(values):
            hits.append(n)
    return hits


def expanded_forms(phi, P, Q):
    """phi's forms F, G at (P, Q), expanded as sum F_i P^i Q^(d-i) term by
    term, with no row of monomials shared between the terms or the forms."""
    d = phi.degree

    def at(coeffs):
        return sum((P**i * Q ** (d - i) * c for i, c in enumerate(coeffs)), Polynomial.constant(0, P.variables))

    return at(phi.coeffs_f), at(phi.coeffs_g)


def compose(phi, psi):
    """phi after psi (x -> phi(psi(x))): phi's forms at psi's affine forms,
    by :func:`expanded_forms`."""
    return RationalMap.from_affine(*expanded_forms(phi, psi.affine_numerator(), psi.affine_denominator()))


def iterate_polynomial(f, n, var="t"):
    """f^n as a univariate polynomial in `var`, by n substitutions of f;
    requires a polynomial map."""
    coeffs = f.affine_coefficients()
    out = Polynomial.variable(var)
    for _ in range(n):
        acc = Polynomial.constant(0, (var,))
        for c in reversed(coeffs):
            acc = acc * out + c
        out = acc
    return out


def divexact(a, b):
    """The quotient a / b, raising InexactDivision unless b divides a."""
    if b.is_zero:
        raise InexactDivision("division by the zero polynomial")
    q, r = a.divmod(b)
    if not r.is_zero:
        raise InexactDivision("remainder is nonzero")
    return q


# ---------------------------------------------------------------------------
# reference expression parser: rational functions of Polynomials over Q,
# one Polynomial.constant per literal, printed through the Fraction view


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))")

_VAR_ORDER = ("t", "x", "y") + tuple(f"x{i}" for i in range(1, 17))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        if m.group("int"):
            out.append(_Token("int", m.group("int"), m.start("int")))
        elif m.group("name"):
            out.append(_Token("name", m.group("name"), m.start("name")))
        else:
            out.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    return out


def _is_one(p: Polynomial) -> bool:
    return p == Polynomial.constant(1, p.variables)


def _times(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, skipping the product when a factor is the constant 1."""
    if _is_one(b):
        return a
    return b if _is_one(a) else a * b


class _RationalFunction:
    """Exact pair num/den over a shared variable tuple.  Products by the
    constant 1 are skipped, so the denominators of a polynomial expression
    are never multiplied."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, value, variables):
        return cls(
            Polynomial.constant(value, variables),
            Polynomial.constant(1, variables),
        )

    def __add__(self, other):
        return _RationalFunction(
            _times(self.num, other.den) + _times(other.num, self.den), _times(self.den, other.den)
        )

    def __sub__(self, other):
        return _RationalFunction(
            _times(self.num, other.den) - _times(other.num, self.den), _times(self.den, other.den)
        )

    def __mul__(self, other):
        return _RationalFunction(_times(self.num, other.num), _times(self.den, other.den))

    def __truediv__(self, other):
        if other.num.is_zero:
            raise ZeroDivisionError
        return _RationalFunction(_times(self.num, other.den), _times(other.num, self.den))

    def __pow__(self, e: int):
        return _RationalFunction(self.num**e, self.den if _is_one(self.den) else self.den**e)


def _too_wide(poly: Polynomial, e: int) -> bool:
    """The grammar's bound on a power: e log2 |poly|_1 past EXACT_BITS_CAP
    (num and den have integer coefficients, as in the integer parser)."""
    norm = int(sum(map(abs, poly.terms.values())))
    return norm > 1 and (e > EXACT_BITS_CAP or e * math.log2(norm) > EXACT_BITS_CAP)


def _too_many_terms(poly: Polynomial, e: int) -> bool:
    """The grammar's bound on the terms of a power: min(C(e+n-1, n-1),
    prod_v (e deg_v + 1)) past TERM_CAP for an n-term poly."""
    terms = poly.terms
    if len(terms) < 2:
        return False
    by_degree = math.prod(e * max(column) + 1 for column in zip(*terms))
    return min(math.comb(e + len(terms) - 1, len(terms) - 1), by_degree) > TERM_CAP


def _too_high(poly: Polynomial, e: int) -> bool:
    """The grammar's bound on the degree of a power: e deg_v past EXACT_BITS_CAP for some v."""
    return any(e * max(column) > EXACT_BITS_CAP for column in zip(*poly.terms))


def _lowest(value: "_RationalFunction") -> "_RationalFunction":
    """num/den divided by the gcd of all their (integer) coefficients."""
    g = math.gcd(*(int(c) for p in (value.num, value.den) for c in p.terms.values()))
    return value if g == 1 else _RationalFunction(value.num * Fraction(1, g), value.den * Fraction(1, g))


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...], source_len: int):
        self.tokens = tokens
        self.variables = variables
        self.i = 0
        self.end = source_len

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", self.end)
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok.position)

    def parse(self) -> _RationalFunction:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.position)
        return value

    def expr(self) -> _RationalFunction:
        tok = self.peek()
        negate = False
        if tok and tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = _RationalFunction.constant(-1, self.variables) * value
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            self.take()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs

    def term(self) -> _RationalFunction:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return value
            self.take()
            rhs = self.factor()
            if tok.text == "*":
                value = value * rhs
            else:
                try:
                    value = value / rhs
                except ZeroDivisionError:
                    raise ExpressionSyntaxError("division by zero", tok.position) from None

    def factor(self) -> _RationalFunction:
        value = self.base()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok.kind != "int":
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", exp_tok.position)
            e = int(exp_tok.text)
            value = _lowest(value)
            if _too_wide(value.num, e) or _too_wide(value.den, e):
                raise ExpressionSyntaxError(f"the power may have coefficients past {EXACT_BITS_CAP} bits", tok.position)
            if _too_many_terms(value.num, e) or _too_many_terms(value.den, e):
                raise ExpressionSyntaxError(f"the power may have more than {TERM_CAP} terms", tok.position)
            if _too_high(value.num, e) or _too_high(value.den, e):
                raise ExpressionSyntaxError(f"the power has degree past {EXACT_BITS_CAP}", tok.position)
            value = value**e
        return value

    def base(self) -> _RationalFunction:
        tok = self.take()
        if tok.kind == "int":
            return _RationalFunction.constant(Fraction(int(tok.text)), self.variables)
        if tok.kind == "name":
            if tok.text not in self.variables:
                raise ExpressionSyntaxError(f"unknown variable {tok.text!r}", tok.position)
            return _RationalFunction(
                Polynomial.variable(tok.text, self.variables),
                Polynomial.constant(1, self.variables),
            )
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.position)


def _collect_variables(tokens, g: int | None) -> tuple[str, ...]:
    names = {tok.text for tok in tokens if tok.kind == "name"}
    unknown = names - set(_VAR_ORDER)
    if unknown:
        bad = sorted(unknown)[0]
        pos = next(tok.position for tok in tokens if tok.text == bad)
        raise ExpressionSyntaxError(f"unknown variable {bad!r}", pos)
    if g is not None:
        coordinates = {f"x{i}" for i in range(1, g + 1)}
        for tok in tokens:
            if tok.kind == "name" and tok.text != "t" and PLANE_ALIAS.get(tok.text, tok.text) not in coordinates:
                raise ExpressionSyntaxError(f"variable {tok.text!r} is beyond the {g} coordinate(s) of the point", tok.position)
    if "t" in names and len(names) > 1:
        pos = next(tok.position for tok in tokens if tok.kind == "name")
        raise ExpressionSyntaxError("cannot mix t with plane/space variables", pos)
    return tuple(v for v in _VAR_ORDER if v in names)


def reference_parse_expression(src: str, g: int | None = None) -> ParsedExpression:
    """Parse one expression into a map, plane curve, variety generator or scalar.

    With g, a plane or space variable must name one of the g coordinates of
    a point: x1..xg, or x and y as x1 and x2.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    variables = _collect_variables(tokens, g)
    parser = _Parser(tokens, variables or ("t",), len(src))
    value = parser.parse()
    if not variables:
        num = value.num.constant_value()
        den = value.den.constant_value()
        scalar = Fraction(num) / Fraction(den)
        return ParsedExpression("scalar", scalar, _printed(str, scalar))
    if variables == ("t",):
        try:
            phi = RationalMap.from_affine(value.num, value.den)
        except ValueError as exc:  # a constant map, the zero map, or a factor common to both sides
            raise HypothesisViolated(f"a map needs degree at least 1 in lowest terms: {exc}") from None
        return ParsedExpression("map", phi, _printed(reference_format_map, phi))
    if not value.den.is_constant():
        raise NonPolynomialWhereRequired("curve and variety expressions must be polynomial")
    den = value.den.constant_value()
    poly = value.num if den == 1 else value.num * (Fraction(1) / den)
    _, prim = poly.content_and_primitive()
    if set(variables) <= {"x", "y"}:
        curve_poly = prim.with_variables(("x", "y"))
        return ParsedExpression("curve", PlaneCurve(curve_poly), _printed(reference_format_polynomial, curve_poly))
    return ParsedExpression("variety", prim, _printed(reference_format_polynomial, prim))


def _printed(show, value) -> str:
    """show(value); a constant past the int-to-str digit limit is a syntax error."""
    try:
        return show(value)
    except ValueError:
        raise ExpressionSyntaxError("a constant has too many digits to print", 0) from None


def reference_format_map(phi: RationalMap) -> str:
    num = phi.affine_numerator()
    den = phi.affine_denominator()
    if phi.is_polynomial:
        lead = den.constant_value()
        return reference_format_polynomial(num if lead == 1 else num * Fraction(1, lead))
    return f"({reference_format_polynomial(num)})/({reference_format_polynomial(den)})"


def reference_format_polynomial(poly: Polynomial) -> str:
    """Canonical text form: terms ordered by descending exponent vector."""
    if poly.is_zero:
        return "0"
    parts = []
    terms = poly.terms
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
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
