"""Expression grammar shared by the CLI and the library front door.

Grammar (no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ['^' INT]
    base   := INT | NAME | '(' expr ')'

Names are the variables t (maps), x, y (plane curves) and x1..xg (variety
generators).  Every expression parses to an exact rational-function pair;
contexts that require a polynomial reject nonconstant denominators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExpressionSyntaxError, HypothesisViolated, NonPolynomialWhereRequired
from .dynsys import RationalMap
from .polynomials import Polynomial, format_polynomial
from .varieties import PLANE_ALIAS, PlaneCurve

__all__ = ["parse_expression", "parse_point", "format_map", "ParsedExpression"]

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
            value = value ** int(exp_tok.text)
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


@dataclass(frozen=True)
class ParsedExpression:
    kind: str  # "map" | "curve" | "variety" | "scalar"
    value: object
    canonical: str


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


def parse_expression(src: str, g: int | None = None) -> ParsedExpression:
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
        return ParsedExpression("scalar", scalar, str(scalar))
    if variables == ("t",):
        try:
            phi = RationalMap.from_affine(value.num, value.den)
        except ValueError as exc:  # a constant map, the zero map, or a factor common to both sides
            raise HypothesisViolated(f"a map needs degree at least 1 in lowest terms: {exc}") from None
        return ParsedExpression("map", phi, format_map(phi))
    if not value.den.is_constant():
        raise NonPolynomialWhereRequired("curve and variety expressions must be polynomial")
    den = value.den.constant_value()
    poly = value.num if den == 1 else value.num * (Fraction(1) / den)
    _, prim = poly.content_and_primitive()
    if set(variables) <= {"x", "y"}:
        curve_poly = prim.with_variables(("x", "y"))
        return ParsedExpression("curve", PlaneCurve(curve_poly), format_polynomial(curve_poly))
    return ParsedExpression("variety", prim, format_polynomial(prim))


def parse_point(src: str, what: str = "point coordinates") -> list[Fraction]:
    """Comma-separated list of rational scalars; `what` names them in errors."""
    out = []
    for offset, chunk in _split_with_offsets(src, ","):
        parsed = parse_expression(chunk)
        if parsed.kind != "scalar":
            raise ExpressionSyntaxError(f"{what} must be rational constants", offset)
        out.append(parsed.value)
    return out


def _split_with_offsets(src: str, sep: str):
    start = 0
    for part in src.split(sep):
        yield start, part
        start += len(part) + 1


def format_map(phi: RationalMap) -> str:
    num = phi.affine_numerator()
    den = phi.affine_denominator()
    if phi.is_polynomial:
        lead = den.constant_value()
        return format_polynomial(num if lead == 1 else num * Fraction(1, lead))
    return f"({format_polynomial(num)})/({format_polynomial(den)})"
