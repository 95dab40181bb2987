"""Expression grammar shared by the CLI and the library front door.

Grammar (no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ['^' INT]
    base   := INT | NAME | '(' expr ')'

Names are the variables t (maps), x, y (plane curves) and x1..xg (variety
generators).  Every expression parses to an exact pair num/den of integer
polynomials over its variable tuple: each is a plain int when constant,
else a dict of exponent tuples to nonzero ints.  A constant factor scales
the other one, so no product has a constant operand.  The pair is reduced
only by a constant, the gcd of its coefficients, before a power, so
contexts that require a polynomial reject any nonconstant denominator as
written.  The result is built from the integers once: a scalar as one
Fraction, a map from integer coefficient lists, a curve or variety
generator as its primitive part.  A literal or a printed constant past the
interpreter's int-to-str digit limit is a syntax error, and so is a power
that may pass EXACT_BITS_CAP bits (no coefficient of a^e exceeds |a|_1^e),
TERM_CAP terms or degree EXACT_BITS_CAP in a variable, all checked before
the power is expanded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import ExpressionSyntaxError, HypothesisViolated, NonPolynomialWhereRequired
from .dynsys import EXACT_BITS_CAP, RationalMap
from .polynomials import Polynomial, format_polynomial, format_univariate
from .varieties import PLANE_ALIAS, PlaneCurve

__all__ = ["parse_expression", "parse_point", "format_map", "ParsedExpression"]

# a token is (kind, text, position); \S catches every character no other group takes
_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S)")
_END, _INT, _NAME, _OP, _BAD = 0, 1, 2, 3, 4

_VAR_ORDER = ("t", "x", "y") + tuple(f"x{i}" for i in range(1, 17))

# the most terms a power may have: its last squaring multiplies about (n/2)^2
# coefficient pairs of up to EXACT_BITS_CAP bits for an n-term result, so at
# 512 terms the widest power the bit cap lets through parses in a few seconds
TERM_CAP = 1 << 9


def _tokenize(src: str) -> list[tuple]:
    out = []
    for m in _TOKEN.finditer(src):
        if m.lastindex == _BAD:
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start())
        out.append((m.lastindex, m.group(), m.start()))
    return out


def _integer(tok) -> int:
    try:
        return int(tok[1])
    except ValueError:  # more digits than the interpreter converts
        raise ExpressionSyntaxError("integer literal has too many digits", tok[2]) from None


def _plus(a, b, zero: tuple):
    """a + b, an int when constant."""
    if type(a) is int:
        if type(b) is int:
            return a + b
        a, b = b, a
    if type(b) is int:
        if not b:
            return a
        b = {zero: b}
    out = dict(a)
    get = out.get
    for e, n in b.items():
        v = get(e, 0) + n
        if v:
            out[e] = v
        else:
            del out[e]
    if len(out) > 1 or (out and zero not in out):
        return out
    return get(zero, 0)


def _convolve(a: dict, b: dict) -> dict:
    """The product of two nonconstant polynomials, nonconstant itself."""
    out: dict = {}
    get = out.get
    for ea, na in a.items():
        for eb, nb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + na * nb
    return {e: n for e, n in out.items() if n}


def _product(a, b):
    """a * b: a constant factor scales the other, so 1 returns it unchanged."""
    if type(a) is int:
        if type(b) is int:
            return a * b
        a, b = b, a
    if type(b) is not int:
        return _convolve(a, b)
    if b == 1:
        return a
    return {e: n * b for e, n in a.items()} if b else 0


def _too_wide(a, e: int) -> bool:
    """Whether e log2 |a|_1, a bound on the bits of a^e's widest coefficient,
    passes EXACT_BITS_CAP."""
    norm = abs(a) if type(a) is int else sum(map(abs, a.values()))
    return norm > 1 and (e > EXACT_BITS_CAP or e * math.log2(norm) > EXACT_BITS_CAP)


def _too_high(a, e: int) -> bool:
    """Whether a^e has a degree past EXACT_BITS_CAP in some variable."""
    return type(a) is not int and e * max(map(max, zip(*a))) > EXACT_BITS_CAP


def _too_many_terms(a, e: int) -> bool:
    """Whether a^e may have more than TERM_CAP terms: an n-term a has at most
    min(C(e+n-1, n-1), prod_v (e deg_v(a) + 1)) terms in its power."""
    if type(a) is int or len(a) < 2:
        return False
    by_degree = math.prod(e * max(column) + 1 for column in zip(*a))
    return min(math.comb(e + len(a) - 1, len(a) - 1), by_degree) > TERM_CAP


def _lowest(num, den):
    """num/den divided by the gcd of all their coefficients, so the rules on
    a power read the same base however its sums were built."""
    g = math.gcd(*(p if type(p) is int else math.gcd(*p.values()) for p in (num, den)))
    if g == 1:
        return num, den
    return tuple(p // g if type(p) is int else {e: n // g for e, n in p.items()} for p in (num, den))


def _power(a, e: int):
    result = 1
    while e:
        if e & 1:
            result = _product(result, a)
        e >>= 1
        if e:
            a = _product(a, a)
    return result


class _Parser:
    def __init__(self, tokens: list[tuple], variables: tuple[str, ...], source_len: int):
        self.tokens = tokens + [(_END, "", source_len)]
        self.i = 0
        self.zero = (0,) * len(variables)
        self.units = {v: self.zero[:i] + (1,) + self.zero[i + 1 :] for i, v in enumerate(variables)}

    def take(self):
        tok = self.tokens[self.i]
        if tok[0] == _END:
            raise ExpressionSyntaxError("unexpected end of expression", tok[2])
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.take()
        if kind != _OP or text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> tuple:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok[0] != _END:
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> tuple:
        tok = self.tokens[self.i]
        negate = False
        if tok[0] == _OP and tok[1] in "+-":
            self.i += 1
            negate = tok[1] == "-"
        num, den = self.term()
        if negate:
            num = _product(num, -1)
        while True:
            tok = self.tokens[self.i]
            if tok[0] != _OP or tok[1] not in "+-":
                return num, den
            self.i += 1
            rnum, rden = self.term()
            if tok[1] == "-":
                rnum = _product(rnum, -1)
            if type(den) is int and den == rden:
                num = _plus(num, rnum, self.zero)
            else:
                num, den = _plus(_product(num, rden), _product(rnum, den), self.zero), _product(den, rden)

    def term(self) -> tuple:
        num, den = self.factor()
        while True:
            tok = self.tokens[self.i]
            if tok[0] != _OP or tok[1] not in "*/":
                return num, den
            self.i += 1
            rnum, rden = self.factor()
            if tok[1] == "*":
                num, den = _product(num, rnum), _product(den, rden)
            elif type(rnum) is int and not rnum:
                raise ExpressionSyntaxError("division by zero", tok[2])
            else:
                num, den = _product(num, rden), _product(den, rnum)

    def factor(self) -> tuple:
        num, den = self.base()
        tok = self.tokens[self.i]
        if tok[0] == _OP and tok[1] == "^":
            self.i += 1
            exp_tok = self.take()
            if exp_tok[0] != _INT:
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", exp_tok[2])
            e = _integer(exp_tok)
            num, den = _lowest(num, den)
            if _too_wide(num, e) or _too_wide(den, e):
                raise ExpressionSyntaxError(f"the power may have coefficients past {EXACT_BITS_CAP} bits", tok[2])
            if _too_many_terms(num, e) or _too_many_terms(den, e):
                raise ExpressionSyntaxError(f"the power may have more than {TERM_CAP} terms", tok[2])
            if _too_high(num, e) or _too_high(den, e):
                raise ExpressionSyntaxError(f"the power has degree past {EXACT_BITS_CAP}", tok[2])
            num, den = _power(num, e), _power(den, e)
        return num, den

    def base(self) -> tuple:
        tok = self.take()
        kind, text, pos = tok
        if kind == _INT:
            return _integer(tok), 1
        if kind == _NAME:
            if text not in self.units:
                raise ExpressionSyntaxError(f"unknown variable {text!r}", pos)
            return {self.units[text]: 1}, 1
        if text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExpressionSyntaxError(f"unexpected {text!r}", pos)


@dataclass(frozen=True)
class ParsedExpression:
    kind: str  # "map" | "curve" | "variety" | "scalar"
    value: object
    canonical: str


def _collect_variables(tokens, g: int | None) -> tuple[str, ...]:
    names = {text for kind, text, _ in tokens if kind == _NAME}
    if not names:
        return ()
    unknown = names.difference(_VAR_ORDER)
    if unknown:
        bad = sorted(unknown)[0]
        pos = next(pos for _, text, pos in tokens if text == bad)
        raise ExpressionSyntaxError(f"unknown variable {bad!r}", pos)
    if g is not None:
        coordinates = {f"x{i}" for i in range(1, g + 1)}
        for kind, text, pos in tokens:
            if kind == _NAME and text != "t" and PLANE_ALIAS.get(text, text) not in coordinates:
                raise ExpressionSyntaxError(f"variable {text!r} is beyond the {g} coordinate(s) of the point", pos)
    if "t" in names and len(names) > 1:
        pos = next(pos for kind, _, pos in tokens if kind == _NAME)
        raise ExpressionSyntaxError("cannot mix t with plane/space variables", pos)
    return tuple(v for v in _VAR_ORDER if v in names)


def _printed(show, value) -> str:
    try:
        return show(value)
    except ValueError:  # a constant with more digits than the interpreter converts
        raise ExpressionSyntaxError("a constant has too many digits to print", 0) from None


def _coefficients(poly, degree: int) -> list[int]:
    """Low-to-high coefficients of a polynomial in t, padded to `degree`."""
    out = [0] * (degree + 1)
    if type(poly) is int:
        out[0] = poly
    else:
        for (e,), n in poly.items():
            out[e] = n
    return out


def _map(num, den) -> RationalMap:
    why = "a map needs degree at least 1 in lowest terms"
    if type(num) is int and not num:
        raise HypothesisViolated(f"{why}: zero numerator or denominator")
    degree = max(0 if type(p) is int else max(p)[0] for p in (num, den))
    try:
        return RationalMap(_coefficients(num, degree), _coefficients(den, degree))
    except ValueError as exc:  # a constant map, or a factor common to both sides
        raise HypothesisViolated(f"{why}: {exc}") from None


def parse_expression(src: str, g: int | None = None) -> ParsedExpression:
    """Parse one expression into a map, plane curve, variety generator or scalar.

    With g, a plane or space variable must name one of the g coordinates of
    a point: x1..xg, or x and y as x1 and x2.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    variables = _collect_variables(tokens, g)
    num, den = _Parser(tokens, variables or ("t",), len(src)).parse()
    if not variables:
        scalar = Fraction(num, den)
        return ParsedExpression("scalar", scalar, _printed(str, scalar))
    if variables == ("t",):
        phi = _map(num, den)
        return ParsedExpression("map", phi, _printed(format_map, phi))
    if type(den) is not int:
        raise NonPolynomialWhereRequired("curve and variety expressions must be polynomial")
    if type(num) is int:
        num = {(0,) * len(variables): num} if num else {}
    _, prim = Polynomial._of(variables, num, 1).content_and_primitive()
    if set(variables) <= {"x", "y"}:
        curve_poly = prim.with_variables(("x", "y"))
        return ParsedExpression("curve", PlaneCurve(curve_poly), _printed(format_polynomial, curve_poly))
    return ParsedExpression("variety", prim, _printed(format_polynomial, prim))


def parse_point(src: str, what: str = "point coordinates") -> list[Fraction]:
    """Comma-separated list of rational scalars; `what` names them in errors,
    and error positions count from the start of `src`."""
    out = []
    for offset, chunk in _split_with_offsets(src, ","):
        try:
            parsed = parse_expression(chunk)
        except ExpressionSyntaxError as exc:
            raise ExpressionSyntaxError(exc.reason, exc.position + offset) from None
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
    if phi.is_polynomial:
        return format_univariate(phi.coeffs_f, phi.coeffs_g[0])
    return f"({format_univariate(phi.coeffs_f)})/({format_univariate(phi.coeffs_g)})"
