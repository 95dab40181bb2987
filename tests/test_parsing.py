from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_parse_expression
from orbitlang import parsing
from orbitlang.dynsys import RationalMap
from orbitlang.errors import ExpressionSyntaxError, NonPolynomialWhereRequired
from orbitlang.parsing import format_map, parse_expression, parse_point
from orbitlang.polynomials import Polynomial
from orbitlang.varieties import PlaneCurve


def test_parse_quadratic_map():
    parsed = parse_expression("t^2-1")
    assert parsed.kind == "map"
    assert parsed.value == RationalMap.quadratic(-1)
    assert parsed.canonical == "t^2 - 1"


def test_parse_rational_map():
    parsed = parse_expression("(t^2+1)/t")
    assert parsed.kind == "map"
    assert not parsed.value.is_polynomial


def test_parse_curve():
    parsed = parse_expression("y - (x^2-1)")
    assert parsed.kind == "curve"
    assert isinstance(parsed.value, PlaneCurve)
    assert parsed.value.poly.evaluate({"x": 3, "y": 8}) == 0


def test_parse_variety_generator():
    parsed = parse_expression("x1 - x3^2")
    assert parsed.kind == "variety"
    assert parsed.value.variables == ("x1", "x3")


def test_parse_scalar_and_points():
    assert parse_expression("3/4").value == Fraction(3, 4)
    assert parse_point("0, 1/2 , -2") == [0, Fraction(1, 2), -2]


def test_parse_division_by_zero_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("t^2 - 1/0")
    assert err.value.position == 7  # the offending division operator


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("t^2 + $")
    assert err.value.position == 6
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t +")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(t + 1")


def test_parse_rejects_mixed_variables():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t + x")


def test_parse_rejects_rational_curve():
    with pytest.raises(NonPolynomialWhereRequired):
        parse_expression("y - 1/x")


def test_round_trip_canonical_forms():
    for src in ("t^2 - 1", "t^3 + 2*t - 1/3", "x^2 - 2*x*y + 1/3", "y - x^2 - 1", "(t^2 + 1)/(t^2 - 1)"):
        first = parse_expression(src)
        again = parse_expression(first.canonical)
        assert again.canonical == first.canonical
        if first.kind == "map":
            assert again.value == first.value
        elif first.kind in ("curve",):
            assert again.value == first.value


def test_format_map_polynomial_with_denominator():
    phi = RationalMap.polynomial([Fraction(3, 2), 0, 1])
    assert parse_expression(format_map(phi)).value == phi


def test_polynomial_expressions_never_multiply_by_the_constant_one(monkeypatch):
    # constants are ints that scale the other factor, so every polynomial
    # product has two nonconstant operands and none is the constant 1
    products = []
    convolve = parsing._convolve

    def recorded(a, b):
        products.append((a, b))
        return convolve(a, b)

    monkeypatch.setattr(parsing, "_convolve", recorded)
    src = "(x1 + 2)^3*x2 - x1/2 + 1"
    parsed = parse_expression(src)
    monkeypatch.undo()
    assert products
    assert all(isinstance(p, dict) and any(map(any, p)) for pair in products for p in pair)
    x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
    assert parsed.value == ((x1 + 2) ** 3 * x2 - x1 * Fraction(1, 2) + 1) * 2
    assert parsed == reference_parse_expression(src)


def test_parsing_a_variety_makes_no_constant_polynomial_or_fraction_per_token(monkeypatch):
    # a decide-scan graph generator: the integer grammar builds no
    # Polynomial.constant, and one Fraction in all, the content
    calls = []
    constant = Polynomial.constant.__func__
    new = Fraction.__new__

    def recorded_constant(cls, *args, **kwargs):
        calls.append("constant")
        return constant(cls, *args, **kwargs)

    def recorded_fraction(cls, *args, **kwargs):
        calls.append("Fraction")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "constant", classmethod(recorded_constant))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(recorded_fraction))
    src = "(1)*x2^1 + (-1)*x1^4 + (-4)*x1^2 + (3/2)*x1 + (-6)"
    parsed = parse_expression(src, 2)
    monkeypatch.undo()
    assert calls == ["Fraction"]
    assert parsed == reference_parse_expression(src, 2)
    assert parsed.canonical == "2*x1^4 + 8*x1^2 - 3*x1 - 2*x2 + 12"


@pytest.mark.parametrize("src, position", [("1,2+", 4), ("1,,2", 2), ("0, 1/0", 4)])
def test_point_error_positions_count_from_the_whole_string(src, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_point(src)
    assert err.value.position == position
    assert str(err.value).endswith(f"(at position {position})")


@pytest.mark.parametrize(
    "src, position",
    [("x1 - " + "7" * 4400, 5), ("t^" + "2" * 4400, 2), ("2^20000", 0), ("1/3^10000", 0)],
    ids=["literal", "exponent-literal", "printed-power", "printed-denominator"],
)
def test_constants_past_the_digit_limit_are_syntax_errors(default_digit_limit, src, position):
    # int() of the literal, or str() of the canonical form, used to raise ValueError
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(src)
    assert err.value.position == position


@pytest.mark.parametrize("src, position", [("(t+1)^65537", 5), ("x1 - 2^100000000", 6), ("(1/3)^41400", 5)])
def test_a_power_past_the_exact_cap_is_a_syntax_error_at_its_caret(src, position):
    # |a|_1^e bounds the coefficients of a^e: 2^65537, 2^100000000 and 3^41400 pass 2^65536
    with pytest.raises(ExpressionSyntaxError, match="past 65536 bits") as err:
        parse_expression(src)
    assert err.value.position == position
    assert _outcome(parse_expression, src, None) == _outcome(reference_parse_expression, src, None)


@pytest.mark.parametrize(
    "src, position", [("(t+1)^65536", 5), ("(x1 + x2 + x3)^31", 14), ("(1/(t+1))^512", 9), ("2*(t^2+t+1)^256", 11)]
)
def test_a_power_past_the_term_cap_is_a_syntax_error_at_its_caret(src, position):
    # (t+1)^65536 passes the bit bound at exactly 65,536 bits, and squaring its
    # 32,769-term half ran for minutes; C(33, 2) = 528 and 2 * 256 + 1 = 513 pass 512
    with pytest.raises(ExpressionSyntaxError, match="more than 512 terms") as err:
        parse_expression(src, 3)
    assert err.value.position == position
    assert _outcome(parse_expression, src, 3) == _outcome(reference_parse_expression, src, 3)


@pytest.mark.parametrize("src", ["t^65536", "(t+1)^511", "(x1 + x2 + x3)^30", "(x1*x2*x3 + 1)^511"])
def test_a_power_within_the_term_cap_parses(src):
    # a one-term base has one term in every power; C(32, 2) = 496
    assert parse_expression(src, 3).kind in ("map", "variety")


@pytest.mark.parametrize(
    "src, position", [("t^65537", 1), ("t^1000000000", 1), ("(1/t)^65537", 5), ("x1 + (x2*x3^2)^32769", 14)]
)
def test_a_power_past_the_degree_cap_is_a_syntax_error_at_its_caret(src, position):
    # a one-term base passes the bit and term bounds: t^1000000 built a
    # million-entry coefficient list, and t^1000000000 would take about 8 GB
    with pytest.raises(ExpressionSyntaxError, match="degree past 65536") as err:
        parse_expression(src, 3)
    assert err.value.position == position
    assert _outcome(parse_expression, src, 3) == _outcome(reference_parse_expression, src, 3)


# expressions drawn from the grammar, spelled out from one list of choices:
# the literals 0..3 and 12 and the context's names, powers, products and
# quotients, sums with a leading sign, and parentheses nested two deep; only
# the innermost groups take a power, which keeps every product small.  Two
# in three get one character inserted or deleted, which reaches the syntax
# errors.
_CONTEXTS = {"map": ("t",), "curve": ("x", "y"), "variety": ("x1", "x2", "x3"), "scalar": (), "mixed": ("t", "x", "x4", "z")}


def _spelled(names, choices) -> str:
    stream = iter(choices)

    def pick(options):
        return options[next(stream, 0) % len(options)]

    def space():
        return pick(["", "", " "])

    def base(depth):
        if depth and pick([False, False, True]):
            return f"({expr(depth - 1)})" + (pick(["", "^0", "^2"]) if depth == 1 else "")
        leaf = pick(names) if names and pick([True, False]) else str(pick([0, 1, 2, 3, 12]))
        return leaf + pick(["", "", "^0", "^1", "^3"])

    def term(depth):
        text = base(depth)
        if pick([False, True]):
            text += space() + pick("*/") + space() + base(depth)
        return text

    def expr(depth):
        text = pick(["", "-", "+"]) + term(depth)
        for _ in range(pick([0, 1, 2])):
            text += space() + pick("+-") + space() + term(depth)
        return text

    return expr(2)


@st.composite
def _expressions(draw):
    names = _CONTEXTS[draw(st.sampled_from(sorted(_CONTEXTS)))]
    src = _spelled(names, draw(st.lists(st.integers(0, 255), max_size=80)))
    edit = draw(st.sampled_from(["none", "insert", "delete"]))
    if edit != "none":
        i = draw(st.integers(0, len(src) - 1))
        src = src[:i] + draw(st.sampled_from("()+-*/^ 0t$")) + src[i:] if edit == "insert" else src[:i] + src[i + 1 :]
    return src, draw(st.sampled_from([None, 1, 2, 3]))


def _outcome(parse, src, g):
    try:
        parsed = parse(src, g)
    except Exception as exc:  # the two parsers must fail alike, traceback types included
        return type(exc), getattr(exc, "code", None), getattr(exc, "position", None), str(exc)
    return parsed.kind, parsed.value, parsed.canonical


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_expressions())
@example(("1/t + 1/t", None))  # equal denominators that are not constants
@example(("(t^2 - t)/(t - 1)", None))  # a common factor, never cancelled
@example(("1/(t - t)", None))  # a divisor that cancels to zero
@example(("x1 - x1 + 3", 2))  # a sum that cancels to a constant
@example(("(1/x)^0 + x", None))  # a power that makes the denominator constant
@example(("(6/9)^40000", None))  # powers of one constant base, sized in lowest terms
@example(("(2/3)^40000", None))
@example(("(1/3+1/3)^40000", None))  # 2/3 in one parser, 6/9 in the other, before the power
@example(("t^65536", None))  # the largest degree a power may have
@example(("t^65537", None))
@example(("(1/t)^65537", None))  # a denominator's degree
@example(("(x1^2*x2)^32768 - (x3^2)^32769", 3))
def test_integer_grammar_agrees_with_the_reference_parser(case):
    # 600 examples in about 1.1 s (Python 3.11.7, shared 2-core machine)
    src, g = case
    assert _outcome(parse_expression, src, g) == _outcome(reference_parse_expression, src, g)
