from fractions import Fraction

import pytest

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
    products = []
    mul = Polynomial.__mul__

    def recorded(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    parsed = parse_expression("(x1 + 2)^3*x2 - x1/2 + 1")
    monkeypatch.undo()
    one = Polynomial.constant(1, ("x1", "x2"))
    assert products
    assert not any(p == one for pair in products for p in pair)
    x1, x2 = Polynomial.variable("x1", ("x1", "x2")), Polynomial.variable("x2", ("x1", "x2"))
    assert parsed.value == ((x1 + 2) ** 3 * x2 - x1 * Fraction(1, 2) + 1) * 2
