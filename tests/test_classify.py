import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlang.classify import (
    _integer_kth_root,
    ChebyshevConjugate,
    Decomposition,
    Indecomposable,
    Neither,
    NotPeriodicUpTo,
    PeriodicWithPeriod,
    PowerConjugate,
    chebyshev,
    decompose,
    normal_form,
    periodic_curve_candidates,
    power_or_chebyshev_class,
    rational_periodic_points,
    type_of,
    verify_invariant_curve,
)
from orbitlang.errors import HypothesisViolated, ReducibleInput, RootNotRational
from orbitlang.polynomials import Polynomial
from orbitlang.varieties import PlaneCurve


def upoly(coeffs):
    return Polynomial.univariate([Fraction(c) for c in coeffs], "t")


def plane(terms):
    return Polynomial(("x", "y"), terms)


def test_normal_form_example():
    record = normal_form(upoly([0, 4, 2]))  # 2t^2 + 4t
    assert record.normal == upoly([-2, 0, 1])  # t^2 - 2
    assert (record.scale, record.shift) == (Fraction(1, 2), Fraction(-1))


def test_normal_form_identity_and_idempotence():
    record = normal_form(upoly([0, 1, 0, 1]))  # t^3 + t already normal
    assert record.normal == upoly([0, 1, 0, 1])
    assert (record.scale, record.shift) == (1, 0)
    again = normal_form(record.normal)
    assert (again.scale, again.shift) == (1, 0)


def test_normal_form_root_not_rational():
    with pytest.raises(RootNotRational):
        normal_form(upoly([0, 0, 0, 2]))  # 2t^3 needs sqrt(1/2)


def test_type_examples():
    assert type_of(upoly([0, 0, 0, 1, 0, 1])) == (3, 2)  # t^5 + t^3
    assert type_of(upoly([0, 0, 0, 0, 1])) == (4, 0)  # pure power sentinel
    assert type_of(chebyshev(3)) == (1, 2)  # t^3 - 3t
    assert type_of(upoly([1, 0, 1])) == (0, 2)  # t^2 + 1


def test_chebyshev_small_values():
    assert chebyshev(0) == upoly([2])
    assert chebyshev(1) == upoly([0, 1])
    assert chebyshev(2) == upoly([-2, 0, 1])
    assert chebyshev(3) == upoly([0, -3, 0, 1])


def test_chebyshev_defining_identity():
    t = sympy.Symbol("t")
    for m in range(13):
        Dm = chebyshev(m).to_sympy().as_expr()
        lhs = sympy.expand(Dm.subs(t, t + 1 / t) * t**m)
        rhs = sympy.expand(t ** (2 * m) + 1)
        assert sympy.simplify(lhs - rhs) == 0


def test_chebyshev_relates_to_classical():
    # D_3(2t) = 2 T_3(t) with T_3 = 4t^3 - 3t
    t = sympy.Symbol("t")
    d3 = chebyshev(3).to_sympy().as_expr().subs(t, 2 * t)
    assert sympy.expand(d3 - 2 * (4 * t**3 - 3 * t)) == 0


def test_power_chebyshev_class_examples():
    assert power_or_chebyshev_class(upoly([-2, 0, 1])) == ChebyshevConjugate(2)
    assert power_or_chebyshev_class(upoly([0, 4, 2])) == ChebyshevConjugate(2)
    assert power_or_chebyshev_class(upoly([1, 0, 1])) == Neither()
    assert power_or_chebyshev_class(upoly([0, 0, 1])) == PowerConjugate(2)


def test_class_invariant_under_random_conjugation():
    rng = random.Random(17)
    t = Polynomial.variable("t")
    for m in (2, 3, 4):
        base_power = Polynomial(("t",), {(m,): 1})
        base_cheb = chebyshev(m)
        for _ in range(10):
            A = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 2, 5]))
            B = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            mu = t * A + B
            mu_inv = (t - B) * (1 / A)
            for base, expected in ((base_power, PowerConjugate(m)), (base_cheb, ChebyshevConjugate(m))):
                conj = mu_inv.substitute({"t": base.substitute({"t": mu})})
                assert power_or_chebyshev_class(conj) == expected
            perturbed = base_cheb + Polynomial(("t",), {(0,): Fraction(1, 7)})
            assert power_or_chebyshev_class(perturbed) == Neither()


def test_decompose_examples():
    result = decompose(upoly([0, 0, 1, 0, 1]))  # t^4 + t^2
    assert isinstance(result, Decomposition)
    assert result.inner == upoly([0, 0, 1])
    assert result.outer == upoly([0, 1, 1])

    assert isinstance(decompose(upoly([0, 1, 0, 0, 1])), Indecomposable)  # t^4 + t
    for p in (2, 3, 5, 7):
        coeffs = [0] * p + [1]
        assert isinstance(decompose(upoly(coeffs)), Indecomposable)


def test_decompose_composition_round_trip():
    rng = random.Random(23)
    t = Polynomial.variable("t")
    for _ in range(10):
        g = upoly([rng.randint(-3, 3), rng.randint(-3, 3), 1])
        h = upoly([0, rng.randint(-3, 3), 1])
        f = g.substitute({"t": h})
        result = decompose(f)
        assert isinstance(result, Decomposition)
        assert result.outer.substitute({"t": result.inner}) == f


def exhaustive_degree4_decomposable(f):
    """Oracle: solve the full coefficient system for f = g(h) in degree 4."""
    a, b, c, d = sympy.symbols("a b c d")
    t = sympy.Symbol("t")
    g = a * t**2 + b * t + c
    h = t**2 + d * t
    target = f.to_sympy().as_expr()
    eqs = sympy.Poly(sympy.expand(g.subs(t, h) - target), t).all_coeffs()
    return bool(sympy.solve(eqs, [a, b, c, d], dict=True))


def test_decompose_agrees_with_exhaustive_oracle_degree4():
    rng = random.Random(31)
    for _ in range(20):
        f = upoly([rng.randint(-4, 4) for _ in range(4)] + [1])
        ours = decompose(f)
        oracle = exhaustive_degree4_decomposable(f)
        assert isinstance(ours, Decomposition) == oracle, f


def test_rational_periodic_points():
    pts = rational_periodic_points(upoly([0, 1, 0, 1]))  # t^3 + t
    assert pts == {Fraction(0): 1}
    pts2 = rational_periodic_points(upoly([-1, 0, 1]))  # t^2 - 1 has the 2-cycle {0, -1}
    assert pts2[Fraction(0)] == 2 and pts2[Fraction(-1)] == 2


def test_periodic_curve_candidates_cubic():
    cands = periodic_curve_candidates(upoly([0, 1, 0, 1]), r_max=1)
    forms = {(c.form, str(c.parameters.get("zeta"))) for c in cands}
    assert ("y-of-x", "-1") in forms  # y = -f(x) is allowed: type (1, 2)
    diagonals = [c for c in cands if c.curve == PlaneCurve(plane({(1, 0): 1, (0, 1): -1}))]
    assert diagonals  # r = 0, zeta = 1
    verticals = [c for c in cands if c.form == "x-const"]
    assert verticals and verticals[0].parameters["point"] == 0


def test_periodic_curve_candidates_zeta_restriction():
    cands = periodic_curve_candidates(upoly([1, 0, 1]), r_max=1)  # type (0, 2): zeta = 1 only
    assert all(c.parameters.get("zeta", Fraction(1)) == 1 for c in cands)


def test_periodic_curve_candidates_hypotheses():
    with pytest.raises(HypothesisViolated):
        periodic_curve_candidates(upoly([-2, 0, 1]), 1)  # Chebyshev
    with pytest.raises(HypothesisViolated):
        periodic_curve_candidates(upoly([0, 0, 1, 0, 1]), 1)  # decomposable


def test_verify_invariant_curve_graph():
    f = upoly([1, 0, 1])
    graph = PlaneCurve(plane({(0, 1): 1, (2, 0): -1, (0, 0): -1}))  # y = f(x)
    result = verify_invariant_curve(graph, f, 3)
    assert isinstance(result, PeriodicWithPeriod) and result.period == 1


def test_verify_invariant_curve_preperiodic_example():
    f = upoly([0, 0, 1])  # t^2
    anti_diagonal = PlaneCurve(plane({(1, 0): 1, (0, 1): 1}))  # x + y = 0
    result = verify_invariant_curve(anti_diagonal, f, 4)
    assert isinstance(result, NotPeriodicUpTo)
    # the image chain stabilizes at the diagonal
    diag = plane({(1, 0): 1, (0, 1): -1})
    assert result.chain[1] == diag and result.chain[2] == diag


def test_verify_invariant_curve_odd_twist():
    f = upoly([0, 1, 0, 1])
    twisted = PlaneCurve(plane({(0, 1): 1, (1, 0): 1, (3, 0): 1}))  # y + f(x) = 0
    result = verify_invariant_curve(twisted, f, 3)
    assert isinstance(result, PeriodicWithPeriod) and result.period == 1


def test_verify_invariant_curve_rejects_reducible():
    with pytest.raises(ReducibleInput):
        verify_invariant_curve(PlaneCurve(plane({(2, 0): 1, (0, 2): -1})), upoly([0, 0, 1]), 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**500 - 1), st.integers(2, 5))
def test_integer_kth_root_is_exact_at_any_size(r, k):
    # from r = 1 on: 0^k + 1 = 1^k is a k-th power
    assert _integer_kth_root(r**k, k) == r
    assert _integer_kth_root(r**k + 1, k) is None
