import math
import random
from fractions import Fraction

import pytest

from orbitlang.analytic import (
    IdenticallyZeroAtPrecision,
    MahlerSeries,
    NonzeroWitness,
    TruncatedPadicSeries,
    certify_vanishing,
    orbit_interpolate,
    residue_disk_quasiperiodic,
    strassmann_count,
)
from orbitlang.dynsys import RationalMap, iterate
from orbitlang import analytic
from orbitlang.errors import InsufficientPrecision, InvalidOption, NotQuasiperiodic, VerificationFailed, ZeroSeries
from orbitlang.padics import residue, valuation
from orbitlang.polynomials import Polynomial
from orbitlang.reduction import reduce_map

from oracles import hensel_zp_root_count


def series(coeffs, p, M=16, tail=math.inf):
    return TruncatedPadicSeries.from_rationals(coeffs, p, M, tail)


def test_strassmann_unit_series():
    # 1 + p t + p^2 t^2 + ...: maximum uniquely at index 0
    p = 5
    s = series([1, p, p**2, p**3], p, tail=4)
    assert strassmann_count(s) == 0


def test_strassmann_t2_minus_t():
    for p in (3, 5, 7):
        assert strassmann_count(series([0, -1, 1], p)) == 2


def test_strassmann_counts_disk_zeros_not_zp_zeros():
    # t^2 - 3 over Z_3: two unit-disk roots in C_3, none in Z_3
    s = series([-3, 0, 1], 3)
    assert strassmann_count(s) == 2
    assert hensel_zp_root_count([-3, 0, 1], 3) == 0


def poly_from_roots(roots):
    poly = [1]
    for r in roots:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c * (-r)
            nxt[i + 1] += c
        poly = nxt
    return poly


def test_strassmann_matches_hensel_on_split_roots():
    rng = random.Random(2)
    for p in (3, 5, 7):
        roots = rng.sample(range(1, p), min(2, p - 1))
        poly = poly_from_roots(roots)
        assert strassmann_count(series(poly, p)) == len(roots)
        assert hensel_zp_root_count(poly, p) == len(roots)


def test_strassmann_errors():
    with pytest.raises(ZeroSeries):
        strassmann_count(series([0, 0], 5))
    with pytest.raises(InsufficientPrecision):
        strassmann_count(TruncatedPadicSeries.from_rationals([1, 5], 5, 16, tail_valuation=None))
    with pytest.raises(InsufficientPrecision):
        strassmann_count(TruncatedPadicSeries.from_rationals([5, 25], 5, 16, tail_valuation=1))


def poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_strassmann_product_additivity():
    p = 5
    a = [0, -1, 1]  # 2 zeros
    b = [1, p]  # 0 zeros
    c = [-2, 1]  # 1 zero
    assert strassmann_count(series(poly_product(a, b), p)) == 2
    assert strassmann_count(series(poly_product(a, c), p)) == 3
    assert strassmann_count(series(poly_product(b, c), p)) == 1


def test_residue_disk_certificate():
    p = 3
    f = RationalMap.quadratic(1)
    fv = reduce_map(f, p)
    ok, reason, lam = residue_disk_quasiperiodic(fv, 2, 1)  # 2 is fixed mod 3 with f'(2) = 4 = 1
    assert ok and lam == 1
    bad, reason, lam = residue_disk_quasiperiodic(reduce_map(RationalMap.quadratic(-1), 3), 0, 2)
    assert not bad and reason == "attracting residue class"


def test_modular_orbit_matches_exact():
    p, M = 5, 12
    f = RationalMap.quadratic(Fraction(3, 2))
    fm = reduce_map(f, p, M)
    value = residue(Fraction(1, 3), p**M)
    for n in range(8):
        exact = iterate(f, Fraction(1, 3), n).as_fraction()
        expected = exact.numerator * pow(exact.denominator, -1, p**M) % p**M
        assert value == expected
        value = fm.apply(value)


def test_orbit_interpolate_scaling_map_binomial_coefficients():
    for p in (3, 5):
        phi = RationalMap.polynomial([0, 1 + p])
        theta = orbit_interpolate(phi, 1, 1, 0, prime=p, order=20, precision=40)
        mod = p**40
        for j in range(21):
            assert theta.residues[j] == pow(p, j, mod)


def test_orbit_interpolate_fixed_point():
    p = 7
    f = RationalMap.quadratic(0)
    theta = orbit_interpolate(f, 1, 1, 0, prime=p, order=8, precision=12)
    assert theta.residues[0] == 1
    assert all(r == 0 for r in theta.residues[1:])


def test_orbit_interpolate_matches_iteration():
    p = 5
    f = RationalMap.quadratic(-1)  # x = 1/2 reduces to 3, a fixed indifferent residue
    x = Fraction(1, 2)
    theta = orbit_interpolate(f, x, 1, 0, prime=p, order=16, precision=24)
    mod = p**24
    for n in range(17):
        exact = iterate(f, x, n).as_fraction()
        assert theta.evaluate_residue(n) == exact.numerator * pow(exact.denominator, -1, mod) % mod


def test_orbit_interpolate_rejects_a_series_that_misses_one_sample(monkeypatch):
    # the series is built from samples with one of them off by one, so the
    # self-check's rebuilt samples differ from the orbit's at that index
    build = analytic.MahlerSeries

    def off_at_five(prime, precision, step, offset, samples):
        samples = list(samples)
        samples[5] += 1
        return build(prime, precision, step, offset, samples)

    f, x = RationalMap.quadratic(-1), Fraction(1, 2)
    monkeypatch.setattr(analytic, "MahlerSeries", off_at_five)
    with pytest.raises(VerificationFailed, match="n=5"):
        orbit_interpolate(f, x, 1, 0, prime=5, order=16, precision=24)
    monkeypatch.undo()

    # the check builds no exact binomials: it never evaluates the series
    def no_evaluation(self, n):
        raise AssertionError("series evaluated")

    monkeypatch.setattr(MahlerSeries, "evaluate_residue", no_evaluation)
    assert orbit_interpolate(f, x, 1, 0, prime=5, order=16, precision=24).samples[5] == residue(
        iterate(f, x, 5).as_fraction(), 5**24
    )


def test_orbit_interpolate_requires_unit_multiplier():
    with pytest.raises(NotQuasiperiodic):
        orbit_interpolate(RationalMap.quadratic(-1), Fraction(1, 2), 2, 0, prime=3, order=4, precision=8)


def test_orbit_interpolate_bounds_its_difference_table():
    # at p = 3 and M = 64 an entry has up to 102 + order bits: 1592^2 * 1693 passes 2^32
    f = RationalMap.quadratic(1)
    assert 1592**2 * (102 + 1591) <= analytic.DIFFERENCE_TABLE_BITS_CAP < 1593**2 * (102 + 1592)
    assert orbit_interpolate(f, 0, 1, 2, prime=3, order=1591, precision=64).order == 1591
    with pytest.raises(InvalidOption, match="--order 1592 at prime 3 and precision 64"):
        orbit_interpolate(f, 0, 1, 2, prime=3, order=1592, precision=64)


def test_orbit_interpolate_bounds_its_walk():
    # at p = 3 and M = 1000 a step has 1,585 bits: 2 + 10*1000 steps fit the cap, 2 + 11*1000 do not
    f = RationalMap.quadratic(1)
    assert (2 + 10 * 1000) * 1585 <= analytic.WALK_BITS_CAP < (2 + 11 * 1000) * 1585
    theta = orbit_interpolate(f, 0, 1000, 2, prime=3, order=10, precision=1000)
    phi_m, value, orbit = reduce_map(f, 3, 1000), 0, []
    for _ in range(2 + 10 * 1000):
        orbit.append(value)
        value = phi_m.apply(value)
    assert theta.samples == tuple(orbit[2::1000]) + (value,)
    with pytest.raises(InvalidOption, match="--order 11 at prime 3, --precision 1000 and class modulus 1000"):
        orbit_interpolate(f, 0, 1000, 2, prime=3, order=11, precision=1000)


def test_mahler_coefficient_valuations_grow_with_step_valuation():
    # step k = p on the scaling map: coefficients ((1+p)^p - 1)^j have valuation 2j
    p = 3
    phi = RationalMap.polynomial([0, 1 + p])
    theta = orbit_interpolate(phi, 1, p, 0, prime=p, order=10, precision=30)
    for j, r in enumerate(theta.residues):
        assert valuation(r, p) >= 2 * j  # v(0) = +inf


def test_mahler_rebuild_inverts_finite_differences():
    rng = random.Random(6)
    p, M = 7, 10
    samples = [rng.randrange(p**M) for _ in range(12)]
    theta = MahlerSeries(p, M, 1, 0, samples)
    for n, s in enumerate(samples):
        assert theta.evaluate_residue(n) == s


def test_certify_vanishing_fixed_point():
    p = 7
    f = RationalMap.quadratic(0)
    theta = orbit_interpolate(f, 1, 1, 0, prime=p, order=8, precision=12)
    F = Polynomial(("x",), {(1,): 1, (0,): -1})  # x - 1
    verdict = certify_vanishing(F, [theta])
    assert isinstance(verdict, IdenticallyZeroAtPrecision)


def test_certify_vanishing_witness():
    p = 3
    f = RationalMap.quadratic(1)
    t1 = orbit_interpolate(f, 2, 1, 2, prime=p, order=6, precision=10)
    t2 = orbit_interpolate(f, 5, 1, 2, prime=p, order=6, precision=10)
    F = Polynomial(("x", "y"), {(1, 0): 1, (0, 1): -1})  # x - y
    verdict = certify_vanishing(F, [t1, t2])
    assert verdict == NonzeroWitness(0)
    # a witness always certifies an exact nonzero value at that sample index
    exact = iterate(f, 2, 2).as_fraction() - iterate(f, 5, 2).as_fraction()
    assert exact != 0


def test_certify_vanishing_invariant_graph():
    p = 3
    f = RationalMap.quadratic(1)
    x0 = Fraction(2)
    # both coordinates sampled along the residue cycle: offsets aligned
    t_x = orbit_interpolate(f, x0, 1, 2, prime=p, order=10, precision=20)
    t_y = orbit_interpolate(f, iterate(f, x0, 1).as_fraction(), 1, 2, prime=p, order=10, precision=20)
    # y - f(x) vanishes along the orbit of (x0, f(x0))
    F = Polynomial(("x", "y"), {(0, 1): 1, (2, 0): -1, (0, 0): -1})
    verdict = certify_vanishing(F, [t_x, t_y])
    assert isinstance(verdict, IdenticallyZeroAtPrecision)
