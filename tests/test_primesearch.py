from fractions import Fraction

import pytest

from orbitlang.dynsys import RationalMap
from orbitlang.errors import PeriodicCriticalPoint, PreperiodicInput
from orbitlang.primesearch import (
    JonesDensity,
    NotFound,
    PrimeCertificate,
    common_residue_search,
    find_good_prime_multi,
    find_good_prime_quadratic,
    functional_graph_cycles,
    jones_density_estimate,
    qr_filter_for_minus_one,
    replay_certificate,
)
from orbitlang.reduction import reduce_map


def test_find_good_prime_quadratic_example():
    f = RationalMap.quadratic(1)
    cert = find_good_prime_quadratic(f, [0], 100)
    assert isinstance(cert, PrimeCertificate)
    assert cert.prime == 3
    witness = cert.witnesses["critical_residue_orbit"]
    assert witness["tail"] == 2 and witness["cycle"] == [2]
    assert replay_certificate(cert, f, [0])


def test_find_good_prime_integrality_filter():
    f = RationalMap.quadratic(-2)
    cert = find_good_prime_quadratic(f, [Fraction(1, 3)], 100)
    assert isinstance(cert, PrimeCertificate)
    assert cert.prime != 3  # the point 1/3 is not 3-integral
    assert replay_certificate(cert, f, [Fraction(1, 3)])


def test_find_good_prime_not_found():
    assert isinstance(find_good_prime_quadratic(RationalMap.quadratic(2), [0], 2), NotFound)


def test_find_good_prime_rejects_periodic_critical_point():
    with pytest.raises(PeriodicCriticalPoint):
        find_good_prime_quadratic(RationalMap.quadratic(-1), [0], 100)
    with pytest.raises(PeriodicCriticalPoint):
        find_good_prime_quadratic(RationalMap.quadratic(0), [1], 100)


def test_qr_filter_examples():
    f = RationalMap.quadratic(-1)
    cert = qr_filter_for_minus_one(f, [Fraction(1, 2)], 100)
    assert isinstance(cert, PrimeCertificate)
    assert cert.prime == 5  # 3 fails because f(1/2) = -3/4 is not a 3-adic unit
    assert cert.witnesses["legendre"]["symbol"] == -1
    assert replay_certificate(cert, f, [Fraction(1, 2)])

    # 7 has 2 = 3^2 as a residue: with a point that is a unit at 3, 5, 7 the
    # search must skip 7 and every residue prime
    cert2 = qr_filter_for_minus_one(f, [Fraction(1, 7)], 100)
    assert cert2.prime == 5


def test_qr_certificate_replay_rejects_other_maps():
    cert = qr_filter_for_minus_one(RationalMap.quadratic(-1), [Fraction(1, 2)], 100)
    assert not replay_certificate(cert, RationalMap.quadratic(5), [Fraction(1, 2)])
    assert not replay_certificate(cert, RationalMap.polynomial([0, 0, 0, 1]), [Fraction(1, 2)])


def test_qr_filter_bound_and_preperiodic():
    f = RationalMap.quadratic(-1)
    assert isinstance(qr_filter_for_minus_one(f, [Fraction(1, 5)], 5), NotFound)
    with pytest.raises(PreperiodicInput):
        qr_filter_for_minus_one(f, [0], 100)


def test_common_residue_search_examples():
    f = RationalMap.quadratic(1)
    pairs = common_residue_search(f, 0, 1, 10, 4)
    assert (3, 2) in pairs  # f^2(0) - f^2(1) = 2 - 5 = -3
    assert (7, 3) in pairs  # f^3(0) - f^3(1) = 5 - 26 = -21
    assert (3, 3) in pairs
    from orbitlang.reduction import reduce_point
    from orbitlang.dynsys import iterate

    for p, n in pairs:
        assert reduce_point(iterate(f, 0, n), p) == reduce_point(iterate(f, 1, n), p)


def test_common_residue_rejects_preperiodic():
    with pytest.raises(PreperiodicInput):
        common_residue_search(RationalMap.quadratic(-1), 0, 2, 10, 4)


def test_functional_graph_cycles_cover_fixed_points():
    fv = reduce_map(RationalMap.quadratic(1), 3)
    cycles = functional_graph_cycles(fv)
    flat = {z for cy in cycles for z in cy}
    assert 2 in flat  # 2 is fixed: 2^2 + 1 = 5 = 2 mod 3
    assert None in flat  # infinity is always a fixed residue of a polynomial


def test_jones_density_example_hits():
    f = RationalMap.quadratic(1)
    density = jones_density_estimate([f], [0], 30)
    assert isinstance(density, JonesDensity)
    # orbit of 0: 1, 2, 5, 26, 677, ...: 2 | 2, 5 | 5, 13 | 26
    assert density.hits[2] and density.hits[5] and density.hits[13]
    assert not density.hits[7]  # forward orbit mod 7: 1, 2, 5, 5, ... never 0
    assert 0 < density.estimate < 1


def test_find_good_prime_multi():
    maps = [RationalMap.quadratic(1), RationalMap.quadratic(2)]
    cert = find_good_prime_multi(maps, [0, 0], 100)
    assert isinstance(cert, PrimeCertificate)
    assert replay_certificate(cert, maps, [0, 0])
    # smallest-first determinism: re-running returns the same prime
    assert find_good_prime_multi(maps, [0, 0], 100).prime == cert.prime


def test_find_good_prime_multi_with_minus_one_component():
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    cert = find_good_prime_multi(maps, [Fraction(1, 2), 0], 200)
    assert isinstance(cert, PrimeCertificate)
    assert cert.checklist["qr-filter"]


def test_find_good_prime_multi_with_minus_one_component_replays():
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    points = [Fraction(1, 2), 0]
    cert = find_good_prime_multi(maps, points, 200)
    assert replay_certificate(cert, maps, points)


def _multi_certificate(p):
    checks = ("good-reduction", "points-p-integral", "zero-off-forward-residue-orbits", "qr-filter")
    return PrimeCertificate(p, "multi-quadratic", dict.fromkeys(checks, True), {"residue_orbits": {}})


def test_multi_replay_applies_the_qr_filter():
    # 2 is a square mod 31, so the search skips 31 when some map is t^2 - 1
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(1)]
    points = [Fraction(5, 2), 1]
    assert pow(2, 15, 31) == 1
    assert not replay_certificate(_multi_certificate(31), maps, points)


def test_multi_replay_requires_p_integral_points():
    maps = [RationalMap.quadratic(-1), RationalMap.quadratic(2)]
    points = [3, Fraction(1, 5)]
    assert find_good_prime_multi(maps, points, 5) == NotFound(5)
    assert not replay_certificate(_multi_certificate(5), maps, points)
