import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlang.dynsys import RationalMap
from orbitlang.errors import HypothesisViolated, PeriodicCriticalPoint, PreperiodicInput
from orbitlang.parsing import parse_expression, parse_point
from orbitlang.primesearch import (
    JonesDensity,
    NotFound,
    PrimeCertificate,
    find_good_prime,
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


def _tampered(cert, checklist=None, **witnesses):
    return PrimeCertificate(cert.prime, cert.kind, {**cert.checklist, **(checklist or {})}, {**cert.witnesses, **witnesses})


def test_replay_rejects_tampered_witnesses_and_checklists():
    f = RationalMap.quadratic(1)
    quadratic = find_good_prime_quadratic(f, [0], 100)
    derivatives = quadratic.witnesses["periodic_residue_derivatives"]
    qr = qr_filter_for_minus_one(RationalMap.quadratic(-1), [Fraction(1, 2)], 100)
    multi_maps = [RationalMap.quadratic(1), RationalMap.quadratic(2)]
    multi = find_good_prime_multi(multi_maps, [0, 0], 100)
    cases = [
        (_tampered(quadratic, points=["1"]), f, [0]),
        (_tampered(quadratic, periodic_residue_derivatives={**derivatives, next(iter(derivatives)): 0}), f, [0]),
        (_tampered(qr, unit_valuations={}), RationalMap.quadratic(-1), [Fraction(1, 2)]),
        (_tampered(multi, residue_orbits={}), multi_maps, [0, 0]),
        (_tampered(quadratic, checklist={"two-is-unit": False}), f, [0]),
        (PrimeCertificate(9, quadratic.kind, quadratic.checklist, quadratic.witnesses), f, [0]),
    ]
    for cert, maps, points in cases:
        assert not replay_certificate(cert, maps, points)


def test_single_map_multi_certificate_replays_with_one_map_or_one_per_point():
    # find-prime --map t^2+1 --points 0,1 --mode multi
    f = RationalMap.quadratic(1)
    cert = find_good_prime([f], [0, 1], 100, mode="multi")
    assert cert.kind == "multi-quadratic" and cert.prime == 3
    assert replay_certificate(cert, [f], [0, 1])
    assert replay_certificate(cert, [f, f], [0, 1])
    assert not replay_certificate(cert, [f, f, f], [0, 1])


@pytest.mark.parametrize("mode", ["quadratic", "qr"])
def test_single_map_search_and_replay_reject_different_maps(mode):
    # find-prime --maps "t^2+1;t^2-1" --points 1,2 --mode quadratic used to
    # certify t^2+1 alone, and the replay read maps[0] only
    f, g = RationalMap.quadratic(1), RationalMap.quadratic(-1)
    single, other = (g, f) if mode == "qr" else (f, g)
    points = [Fraction(1, 2), 2]
    with pytest.raises(HypothesisViolated):
        find_good_prime([single, other], points, 100, mode=mode)
    cert = find_good_prime([single], points, 100, mode=mode)
    assert replay_certificate(cert, [single, single], points)
    assert not replay_certificate(cert, [single, other], points)


def _golden_certificates():
    for case in json.loads((Path(__file__).parent / "golden_find_prime.json").read_text()):
        result = case["report"]["result"]
        if result.get("type") != "PrimeCertificate":
            continue
        inputs = case["report"]["inputs"]
        points = parse_point(inputs["points"])
        maps = [parse_expression(m).value for m in (inputs.get("maps") or inputs["map"]).split(";")]
        cert = PrimeCertificate(result["prime"], result["kind"], result["checklist"], result["witnesses"])
        yield pytest.param(cert, maps, points, id=case["name"])


@pytest.mark.parametrize("cert, maps, points", list(_golden_certificates()))
def test_every_golden_certificate_replays(cert, maps, points):
    assert replay_certificate(cert, maps, points)
