"""Prime selection with replayable certificates.

Each search returns the smallest qualifying prime below the bound together
with a checklist and the finite mod-p computations (residue orbits, cycle
multipliers, Legendre symbols) that back every checkmark.  Each certificate
kind has one per-prime builder: its search takes the smallest prime the
builder accepts, and `replay_certificate` rebuilds the certificate at its
prime and compares.  Searches scan primes in increasing order; a parallel
split over disjoint ranges must merge by minimum to preserve the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BadReduction, HypothesisViolated, PeriodicCriticalPoint, PreperiodicInput
from .dynsys import PPoint, RationalMap, orbit_status
from .padics import is_prime, primes_in_order, primes_upto, residue, valuation
from .reduction import INF_RESIDUE, ReducedMap, reduce_map, reduce_point, residue_orbit

__all__ = [
    "PrimeCertificate",
    "NotFound",
    "find_good_prime",
    "find_good_prime_quadratic",
    "qr_filter_for_minus_one",
    "find_good_prime_multi",
    "common_residue_search",
    "jones_density_estimate",
    "JonesDensity",
    "replay_certificate",
    "functional_graph_cycles",
]


@dataclass(frozen=True)
class PrimeCertificate:
    prime: int
    kind: str
    checklist: dict
    witnesses: dict

    def as_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kind": self.kind,
            "checklist": dict(self.checklist),
            "witnesses": self.witnesses,
        }


@dataclass(frozen=True)
class NotFound:
    p_max: int
    reason: str = "no prime below the bound satisfies every condition"


def _quadratic_shift(f: RationalMap) -> Fraction:
    coeffs = f.affine_coefficients() if f.is_polynomial else []
    if len(coeffs) != 3 or coeffs[2] != 1 or coeffs[1] != 0:
        raise HypothesisViolated("expected a map t -> t^2 + c")
    return coeffs[0]


def find_good_prime(maps: list[RationalMap], points, p_max: int, mode: str = "auto"):
    """Run the prime search named by `mode`: quadratic, qr or multi.

    `auto` takes the multi-map search when the maps differ, the QR filter
    for t^2 - 1 and the quadratic search otherwise.  The single-map searches
    take one map for every point and reject maps that differ; the multi-map
    search takes one map per point, or a single map used for every point.
    """
    one_map = len(set(maps)) == 1
    if mode == "auto":
        mode = ("qr" if _quadratic_shift(maps[0]) == -1 else "quadratic") if one_map else "multi"
    if mode != "multi" and not one_map:
        raise HypothesisViolated(f"the {mode} search takes one map for every point")
    if mode == "quadratic":
        return find_good_prime_quadratic(maps[0], points, p_max)
    if mode == "qr":
        return qr_filter_for_minus_one(maps[0], points, p_max)
    return find_good_prime_multi(maps * len(points) if len(maps) == 1 else maps, points, p_max)


def functional_graph_cycles(phi_v: ReducedMap) -> list[tuple]:
    """All cycles of the reduced map on P^1(F_p), each as a tuple of residues."""
    p = phi_v.prime
    color: dict = {}
    cycles = []
    for start in list(range(p)) + [INF_RESIDUE]:
        if start in color:
            continue
        path = []
        pt = start
        while pt not in color:
            color[pt] = "active"
            path.append(pt)
            pt = phi_v.apply(pt)
        if color[pt] == "active":
            idx = path.index(pt)
            cycles.append(tuple(path[idx:]))
        for q in path:
            color[q] = "done"
    return cycles


def _residue_orbit_witness(orbit) -> dict:
    return {
        "start": orbit.start,
        "tail": orbit.tail,
        "cycle_length": orbit.cycle_length,
        "cycle": list(orbit.cycle),
    }


def _first_prime(build, p_max: int):
    """The certificate at the smallest prime up to p_max that `build` accepts,
    else NotFound; the candidates are sieved only as far as they are tried."""
    for p in primes_in_order(p_max):
        cert = build(p)
        if cert is not None:
            return cert
    return NotFound(p_max)


def _quadratic_certificate(f: RationalMap, c: Fraction, pts: list[PPoint], p: int) -> PrimeCertificate | None:
    """The certificate for t^2 + c at p, or None when p fails a condition."""
    if p == 2 or any(pt.is_infinity or pt.b % p == 0 for pt in pts):
        return None
    try:
        fv = reduce_map(f, p)
    except BadReduction:
        return None
    crit_orbit = residue_orbit(fv, 0)
    if crit_orbit.tail == 0:
        return None
    cycles = functional_graph_cycles(fv)
    checklist = {
        "good-reduction": True,
        "points-p-integral": True,
        "two-is-unit": True,
        "critical-reduction-non-periodic": True,
        "unit-derivative-on-periodic-residues": True,
    }
    # 0 is off every cycle, so each derivative 2z is a unit
    derivatives = {str(z): 2 * z % p for cycle in cycles for z in cycle if z is not INF_RESIDUE}
    witnesses = {
        "c": str(c),
        "points": [str(pt) for pt in pts],
        "critical_residue_orbit": _residue_orbit_witness(crit_orbit),
        "cycles": [list(cy) for cy in cycles],
        "periodic_residue_derivatives": derivatives,
    }
    return PrimeCertificate(p, "quadratic-good-prime", checklist, witnesses)


def find_good_prime_quadratic(f: RationalMap, points, p_max: int):
    """Smallest odd prime making the residue dynamics of t^2 + c certifiably tame.

    Conditions: good reduction, all points p-integral, 2 a unit, and the
    reduction of the critical point 0 non-periodic (which forces a nonzero
    derivative on every periodic residue).  The certificate carries the full
    residue-cycle enumeration over F_p.
    """
    c = _quadratic_shift(f)
    status = orbit_status(f, 0)
    if status.kind == "periodic":
        raise PeriodicCriticalPoint("critical point 0 is periodic (c in {0, -1})")
    pts = [PPoint.of(x) for x in points]
    return _first_prime(lambda p: _quadratic_certificate(f, c, pts, p), p_max)


def _legendre(a: int, p: int) -> int:
    s = pow(a % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def _unit_valuations(pts: list[PPoint], p: int) -> dict | None:
    """v(x) and v(x^2 - 1) at p for each point, or None unless p is odd, 2 is
    a non-residue mod p and every one of them is 0."""
    if p == 2 or _legendre(2, p) != -1 or any(pt.is_infinity for pt in pts):
        return None
    values = {}
    for x in (pt.as_fraction() for pt in pts):
        vx, vfx = valuation(x, p), valuation(x * x - 1, p)
        if vx != 0 or vfx != 0:
            return None
        values[str(x)] = {"v(x)": str(vx), "v(f(x))": str(vfx)}
    return values


def _qr_certificate(pts: list[PPoint], p: int) -> PrimeCertificate | None:
    """The QR-filter certificate for t^2 - 1 at p, or None when p fails it."""
    values = _unit_valuations(pts, p)
    if values is None:
        return None
    checklist = {
        "points-and-images-are-units": True,
        "two-is-non-residue": True,
    }
    witnesses = {
        "unit_valuations": values,
        "legendre": {"base": 2, "prime": p, "symbol": -1, "power": pow(2, (p - 1) // 2, p)},
    }
    return PrimeCertificate(p, "qr-minus-one", checklist, witnesses)


def qr_filter_for_minus_one(f: RationalMap, points, p_max: int):
    """Special filter for t^2 - 1: unit points and 2 a quadratic non-residue.

    Under these conditions no forward iterate of any point can reach the
    residue class of 0, so the superattracting residue cycle {0, -1} is
    never met and every residue cycle the orbits do meet is indifferent.
    """
    if _quadratic_shift(f) != -1:
        raise HypothesisViolated("filter applies to t^2 - 1 only")
    pts = [PPoint.of(x) for x in points]
    if any(pt.is_infinity for pt in pts):
        raise PreperiodicInput("infinity is a fixed point")
    for x in (pt.as_fraction() for pt in pts):
        if orbit_status(f, x).is_preperiodic:
            raise PreperiodicInput(f"{x} is preperiodic")
    return _first_prime(lambda p: _qr_certificate(pts, p), p_max)


def _zero_meets_quadratic_orbit(c_mod: int, start: int, p: int) -> bool:
    """Whether 0 appears among the residues f(x), f^2(x), ... (n >= 1) of
    f = x^2 + c on integral residues mod p."""
    seen = set()
    x = (start * start + c_mod) % p
    while x not in seen:
        if x == 0:
            return True
        seen.add(x)
        x = (x * x + c_mod) % p
    return False


def _multi_certificate(maps, shifts: list[Fraction], pts: list[PPoint], p: int) -> PrimeCertificate | None:
    """The certificate for the maps t^2 + c_j at p, or None when p fails a condition."""
    # p = 2, a point that is not p-integral, or bad reduction of some t^2 + c_j
    if p == 2 or any(pt.is_infinity or pt.b % p == 0 or c.denominator % p == 0 for c, pt in zip(shifts, pts)):
        return None
    qr_filter = -1 in shifts
    if qr_filter and _unit_valuations([pt for c, pt in zip(shifts, pts) if c == -1], p) is None:
        return None
    if any(_zero_meets_quadratic_orbit(residue(c, p), residue(pt.as_fraction(), p), p) for c, pt in zip(shifts, pts)):
        return None
    orbits = {
        str(j): _residue_orbit_witness(residue_orbit(reduce_map(f, p), reduce_point(x, p)))
        for j, (f, x) in enumerate(zip(maps, pts))
    }
    checklist = {
        "good-reduction": True,
        "points-p-integral": True,
        "zero-off-forward-residue-orbits": True,
        "qr-filter": qr_filter,
    }
    return PrimeCertificate(p, "multi-quadratic", checklist, {"residue_orbits": orbits})


def find_good_prime_multi(maps: list[RationalMap], points, p_max: int):
    """Prime search for coordinatewise actions by different quadratics t^2 + c_j.

    For c_j = -1 coordinates the unit/non-residue filter applies; for the
    others the condition is that 0 never appears on the strictly-forward
    residue orbit, so no orbit can meet an attracting residue cycle.
    """
    shifts = [_quadratic_shift(f) for f in maps]
    pts = [PPoint.of(x) for x in points]
    if len(maps) != len(pts):
        raise ValueError("one starting coordinate per map")
    for f, x in zip(maps, pts):
        if x.is_infinity:
            raise PreperiodicInput("infinity is preperiodic")
        if orbit_status(f, x.as_fraction()).is_preperiodic:
            raise PreperiodicInput(f"{x} is preperiodic")
    return _first_prime(lambda p: _multi_certificate(maps, shifts, pts, p), p_max)


def common_residue_search(phi: RationalMap, alpha, beta, p_max: int, n_max: int) -> list[tuple[int, int]]:
    """All (p, n) with p <= p_max, n <= n_max and the n-th iterates congruent.

    Works projectively: two points share a residue iff p divides the cross
    difference of their coprime coordinate pairs.
    """
    for x in (alpha, beta):
        if orbit_status(phi, x).is_preperiodic:
            raise PreperiodicInput(f"{x} is preperiodic")
    hits = []
    a, b = PPoint.of(alpha), PPoint.of(beta)
    primes = primes_upto(p_max)
    for n in range(n_max + 1):
        cross = a.a * b.b - a.b * b.a
        if cross != 0:
            for p in primes:
                if cross % p == 0:
                    hits.append((p, n))
        a, b = phi.apply(a), phi.apply(b)
    return sorted(hits)


@dataclass(frozen=True)
class JonesDensity:
    """Per-prime bitmap of 'some forward iterate hits 0 mod p' plus the clean fraction."""

    p_max: int
    estimate: Fraction  # fraction of primes with NO forward iterate congruent to 0
    hits: dict = field(hash=False)

    @property
    def hit_fraction(self) -> Fraction:
        return 1 - self.estimate


def jones_density_estimate(maps: list[RationalMap], points, p_max: int) -> JonesDensity:
    """Density shadow: how often 0 lies on some strictly-forward residue orbit.

    Decidable per prime because the forward residue orbit of each point is
    finite.  Non p-integral data never reaches residue 0 (valuations stay
    negative), so those primes count as misses for that coordinate.
    """
    shifts = [_quadratic_shift(f) for f in maps]
    pts = [PPoint.of(x) for x in points]
    for f, x in zip(maps, pts):
        if x.is_infinity or orbit_status(f, x.as_fraction()).is_preperiodic:
            raise PreperiodicInput(f"{x} is preperiodic")
    starts = [x.as_fraction() for x in pts]
    hits: dict[int, bool] = {}
    for p in primes_upto(p_max):
        hit = False
        for c, x in zip(shifts, starts):
            try:
                c_mod, start = residue(c, p), residue(x, p)
            except ZeroDivisionError:
                continue  # not p-integral
            if _zero_meets_quadratic_orbit(c_mod, start, p):
                hit = True
                break
        hits[p] = hit
    total = len(hits)
    clean = sum(1 for h in hits.values() if not h)
    return JonesDensity(p_max, Fraction(clean, total), hits)


def replay_certificate(cert: PrimeCertificate, maps, points) -> bool:
    """Rebuild the certificate at its prime from the maps and points, by the
    search's own per-prime builder, and compare.  A multi-map certificate
    takes one map per point, or a single map used for every point; a
    single-map certificate rejects maps that differ."""
    if isinstance(maps, RationalMap):
        maps = [maps]
    pts = [PPoint.of(x) for x in points]
    try:
        shifts = [_quadratic_shift(f) for f in maps]
    except HypothesisViolated:
        return False
    p = cert.prime
    if not is_prime(p):
        return False
    one_map = len(set(maps)) == 1
    if cert.kind == "quadratic-good-prime":
        rebuilt = one_map and _quadratic_certificate(maps[0], shifts[0], pts, p)
    elif cert.kind == "qr-minus-one":
        rebuilt = one_map and shifts[0] == -1 and _qr_certificate(pts, p)
    elif cert.kind == "multi-quadratic":
        if len(maps) == 1:  # one map for every point, as find_good_prime takes it
            maps, shifts = maps * len(pts), shifts * len(pts)
        rebuilt = len(maps) == len(pts) and _multi_certificate(maps, shifts, pts, p)
    else:
        raise ValueError(f"unknown certificate kind {cert.kind}")
    return rebuilt == cert
