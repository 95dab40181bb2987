"""Prime selection with replayable certificates.

Each search returns the smallest qualifying prime below the bound together
with a checklist and the finite mod-p computations (residue orbits, cycle
multipliers, Legendre symbols) that back every checkmark, so a verifier can
replay the certificate from its witnesses alone.  Searches scan primes in
increasing order; a parallel split over disjoint ranges must merge by
minimum to preserve the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BadReduction, HypothesisViolated, PeriodicCriticalPoint, PreperiodicInput
from .dynsys import PPoint, RationalMap, orbit_status
from .padics import primes_upto, residue, valuation
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
    read maps[0]; the multi-map search takes one map per point, or a single
    map used for every point.
    """
    if mode == "auto":
        if len(set(maps)) > 1:
            mode = "multi"
        else:
            mode = "qr" if _quadratic_shift(maps[0]) == -1 else "quadratic"
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
    for p in primes_upto(p_max):
        if p == 2:
            continue
        try:
            fv = reduce_map(f, p)
        except BadReduction:
            continue
        if any(pt.is_infinity or pt.b % p == 0 for pt in pts):
            continue
        crit_orbit = residue_orbit(fv, 0)
        if crit_orbit.tail == 0:
            continue
        cycles = functional_graph_cycles(fv)
        derivative_values = {}
        ok = True
        for cycle in cycles:
            for z in cycle:
                if z is INF_RESIDUE:
                    continue
                derivative_values[z] = 2 * z % p
                if derivative_values[z] == 0:
                    ok = False
        if not ok:
            continue
        checklist = {
            "good-reduction": True,
            "points-p-integral": True,
            "two-is-unit": True,
            "critical-reduction-non-periodic": True,
            "unit-derivative-on-periodic-residues": True,
        }
        witnesses = {
            "c": str(c),
            "points": [str(pt) for pt in pts],
            "critical_residue_orbit": _residue_orbit_witness(crit_orbit),
            "cycles": [list(cy) for cy in cycles],
            "periodic_residue_derivatives": {str(z): v for z, v in derivative_values.items()},
        }
        return PrimeCertificate(p, "quadratic-good-prime", checklist, witnesses)
    return NotFound(p_max)


def _legendre(a: int, p: int) -> int:
    s = pow(a % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def qr_filter_for_minus_one(f: RationalMap, points, p_max: int):
    """Special filter for t^2 - 1: unit points and 2 a quadratic non-residue.

    Under these conditions no forward iterate of any point can reach the
    residue class of 0, so the superattracting residue cycle {0, -1} is
    never met and every residue cycle the orbits do meet is indifferent.
    """
    if _quadratic_shift(f) != -1:
        raise HypothesisViolated("filter applies to t^2 - 1 only")
    pts = [Fraction(PPoint.of(x).a, PPoint.of(x).b) if not PPoint.of(x).is_infinity else None for x in points]
    if any(pt is None for pt in pts):
        raise PreperiodicInput("infinity is a fixed point")
    for x in pts:
        if orbit_status(f, x).is_preperiodic:
            raise PreperiodicInput(f"{x} is preperiodic")
    for p in primes_upto(p_max):
        if p == 2:
            continue
        values = {}
        ok = True
        for x in pts:
            fx = x * x - 1
            vx, vfx = valuation(x, p), valuation(fx, p)
            values[str(x)] = {"v(x)": str(vx), "v(f(x))": str(vfx)}
            if vx != 0 or vfx != 0:
                ok = False
        if not ok:
            continue
        symbol = _legendre(2, p)
        if symbol != -1:
            continue
        checklist = {
            "points-and-images-are-units": True,
            "two-is-non-residue": True,
        }
        witnesses = {
            "unit_valuations": values,
            "legendre": {"base": 2, "prime": p, "symbol": symbol, "power": pow(2, (p - 1) // 2, p)},
        }
        return PrimeCertificate(p, "qr-minus-one", checklist, witnesses)
    return NotFound(p_max)


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


def _multi_quadratic_prime(shifts: list[Fraction], pts: list[PPoint], p: int) -> bool:
    """The per-prime conditions of the multi-map search for maps t^2 + c_j."""
    if p == 2 or any(pt.is_infinity or pt.b % p == 0 for pt in pts):
        return False
    if any(c == -1 for c in shifts) and _legendre(2, p) != -1:
        return False
    for c, pt in zip(shifts, pts):
        if c.denominator % p == 0:
            return False  # bad reduction of t^2 + c
        x = pt.as_fraction()
        if c == -1 and (valuation(x, p) != 0 or valuation(x * x - 1, p) != 0):
            return False
        if _zero_meets_quadratic_orbit(residue(c, p), residue(x, p), p):
            return False
    return True


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
    for p in primes_upto(p_max):
        if not _multi_quadratic_prime(shifts, pts, p):
            continue
        orbits = {
            str(j): _residue_orbit_witness(residue_orbit(reduce_map(f, p), reduce_point(x, p)))
            for j, (f, x) in enumerate(zip(maps, pts))
        }
        checklist = {
            "good-reduction": True,
            "points-p-integral": True,
            "zero-off-forward-residue-orbits": True,
            "qr-filter": any(c == -1 for c in shifts),
        }
        return PrimeCertificate(p, "multi-quadratic", checklist, {"residue_orbits": orbits})
    return NotFound(p_max)


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
    """Re-run the finite mod-p checks of a certificate from scratch."""
    if isinstance(maps, RationalMap):
        maps = [maps]
    p = cert.prime
    if cert.kind == "quadratic-good-prime":
        try:
            fv = reduce_map(maps[0], p)
        except BadReduction:
            return False
        crit = residue_orbit(fv, 0)
        if crit.tail == 0:
            return False
        if _residue_orbit_witness(crit) != cert.witnesses["critical_residue_orbit"]:
            return False
        cycles = functional_graph_cycles(fv)

        def canon(cycle_list):
            return sorted(
                tuple(sorted(-1 if z is None else z for z in cy)) for cy in cycle_list
            )

        if canon(cycles) != canon(cert.witnesses["cycles"]):
            return False
        for cy in cycles:
            for z in cy:
                if z is not INF_RESIDUE and 2 * z % p == 0:
                    return False
        return all(PPoint.of(x).b % p != 0 for x in points)
    if cert.kind == "qr-minus-one":
        try:
            if _quadratic_shift(maps[0]) != -1:
                return False
        except HypothesisViolated:
            return False
        if _legendre(2, p) != -1:
            return False
        if pow(2, (p - 1) // 2, p) != cert.witnesses["legendre"]["power"]:
            return False
        for x in points:
            q = Fraction(x)
            if valuation(q, p) != 0 or valuation(q * q - 1, p) != 0:
                return False
        return True
    if cert.kind == "multi-quadratic":
        pts = [PPoint.of(x) for x in points]
        return len(maps) == len(pts) and _multi_quadratic_prime([_quadratic_shift(f) for f in maps], pts, p)
    raise ValueError(f"unknown certificate kind {cert.kind}")
