"""Decision engine: orbit/variety intersections as progressions plus exceptions.

One pipeline serves the coordinatewise quadratic action and a pair of
coordinates under one map: normalize the inputs, set up the exact orbit
scanner, close finite orbits from their cycles, search for a prime making
every relevant residue cycle indifferent, take the lcm k of the residue
cycle lengths, and for each arithmetic class modulo k combine an exact scan
with Mahler interpolation plus vanishing certificates.  The two front ends
differ only in their hypothesis checks and their prime strategy.  An
identically-vanishing class is reported as a full progression; a class with
a nonzero witness contributes its (finitely many) scanned hits to the
exceptional set.

Outcomes are stamped: Certified(prime, order, precision) when the p-adic
pipeline ran to completion, ScanOnly(limit) for answers backed by the exact
scan and cycle/orbit structure alone, Inconclusive(reason) when bounded
resources could not finish (never a silent wrong answer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .analytic import DEFAULT_ORDER, IdenticallyZeroAtPrecision, certify_vanishing, orbit_interpolate
from .errors import (
    BadReduction,
    HypothesisViolated,
    InvalidOption,
    NotQuasiperiodic,
    PowerMapCase,
    VerificationFailed,
)
from .classify import normal_form
from .dynsys import (
    PPoint,
    RationalMap,
    TwoExceptional,
    exceptional_points,
    exceptional_structure,
    orbit_status,
    ramification_portrait,
)
from .intersection import _factor_has_periodic_root
from .padics import DEFAULT_PRECISION, primes_upto
from .polynomials import Polynomial, format_polynomial
from .primesearch import NotFound, common_residue_search, find_good_prime
from .reduction import reduce_map, reduce_point, residue_cycle_multiplier, residue_orbit
from .scan import OrbitScanner
from .varieties import AffineVariety, PlaneCurve

__all__ = [
    "Progression",
    "Certified",
    "ScanOnly",
    "Inconclusive",
    "IntersectionDescription",
    "EngineOptions",
    "decide",
    "decide_curve_pair",
    "brute_force_scan",
]

DEFAULT_SCAN_LIMIT = 1000
DEFAULT_CHECK_LIMIT = 64
DEFAULT_PRIME_BOUND = 1000
RESIDUE_SEARCH_DEPTH = 10


@dataclass(frozen=True)
class Progression:
    """Indices {n * modulus + offset : n >= start}."""

    modulus: int
    offset: int
    start: int

    def indices_upto(self, bound: int) -> list[int]:
        first = self.start * self.modulus + self.offset
        return list(range(first, bound + 1, self.modulus)) if first <= bound else []

    def contains(self, n: int) -> bool:
        return n % self.modulus == self.offset and n >= self.start * self.modulus + self.offset


@dataclass(frozen=True)
class Certified:
    prime: int
    order: int
    precision: int

    kind = "certified"


@dataclass(frozen=True)
class ScanOnly:
    limit: int

    kind = "scan-only"


@dataclass(frozen=True)
class Inconclusive:
    reason: str

    kind = "inconclusive"


@dataclass(frozen=True)
class IntersectionDescription:
    progressions: tuple[Progression, ...]
    exceptional: tuple[int, ...]
    certification: Certified | ScanOnly | Inconclusive
    witnesses: dict = field(hash=False, default_factory=dict)

    def described_indices(self, bound: int) -> list[int]:
        out = set(self.exceptional)
        out = {n for n in out if n <= bound}
        for prog in self.progressions:
            out.update(prog.indices_upto(bound))
        return sorted(out)

    def is_definitive(self) -> bool:
        return not isinstance(self.certification, Inconclusive)


def _simplify_progressions(progressions, exceptional):
    """Coalesce a full set of classes mod k into one modulus-1 progression."""
    progressions = list(progressions)
    exceptional = set(exceptional)
    if progressions:
        k = progressions[0].modulus
        if len(progressions) == k and {p.offset for p in progressions} == set(range(k)):
            threshold = max(p.start * k + p.offset for p in progressions)
            for p in progressions:
                first = p.start * k + p.offset
                exceptional.update(range(first, threshold, k))
            progressions = [Progression(1, 0, threshold)]
    return tuple(progressions), tuple(sorted(exceptional))


@dataclass(frozen=True)
class EngineOptions:
    prime_bound: int = DEFAULT_PRIME_BOUND
    scan_limit: int = DEFAULT_SCAN_LIMIT
    order: int = DEFAULT_ORDER
    precision: int = DEFAULT_PRECISION
    check_limit: int = DEFAULT_CHECK_LIMIT

    def __post_init__(self):
        for name, least in (("scan_limit", 0), ("order", 1), ("precision", 1)):
            if getattr(self, name) < least:
                raise InvalidOption(f"{name} must be at least {least}, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# input normalization


def _normalize(maps, alpha, variety):
    """One map per coordinate, rational starting values, generators in x1..xg."""
    if isinstance(maps, RationalMap):
        maps = [maps]
    maps = list(maps)
    alpha = [Fraction(a) for a in alpha]
    if len(maps) == 1 and len(alpha) > 1:
        maps = maps * len(alpha)
    if len(maps) != len(alpha):
        raise ValueError("coordinate count mismatch")
    return maps, alpha, _as_variety(variety, len(alpha))


def _as_variety(variety, g: int) -> AffineVariety:
    if isinstance(variety, AffineVariety):
        return variety
    if isinstance(variety, PlaneCurve):
        return AffineVariety.of([variety.poly], 2)
    if isinstance(variety, Polynomial):
        return AffineVariety.of([variety], g)
    return AffineVariety.of(list(variety), g)


def _quadratic_normal_form(phi: RationalMap) -> tuple[RationalMap, Fraction, Fraction]:
    """Return (t^2 + c model, A, B) with phi = mu o model o mu^(-1), mu(t) = At + B."""
    if not phi.is_polynomial or phi.degree != 2:
        raise HypothesisViolated("the coordinatewise engine handles quadratic polynomials")
    coeffs = phi.affine_coefficients()
    if coeffs[2] == 1 and coeffs[1] == 0:
        return phi, Fraction(1), Fraction(0)
    record = normal_form(Polynomial.univariate(coeffs, "t"))  # degree 2: the scale is always rational
    model = RationalMap.polynomial(record.normal.univariate_coeffs())
    return model, record.scale, record.shift


def _transform_inputs(maps, alpha, variety):
    """Conjugate every coordinate into the t^2 + c model, moving points and variety."""
    names = tuple(f"x{i + 1}" for i in range(len(maps)))
    models, new_alpha, sub = [], [], {}
    for name, phi, x in zip(names, maps, alpha):
        model, A, B = _quadratic_normal_form(phi)
        models.append(model)
        new_alpha.append((x - B) / A)
        if A != 1 or B != 0:
            sub[name] = Polynomial.variable(name, names) * A + B
    gens = [gen.with_variables(names) for gen in variety.generators]
    if sub:
        gens = [gen.substitute(sub) for gen in gens]
    return models, new_alpha, AffineVariety(tuple(gens), len(maps))


# ---------------------------------------------------------------------------
# the pipeline


def _pipeline(maps, alpha, variety, options: EngineOptions, witnesses: dict, choose_prime, *, orbit_record=False):
    """Scanner, finite-orbit closure, prime strategy, then the classes.

    `choose_prime(maps, alpha, stream_coords, options, witnesses)` returns
    (prime, None) or (None, reason); without a prime the scanned hits are
    reported as Inconclusive(reason).
    """
    scanner = OrbitScanner(maps, alpha)
    if orbit_record:
        record = scanner.record()
        witnesses["orbit-record"] = {
            "preperiodic": list(record.preperiodic),
            "tails": list(record.tails),
            "cycles": list(record.cycles),
        }
    generators = list(variety.generators)
    if scanner.all_preperiodic:
        return _assemble_from_cycles(scanner, generators, options, witnesses)
    stream_coords = [i for i, m in enumerate(scanner.models) if m.kind != "preperiodic"]
    prime, reason = choose_prime(maps, alpha, stream_coords, options, witnesses)
    if prime is None:
        hits = scanner.scan(generators, options.scan_limit)
        return IntersectionDescription((), tuple(hits), Inconclusive(reason), witnesses)
    return _certified_classes(maps, alpha, generators, scanner, prime, options, witnesses)


def _quadratic_prime(maps, alpha, stream_coords, options: EngineOptions, witnesses: dict):
    """Prime strategy of `decide`: the quadratic, QR-filter or multi-map search."""
    cert = find_good_prime([maps[i] for i in stream_coords], [alpha[i] for i in stream_coords], options.prime_bound)
    if isinstance(cert, NotFound):
        return None, f"no qualifying prime below {cert.p_max}"
    witnesses["prime-certificate"] = cert.as_dict()
    return cert.prime, None


def _common_residue_prime(maps, alpha, stream_coords, options: EngineOptions, witnesses: dict):
    """Prime strategy of `decide_curve_pair`: the first candidate at which every
    residue cycle met by a wandering coordinate has a unit multiplier.

    Candidates come from the common-residue search when both coordinates
    wander, from all odd primes below the bound otherwise.
    """
    phi = maps[0]
    if len(stream_coords) == 2:
        pairs = common_residue_search(phi, alpha[0], alpha[1], options.prime_bound, RESIDUE_SEARCH_DEPTH)
        candidates = sorted({p for p, _n in pairs})
    else:
        candidates = [p for p in primes_upto(options.prime_bound) if p > 2]
    tried = []
    for p in candidates:
        try:
            phi_v = reduce_map(phi, p)
        except BadReduction:
            tried.append((p, "bad reduction"))
            continue
        if any(PPoint.of(alpha[i]).b % p == 0 for i in stream_coords):
            tried.append((p, "point not p-integral"))
            continue
        for i in stream_coords:
            orb = residue_orbit(phi_v, reduce_point(PPoint.of(alpha[i]), p))
            if residue_cycle_multiplier(phi_v, orb.cycle) in (None, 0):
                tried.append((p, f"coordinate {i}: residue cycle not indifferent"))
                break
        else:
            witnesses["prime"] = p
            return p, None
    witnesses["rejected-primes"] = tried[:40]
    return None, "no qualifying prime from the residue search"


# ---------------------------------------------------------------------------
# shared class machinery


def _assemble_from_cycles(scanner: OrbitScanner, generators, options: EngineOptions, witnesses: dict):
    """Complete decision when every coordinate is preperiodic (finite orbit)."""
    k = scanner.preperiodic_cycle_lcm
    T = scanner.max_tail
    hits = scanner.scan(generators, options.scan_limit)
    progressions = []
    covered = set()
    for ell in range(k):
        base = T + ((ell - T) % k)
        if scanner.is_hit(generators, base):
            start_index = base
            while start_index - k >= 0 and scanner.is_hit(generators, start_index - k):
                start_index -= k
            progressions.append(Progression(k, ell % k, (start_index - ell % k) // k))
            covered.update(range(start_index, options.scan_limit + 1, k))
    exceptional = tuple(sorted(n for n in hits if n not in covered))
    witnesses["finite-orbit-closure"] = True
    progressions, exceptional = _simplify_progressions(progressions, exceptional)
    return IntersectionDescription(progressions, exceptional, ScanOnly(options.scan_limit), witnesses)


def _certified_classes(
    maps,
    alpha,
    generators,
    scanner: OrbitScanner,
    prime: int,
    options: EngineOptions,
    witnesses: dict,
):
    """Run the per-class certification at a chosen prime; returns a description."""
    g = len(maps)
    stream_coords = [i for i, m in enumerate(scanner.models) if m.kind != "preperiodic"]
    pre_coords = [i for i in range(g) if i not in stream_coords]
    residue_data = {}
    k = scanner.preperiodic_cycle_lcm
    T = scanner.max_tail
    for i in stream_coords:
        phi_v = reduce_map(maps[i], prime)
        r = reduce_point(PPoint.of(alpha[i]), prime)
        orb = residue_orbit(phi_v, r)
        residue_data[i] = orb
        k = k * orb.cycle_length // math.gcd(k, orb.cycle_length)
        T = max(T, orb.tail)
    witnesses["residue-orbits"] = {
        str(i): {"tail": orb.tail, "cycle_length": orb.cycle_length} for i, orb in residue_data.items()
    }
    witnesses["class-modulus"] = k
    hits = scanner.scan(generators, options.scan_limit)
    hit_set = set(hits)
    by_class: dict[int, list[int]] = {}
    for n in hits:
        by_class.setdefault(n % k, []).append(n)
    progressions = []
    exceptional = set()
    degraded = []
    class_reports = {}
    names = tuple(f"x{i + 1}" for i in range(g))
    for ell, class_hits in sorted(by_class.items()):
        base = T + ((ell - T) % k)
        verdicts = []
        try:
            thetas = {}
            for i in stream_coords:
                thetas[i] = orbit_interpolate(
                    maps[i],
                    Fraction(alpha[i]),
                    k,
                    base,
                    prime=prime,
                    order=options.order,
                    precision=options.precision,
                )
            all_zero = True
            for gen in generators:
                sub = gen.with_variables(names)
                assignments = {}
                for i in pre_coords:
                    pt = scanner.coordinate_value(scanner.models[i], base)
                    if pt.is_infinity:
                        raise NotQuasiperiodic("preperiodic coordinate at infinity")
                    assignments[names[i]] = Polynomial.constant(pt.as_fraction(), names)
                if assignments:
                    sub = sub.substitute(assignments)
                sub = sub.drop_variables([names[i] for i in pre_coords])
                verdict = "identically-zero"
                if not sub.is_zero:
                    cert = certify_vanishing(sub, [thetas[i] for i in stream_coords])
                    if not isinstance(cert, IdenticallyZeroAtPrecision):
                        verdict = f"nonzero-witness at n={cert.n}"
                        all_zero = False
                verdicts.append({"generator": format_polynomial(gen), "verdict": verdict})
        except NotQuasiperiodic as exc:
            degraded.append(f"class {ell}: {exc}")
            exceptional.update(class_hits)
            class_reports[ell] = {"status": "inconclusive", "reason": str(exc)}
            continue
        if all_zero:
            # certificate claims the whole class from base on; reconcile with the scan
            conflict = any(
                n not in hit_set for n in range(base, options.scan_limit + 1, k)
            )
            if conflict:
                degraded.append(f"class {ell}: certificate contradicts the exact scan")
                exceptional.update(class_hits)
                class_reports[ell] = {"status": "conflict"}
                continue
            # anchor at the certified base, then extend down through the
            # contiguous scanned hits; earlier sporadic hits stay exceptional
            start_index = base
            while start_index - k >= 0 and start_index - k in hit_set:
                start_index -= k
            progressions.append(Progression(k, ell, (start_index - ell) // k))
            exceptional.update(n for n in class_hits if n < start_index)
            class_reports[ell] = {
                "status": "progression",
                "base": base,
                "symbolic": scanner.class_is_structurally_zero(generators, base),
                "checks": verdicts,
            }
        else:
            exceptional.update(class_hits)
            class_reports[ell] = {"status": "exceptional-only", "checks": verdicts}
    witnesses["classes"] = class_reports
    certification: Certified | Inconclusive
    if degraded:
        certification = Inconclusive("; ".join(degraded))
    else:
        certification = Certified(prime, options.order, options.precision)
    progressions, exceptional = _simplify_progressions(progressions, exceptional)
    description = IntersectionDescription(progressions, exceptional, certification, witnesses)
    _soundness_check(description, scanner, generators, options)
    return description


def _soundness_check(description: IntersectionDescription, scanner, generators, options: EngineOptions):
    """Re-verify every reported index up to the check limit by exact evaluation."""
    for n in description.described_indices(options.check_limit):
        if not scanner.is_hit(generators, n):
            raise VerificationFailed(f"reported index {n} fails exact membership")


# ---------------------------------------------------------------------------
# public entry points


def decide(maps, alpha, variety, options: EngineOptions | None = None) -> IntersectionDescription:
    """Intersection description for coordinatewise quadratic actions over Q.

    `maps` is a single quadratic polynomial map (used diagonally) or one per
    coordinate; `variety` a polynomial, list of polynomials, or AffineVariety
    in x1..xg (x, y accepted for g <= 2).  Power maps (c = 0) belong to the
    multiplicative theory and are rejected with PowerMapCase.
    """
    options = options or EngineOptions()
    maps, alpha, variety = _normalize(maps, alpha, variety)
    maps, alpha, variety = _transform_inputs(maps, alpha, variety)
    for phi in maps:
        if phi.affine_coefficients()[0] == 0:
            raise PowerMapCase("t -> t^2 is a multiplicative-group endomorphism; out of scope")
    witnesses: dict = {"maps": [repr(m) for m in maps], "alpha": [str(a) for a in alpha]}
    return _pipeline(maps, alpha, variety, options, witnesses, _quadratic_prime, orbit_record=True)


def _has_superattracting_cycle_off_exceptional(phi: RationalMap) -> bool:
    exceptional = exceptional_points(phi)
    for place, _e in ramification_portrait(phi):
        if isinstance(place, PPoint):
            if place not in exceptional and orbit_status(phi, place).kind == "periodic":
                return True
        elif _factor_has_periodic_root(phi, place):
            return True
    return False


def decide_curve_pair(phi: RationalMap, alpha, curve, options: EngineOptions | None = None) -> IntersectionDescription:
    """Intersection of a plane curve with the orbit of (x, y) under (phi, phi).

    The prime is sourced from the common-residue search and filtered by the
    attracting-class avoidance check: every periodic residue cycle met by
    either coordinate orbit must have a unit multiplier.
    """
    options = options or EngineOptions()
    if phi.degree < 2:
        raise HypothesisViolated("degree must be at least 2")
    if isinstance(exceptional_structure(phi), TwoExceptional):
        raise PowerMapCase("conjugate to a power map: multiplicative case out of scope")
    if _has_superattracting_cycle_off_exceptional(phi):
        raise HypothesisViolated("superattracting cycle away from the exceptional locus")
    maps, alpha, variety = _normalize(phi, alpha, curve)
    witnesses: dict = {"map": repr(phi), "alpha": [str(a) for a in alpha]}
    return _pipeline(maps, alpha, variety, options, witnesses, _common_residue_prime)


def brute_force_scan(maps, alpha, variety, limit: int) -> list[int]:
    """Exact hit indices n <= limit of Phi^n(alpha) against the variety."""
    maps, alpha, variety = _normalize(maps, alpha, variety)
    return OrbitScanner(maps, alpha).scan(list(variety.generators), limit)
