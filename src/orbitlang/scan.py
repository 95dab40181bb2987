"""Exact orbit/variety membership scanning at desk scale.

Orbit heights under a map of degree d >= 2 grow like d^n, so a scan to
n = 1000 cannot hold exact values.  Membership of the orbit point in a
variety is still decided exactly by combining:

* exact evaluation while coordinate heights stay below a cap;
* modular certificates: a generator value nonzero modulo one of several
  61-bit control primes is certainly nonzero;
* orbit-shift structure: coordinates whose starting values lie on a common
  orbit are aliases of one stream, so each generator restricted to a class
  becomes, after clearing the denominators of the iterates, a polynomial in
  one stream value per stream - identically zero means a certified hit for
  every index of the class;
* escape growth: past its escape index a stream under a polynomial map grows
  monotonically, so a nonzero univariate substituted generator cannot vanish
  once the stream value provably exceeds the generator's root bound.

Past the exact horizon each generator is evaluated at the first control
prime that sees every coordinate finite.  A nonzero residue is a miss.  A
zero residue hands over to the class structure, whose substituted generator
is built once per class n mod L (L the lcm of the preperiodic cycles) and
holds at n because that prime sees every coordinate finite: identically
zero is a hit; a nonzero constant, a preperiodic coordinate at infinity or
an escaped stream is a miss.  Only when the structure settles nothing do
the remaining primes run, and when none of them shows a nonzero residue
the scanner raises PrecisionExhausted rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadReduction, PrecisionExhausted
from .dynsys import PPoint, RationalMap, escape_radius, orbit_status
from .padics import next_prime
from .polynomials import Polynomial, residue_eval
from .reduction import INF_RESIDUE, ReducedMap, RPoint, reduce_map, reduce_point

__all__ = ["OrbitScanner", "OrbitRecord"]

EXACT_BITS_CAP = 65536
PREFIX_LIMIT = 48
CONTROL_PRIME_COUNT = 5


_control_candidates: list[int] = []


def _control_candidate(i: int) -> int:
    """The i-th candidate control prime above 2^61, found once per process."""
    while len(_control_candidates) <= i:
        seed = _control_candidates[-1] + 2 if _control_candidates else (1 << 61) + 7
        _control_candidates.append(next_prime(seed))
    return _control_candidates[i]


def _log2_lower(num: int, den: int) -> int:
    """Integer lo <= log2|num/den| for nonzero num."""
    return abs(num).bit_length() - den.bit_length() - 1


class _Stream:
    """One wandering orbit: exact prefix, control-prime tracks, growth bounds.

    Exact values are points of P^1(Q) up to the height cap.  Each control
    prime's track steps through the map's reduction there, and a residue may
    sit at infinity.
    """

    def __init__(self, phi: RationalMap, prefix, reduced: list[ReducedMap]):
        self.phi = phi
        self.exact: list[PPoint] = list(prefix)
        self.exact_done = False
        self.reduced = reduced
        self.residues = [[reduce_point(self.exact[0], r.prime)] for r in reduced]

    def exact_value(self, n: int) -> PPoint | None:
        """The n-th orbit point, or None past the height cap."""
        while not self.exact_done and len(self.exact) <= n:
            value = self.phi.apply(self.exact[-1])
            if value.height_bits() > EXACT_BITS_CAP:
                self.exact_done = True
            else:
                self.exact.append(value)
        return self.exact[n] if n < len(self.exact) else None

    def residue(self, n: int, qi: int) -> RPoint:
        track, model = self.residues[qi], self.reduced[qi]
        while len(track) <= n:
            track.append(model.apply(track[-1]))
        return track[n]

    def eventually_exceeds(self, bound_log2: int) -> int | None:
        """Smallest index from which |value| > 2**bound_log2 forever, if provable.

        Beyond the escape radius a polynomial of degree >= 2 at least doubles
        |z|; no other map gives a bound.
        """
        phi = self.phi
        if not phi.is_polynomial or phi.degree < 2:
            return None
        coeffs = phi.affine_coefficients()
        radius = escape_radius(coeffs)
        lead = _log2_lower(coeffs[-1].numerator, coeffs[-1].denominator)
        lo = None  # lower bound on log2|value n| once the orbit has escaped
        n = 0
        while n <= len(self.exact) + 4096:
            v = self.exact_value(n)
            if v is not None:
                if lo is not None or abs(v.a) * radius.denominator >= radius.numerator * v.b:
                    lo = _log2_lower(v.a, v.b)
            elif lo is None:
                return None
            else:
                lo = phi.degree * lo + lead - 1
            if lo is not None and lo > bound_log2:
                return n
            n += 1
        return None


@dataclass(frozen=True)
class _CoordModel:
    """One coordinate: its exact values before index len(prefix), then either
    the cycle prefix[tail:] or the values of stream `stream` shifted by delta."""

    kind: str  # "preperiodic" | "stream"
    phi: RationalMap
    prefix: tuple[PPoint, ...]
    # preperiodic data
    tail: int | None = None
    cycle: int | None = None
    # stream data
    stream: int | None = None
    delta: int | None = None


@dataclass(frozen=True)
class OrbitRecord:
    """Summary of the orbit cache and preperiodicity verdicts per coordinate."""

    maps: tuple[RationalMap, ...]
    start: tuple[PPoint, ...]
    preperiodic: tuple[bool, ...]
    tails: tuple[int | None, ...]
    cycles: tuple[int | None, ...]


class OrbitScanner:
    """Exact hit-testing of Phi^n(alpha) against polynomial generators in x1..xg."""

    def __init__(self, maps, alpha):
        self.maps = list(maps)
        self.alpha = [PPoint.of(a) for a in alpha]
        if len(self.maps) != len(self.alpha):
            raise ValueError("one map per coordinate")
        self.control_primes, self._reductions = self._pick_control_primes()
        self.models: list[_CoordModel] = []
        self.streams: list[_Stream] = []
        # (map, exact value) -> (stream, index) over each stream's first PREFIX_LIMIT values
        lookup: dict[tuple[RationalMap, PPoint], tuple[int, int]] = {}
        for i, (phi, x) in enumerate(zip(self.maps, self.alpha)):
            status = orbit_status(phi, x)
            if status.is_preperiodic:
                model = _CoordModel("preperiodic", phi, status.prefix, tail=status.tail, cycle=status.cycle_length)
            elif phi.is_polynomial and not status.proven:
                # escape proves that a polynomial orbit wanders; a rational orbit is
                # taken to wander once its height passes the status cutoff
                raise PrecisionExhausted(f"cannot prove coordinate {i} non-preperiodic")
            else:
                model = self._stream_model(phi, status.prefix, lookup)
            self.models.append(model)
        cycles = [m for m in self.models if m.kind == "preperiodic"]
        self.preperiodic_cycle_lcm = math.lcm(*(m.cycle for m in cycles))
        self.max_tail = max((m.tail for m in cycles), default=0)
        self.all_preperiodic = len(cycles) == len(self.models)
        self._stream_ids = sorted({m.stream for m in self.models if m.kind == "stream"})
        # the first index from which every preperiodic coordinate is on its
        # cycle and every aliased coordinate reads its stream
        self._structural_base = max([self.max_tail] + [len(m.prefix) for m in self.models if m.kind == "stream"])
        self._structural_cache: dict = {}
        self._residue_cache: dict = {}

    # -- setup ------------------------------------------------------------------

    def _pick_control_primes(self):
        """The first primes above 2^61 at which every map has good reduction
        and every finite start is integral, with each map's reduction there."""
        primes, reductions = [], []
        i = 0
        while len(primes) < CONTROL_PRIME_COUNT:
            q = _control_candidate(i)
            i += 1
            if any(x.b % q == 0 for x in self.alpha if x.b):
                continue
            try:
                reductions.append({phi: reduce_map(phi, q) for phi in dict.fromkeys(self.maps)})
            except BadReduction:
                continue
            primes.append(q)
        return tuple(primes), reductions

    def _stream_model(self, phi: RationalMap, prefix, lookup) -> _CoordModel:
        """Alias a wandering coordinate onto an earlier stream at the first
        exact value they share, or open a stream for it; `prefix` starts its orbit."""
        stream = _Stream(phi, prefix, [r[phi] for r in self._reductions])
        for b in range(PREFIX_LIMIT):
            value = stream.exact_value(b)
            if value is None:
                break
            if (phi, value) in lookup:
                s, a = lookup[(phi, value)]
                return _CoordModel("stream", phi, tuple(stream.exact[:b]), stream=s, delta=a - b)
        self.streams.append(stream)
        s = len(self.streams) - 1
        for a, value in enumerate(stream.exact[:PREFIX_LIMIT]):
            lookup.setdefault((phi, value), (s, a))
        return _CoordModel("stream", phi, (), stream=s, delta=0)

    # -- values ---------------------------------------------------------------------

    def record(self) -> OrbitRecord:
        return OrbitRecord(
            tuple(self.maps),
            tuple(self.alpha),
            tuple(m.kind == "preperiodic" for m in self.models),
            tuple(m.tail for m in self.models),
            tuple(m.cycle for m in self.models),
        )

    def coordinate_value(self, model: _CoordModel, n: int) -> PPoint | None:
        """Coordinate `model` of Phi^n(alpha) exactly, or None past the exact horizon."""
        if n < len(model.prefix):
            return model.prefix[n]
        if model.kind == "preperiodic":
            return model.prefix[model.tail + (n - model.tail) % model.cycle]
        return self.streams[model.stream].exact_value(n + model.delta)

    def exact_point(self, n: int) -> list[PPoint] | None:
        """All coordinates of Phi^n(alpha) as exact points, or None past the horizon."""
        out = []
        for m in self.models:
            v = self.coordinate_value(m, n)
            if v is None:
                return None
            out.append(v)
        return out

    # -- membership -------------------------------------------------------------------

    def is_hit(self, generators, n: int) -> bool:
        """Exact membership of Phi^n(alpha) in the common zero locus."""
        gens = list(generators)
        if not gens:
            return True
        point = self.exact_point(n)
        if point is None:
            return all(self._generator_vanishes(gen, n) for gen in gens)
        if any(p.is_infinity for p in point):
            return False
        coords = [(p.a, p.b) for p in point]
        return all(_cleared(gen, coords, 0) == 0 for gen in gens)

    def _generator_vanishes(self, gen: Polynomial, n: int) -> bool:
        """gen at Phi^n(alpha) past the exact horizon.

        The first control prime at which every coordinate is finite decides:
        a nonzero residue is a miss, and a zero one hands over to the class
        structure, which holds there because that prime sees every
        coordinate finite.  The remaining primes run only when the structure
        does not settle the index.
        """
        if gen.is_zero:
            return True
        count = len(self.control_primes)
        for qi in range(count):
            value = self._modular_value(gen, n, qi)
            if value is None:
                continue
            if value:
                return False
            verdict = self._structural_verdict(gen, n)
            if verdict != "unknown":
                return verdict == "zero"
            if any(self._modular_value(gen, n, qj) for qj in range(qi + 1, count)):
                return False
            raise PrecisionExhausted(
                f"membership at index {n} is beyond the exact horizon and has no structural certificate"
            )
        raise PrecisionExhausted(f"no control prime sees every coordinate at index {n} finite")

    def _modular_value(self, gen: Polynomial, n: int, qi: int) -> int | None:
        """gen at Phi^n(alpha) mod the qi-th control prime; None when some
        coordinate's residue there is at infinity, which tells nothing."""
        q = self.control_primes[qi]
        coords = []
        for m in self.models:
            if m.kind == "stream" and n >= len(m.prefix):
                r = self.streams[m.stream].residue(n + m.delta, qi)
            else:
                pt = self.coordinate_value(m, n)
                if pt.is_infinity:
                    return 1  # off the affine chart: not on the variety
                r = reduce_point(pt, q)
            if r is INF_RESIDUE:
                return None
            coords.append(r)
        return residue_eval(self._generator_residues(gen, qi), coords, q)

    def _generator_residues(self, gen: Polynomial, qi: int) -> dict:
        """gen's coefficients mod the qi-th control prime, reduced once per scanner."""
        key = (id(gen), qi)
        if key not in self._residue_cache:
            try:
                # the entry holds gen, so its id stays unique while cached
                self._residue_cache[key] = (gen, gen.residues(self.control_primes[qi]))
            except ZeroDivisionError:
                raise PrecisionExhausted("control prime collides with a coefficient") from None
        return self._residue_cache[key][1]

    # -- structural analysis --------------------------------------------------------------

    def substituted_generator(self, gen: Polynomial, n_class: int) -> tuple[Polynomial | None, list[int]]:
        """Generator with preperiodic coordinates frozen and stream coordinates
        written as iterates of one variable per stream, denominators cleared.

        Valid for indices n >= max(tails, len(prefix)) with n = n_class modulo
        the preperiodic cycle lcm, wherever every coordinate is finite.
        Returns the polynomial in variables u1..um plus, per stream variable,
        the sample shift: the stream value to substitute for uj at index n is
        stream(n + shift_j).  The polynomial is None when a preperiodic
        coordinate sits at infinity on the class.
        """
        key = (id(gen), n_class % self.preperiodic_cycle_lcm)
        if key not in self._structural_cache:
            # the entry holds gen, so its id stays unique while cached
            self._structural_cache[key] = (gen, self._substitute(gen, n_class))
        return self._structural_cache[key][1]

    def _substitute(self, gen: Polynomial, n_class: int) -> tuple[Polynomial | None, list[int]]:
        stream_ids = self._stream_ids
        base_shift = {s: min(m.delta for m in self.models if m.stream == s) for s in stream_ids}
        u_names = tuple(f"u{j + 1}" for j in range(len(stream_ids)))
        coords = []
        for m in self.models:
            if m.kind == "preperiodic":
                pt = m.prefix[m.tail + (n_class - m.tail) % m.cycle]
                if pt.is_infinity:
                    return None, []
                coords.append((pt.a, pt.b))
            else:
                u_name = u_names[stream_ids.index(m.stream)]
                coords.append(_iterate_fraction(m.phi, m.delta - base_shift[m.stream], u_name, u_names))
        return _cleared(gen, coords, Polynomial(u_names, {})), [base_shift[s] for s in stream_ids]

    def _structural_verdict(self, gen: Polynomial, n: int) -> str:
        if n < self._structural_base:
            return "unknown"
        sub, shifts = self.substituted_generator(gen, n)
        if sub is None:
            # a preperiodic coordinate sits at infinity on this class
            return "nonzero"
        if sub.is_constant():
            return "zero" if sub.is_zero else "nonzero"
        live = [j for j, name in enumerate(sub.variables) if sub.degree(name)]
        if len(live) == 1:
            j = live[0]
            univ = sub.with_variables((sub.variables[j],))
            threshold = self.streams[self._stream_ids[j]].eventually_exceeds(_cauchy_root_bound_log2(univ))
            if threshold is not None and n + shifts[j] >= threshold:
                return "nonzero"
        return "unknown"

    # -- convenience -------------------------------------------------------------------------

    def scan(self, generators, limit: int) -> list[int]:
        """Hit indices n <= limit: exact evaluation up to the exact horizon,
        then is_hit's modular and structural path, with the first control
        prime's stream tracks extended once to the limit."""
        gens = list(generators)
        for m in self.models:
            if m.kind == "stream":
                self.streams[m.stream].residue(limit + m.delta, 0)
        return [n for n in range(limit + 1) if self.is_hit(gens, n)]

    def class_is_structurally_zero(self, generators, n_class: int) -> bool:
        """Proof that every generator vanishes on the whole class (all n >= base)
        wherever every coordinate is finite."""
        return all(
            sub is not None and sub.is_zero
            for sub, _ in (self.substituted_generator(gen, n_class) for gen in generators)
        )


def _iterate_fraction(phi: RationalMap, k: int, var: str, variables) -> tuple[Polynomial, Polynomial]:
    """(N, D) over `variables` with phi^k(var) = N(var) / D(var); D is a
    constant when phi is a polynomial."""
    num, den = phi.iterate_forms(k, var)
    return num.with_variables(variables), den.with_variables(variables)


def _cleared(gen: Polynomial, coords, zero):
    """gen at x_i = N_i / D_i times the product of D_i ** deg_{x_i}(gen).

    `coords` holds one (N_i, D_i) pair per variable of gen, as ints or as
    Polynomials; where every D_i is nonzero the result vanishes exactly when
    gen does.  `zero` is the zero of the result's ring.
    """
    tops = [gen.degree(v) or 0 for v in gen.variables]
    total = zero
    for exps, c in gen.terms.items():
        term = c
        for (num, den), e, top in zip(coords, exps, tops):
            term = term * num**e * den ** (top - e)
        total = total + term
    return total


def _cauchy_root_bound_log2(univ: Polynomial) -> int:
    """Integer upper bound for log2 of the largest real root magnitude."""
    coeffs = univ.univariate_coeffs()
    lead = abs(coeffs[-1])
    worst = max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))
    bound = 1 + worst
    return bound.numerator.bit_length() - bound.denominator.bit_length() + 2
