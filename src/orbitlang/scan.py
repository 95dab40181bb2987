"""Exact orbit/variety membership scanning at desk scale.

Orbit values of a degree-d polynomial map grow doubly exponentially, so a
scan to n = 1000 cannot hold exact values.  Membership of the orbit point in
a variety is still decided exactly by combining:

* exact rational evaluation while coordinate heights stay below a cap;
* orbit-shift structure: coordinates whose starting values lie on a common
  orbit are aliases of one stream, so each generator restricted to a class
  becomes a polynomial in one stream value per stream - identically zero
  means a certified hit for every index of the class;
* escape growth: past its escape index a stream grows monotonically, so a
  nonzero univariate substituted generator cannot vanish once the stream
  value provably exceeds the generator's root bound;
* modular certificates: a generator value nonzero modulo one of several
  61-bit control primes is certainly nonzero.

When none of those resolve an index the scanner raises PrecisionExhausted
rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhausted
from .dynsys import PPoint, RationalMap, escape_radius, orbit_status
from .padics import next_prime, residue
from .polynomials import Polynomial, poly_eval, residue_eval

__all__ = ["OrbitScanner", "OrbitRecord"]

EXACT_BITS_CAP = 65536
PREFIX_LIMIT = 48
CONTROL_PRIME_COUNT = 5


def _log2_bounds(q: Fraction) -> tuple[int, int]:
    """Integer lo <= log2|q| <= hi for a nonzero rational."""
    num, den = abs(q.numerator), q.denominator
    lo = num.bit_length() - den.bit_length() - 1
    return lo, lo + 2


class _Stream:
    """One wandering orbit: exact prefix, modular continuations, growth bounds."""

    def __init__(self, phi: RationalMap, start: Fraction, control_primes):
        self.phi = phi
        self.coeffs = phi.affine_coefficients()
        self.start = Fraction(start)
        self.exact: list[Fraction] = [self.start]
        self.exact_done = False
        self.control_primes = control_primes
        # control primes avoid the map's denominators, so these reductions exist
        self.residues = [[residue(self.start, q)] for q in control_primes]
        self._coeff_residues = [[residue(c, q) for c in reversed(self.coeffs)] for q in control_primes]
        # monotone escape (|f(z)| >= 2|z| beyond the radius) needs degree >= 2
        self.radius = escape_radius(self.coeffs) if phi.degree >= 2 else None
        self.escape_at: int | None = None
        self._lead_log = _log2_bounds(self.coeffs[-1])
        self.log_lo: list[int | None] = [None]
        self.log_hi: list[int | None] = [None]
        self._refresh_growth(0)

    def _refresh_growth(self, n: int):
        v = self.exact[n] if n < len(self.exact) else None
        if v is None:
            return
        if self.radius is not None and self.escape_at is None and abs(v) >= self.radius:
            self.escape_at = n
        if self.escape_at is not None and v != 0:
            lo, hi = _log2_bounds(v)
            self.log_lo[n], self.log_hi[n] = lo, hi

    def extend(self, n: int):
        """Make index n available on every track that can still advance."""
        d = self.phi.degree
        while len(self.residues[0]) <= n:
            m = len(self.residues[0]) - 1
            for qi, q in enumerate(self.control_primes):
                x = self.residues[qi][m]
                acc = 0
                for c in self._coeff_residues[qi]:
                    acc = (acc * x + c) % q
                self.residues[qi].append(acc)
            if not self.exact_done and len(self.exact) == m + 1:
                value = poly_eval(self.coeffs, self.exact[m])
                if max(abs(value.numerator), value.denominator).bit_length() > EXACT_BITS_CAP:
                    self.exact_done = True
                else:
                    self.exact.append(value)
            self.log_lo.append(None)
            self.log_hi.append(None)
            idx = m + 1
            if idx < len(self.exact):
                self._refresh_growth(idx)
            elif self.escape_at is not None and self.log_lo[m] is not None:
                llo, lhi = self._lead_log
                self.log_lo[idx] = d * self.log_lo[m] + llo - 1
                self.log_hi[idx] = d * self.log_hi[m] + lhi + 1

    def exact_value(self, n: int) -> Fraction | None:
        if n < len(self.exact):
            return self.exact[n]
        return None

    def residue(self, n: int, qi: int) -> int:
        self.extend(n)
        return self.residues[qi][n]

    def eventually_exceeds(self, bound_log2: int) -> int | None:
        """Smallest index from which |value| > 2**bound_log2 forever, if provable."""
        if self.escape_at is None:
            return None
        n = self.escape_at
        while True:
            self.extend(n)
            lo = self.log_lo[n] if n < len(self.log_lo) else None
            if lo is None:
                v = self.exact_value(n)
                if v is None:
                    return None
                if v != 0 and _log2_bounds(v)[0] > bound_log2:
                    return n
            elif lo > bound_log2:
                return n
            n += 1
            if n > len(self.exact) + 4096:
                return None


@dataclass(frozen=True)
class _CoordModel:
    index: int
    kind: str  # "preperiodic" | "stream" | "exact-only"
    phi: RationalMap
    start: PPoint
    # preperiodic data
    prefix: tuple | None = None
    tail: int | None = None
    cycle: int | None = None
    # stream data
    stream: int | None = None
    delta: int | None = None
    valid_from: int | None = None


@dataclass(frozen=True)
class OrbitRecord:
    """Summary of the orbit cache and preperiodicity verdicts per coordinate."""

    maps: tuple[RationalMap, ...]
    start: tuple[PPoint, ...]
    preperiodic: tuple[bool, ...]
    tails: tuple[int | None, ...]
    cycles: tuple[int | None, ...]


class OrbitScanner:
    """Exact hit-testing of Phi^n(alpha) against polynomial generators."""

    def __init__(self, maps, alpha):
        self.maps = list(maps)
        self.alpha = [PPoint.of(a) for a in alpha]
        if len(self.maps) != len(self.alpha):
            raise ValueError("one map per coordinate")
        self.g = len(self.maps)
        self.models: list[_CoordModel] = []
        self.streams: list[_Stream] = []
        self._statuses = []
        wanderers = []
        for i, (phi, x) in enumerate(zip(self.maps, self.alpha)):
            status = orbit_status(phi, x)
            self._statuses.append(status)
            if status.is_preperiodic:
                self.models.append(
                    _CoordModel(
                        i,
                        "preperiodic",
                        phi,
                        x,
                        prefix=status.prefix,
                        tail=status.tail,
                        cycle=status.cycle_length,
                    )
                )
            elif phi.is_polynomial and not x.is_infinity:
                if not status.proven:
                    raise PrecisionExhausted(f"cannot prove coordinate {i} non-preperiodic")
                self.models.append(None)  # placeholder, filled by stream assembly
                wanderers.append(i)
            else:
                self.models.append(_CoordModel(i, "exact-only", phi, x))
        self.control_primes = self._pick_control_primes()
        self._assemble_streams(wanderers)
        self._structural_cache: dict = {}
        self._residue_cache: dict = {}

    # -- setup ------------------------------------------------------------------

    def _pick_control_primes(self):
        needed = set()
        for phi, x in zip(self.maps, self.alpha):
            if phi.is_polynomial:
                for c in phi.affine_coefficients():
                    needed.add(c.denominator)
            needed.add(x.b if x.b else 1)
        primes = []
        seed = (1 << 61) + 7
        while len(primes) < CONTROL_PRIME_COUNT:
            q = next_prime(seed)
            seed = q + 2
            if all(d % q for d in needed if d):
                primes.append(q)
        return tuple(primes)

    def _assemble_streams(self, wanderers):
        lookup: dict[Fraction, tuple[int, int]] = {}
        for i in wanderers:
            phi = self.maps[i]
            start = self.alpha[i].as_fraction()
            stream_id = None
            # prefix of this coordinate's own orbit, for collision search
            prefix = [start]
            while len(prefix) < PREFIX_LIMIT:
                nxt = poly_eval(phi.affine_coefficients(), prefix[-1])
                if max(abs(nxt.numerator), nxt.denominator).bit_length() > EXACT_BITS_CAP:
                    break
                prefix.append(nxt)
            hit = None
            for b, value in enumerate(prefix):
                key = (self._map_key(phi), value)
                if key in lookup:
                    hit = (lookup[key], b)
                    break
            if hit is None:
                stream = _Stream(phi, start, self.control_primes)
                self.streams.append(stream)
                stream_id = len(self.streams) - 1
                for a, value in enumerate(prefix):
                    lookup.setdefault((self._map_key(phi), value), (stream_id, a))
                model = _CoordModel(i, "stream", phi, self.alpha[i], stream=stream_id, delta=0, valid_from=0)
            else:
                (stream_id, a), b = hit
                model = _CoordModel(
                    i,
                    "stream",
                    phi,
                    self.alpha[i],
                    stream=stream_id,
                    delta=a - b,
                    valid_from=b,
                )
            self.models[i] = model

    def _map_key(self, phi: RationalMap):
        return (phi.coeffs_f, phi.coeffs_g)

    # -- values ---------------------------------------------------------------------

    def record(self) -> OrbitRecord:
        return OrbitRecord(
            tuple(self.maps),
            tuple(self.alpha),
            tuple(m.kind == "preperiodic" for m in self.models),
            tuple(m.tail for m in self.models),
            tuple(m.cycle for m in self.models),
        )

    @property
    def preperiodic_cycle_lcm(self) -> int:
        out = 1
        for m in self.models:
            if m.kind == "preperiodic":
                out = out * m.cycle // math.gcd(out, m.cycle)
        return out

    @property
    def max_tail(self) -> int:
        return max((m.tail for m in self.models if m.kind == "preperiodic"), default=0)

    @property
    def all_preperiodic(self) -> bool:
        return all(m.kind == "preperiodic" for m in self.models)

    def preperiodic_value(self, model: _CoordModel, n: int) -> PPoint:
        if n < len(model.prefix):
            return model.prefix[n]
        idx = model.tail + (n - model.tail) % model.cycle
        return model.prefix[idx]

    def exact_point(self, n: int) -> list[PPoint] | None:
        """All coordinates of Phi^n(alpha) as exact points, or None past the horizon."""
        out = []
        for m in self.models:
            if m.kind == "preperiodic":
                out.append(self.preperiodic_value(m, n))
            elif m.kind == "stream":
                stream = self.streams[m.stream]
                if n >= m.valid_from:
                    stream.extend(n + m.delta)
                    v = stream.exact_value(n + m.delta)
                else:
                    v = self._own_prefix_value(m, n)
                if v is None:
                    return None
                out.append(PPoint.of(v))
            else:
                v = self._exact_only_value(m, n)
                if v is None:
                    return None
                out.append(v)
        return out

    def _own_prefix_value(self, model: _CoordModel, n: int) -> Fraction | None:
        v = model.start.as_fraction()
        for _ in range(n):
            v = poly_eval(model.phi.affine_coefficients(), v)
        return v

    def _exact_only_value(self, model: _CoordModel, n: int, bits_cap: int = EXACT_BITS_CAP) -> PPoint | None:
        pt = model.start
        for _ in range(n):
            pt = model.phi.apply(pt)
            if pt.height_bits() > bits_cap:
                return None
        return pt

    # -- membership -------------------------------------------------------------------

    def is_hit(self, generators, n: int) -> bool:
        """Exact membership of Phi^n(alpha) in the common zero locus."""
        gens = list(generators)
        if not gens:
            return True
        point = self.exact_point(n)
        if point is not None:
            if any(p.is_infinity for p in point):
                return False
            values = {f"x{i + 1}": p.as_fraction() for i, p in enumerate(point)}
            return all(gen.evaluate(values) == 0 for gen in gens)
        return self._structural_hit(gens, n)

    def _structural_hit(self, gens, n: int) -> bool:
        for gen in gens:
            if not self._generator_vanishes(gen, n):
                return False
        return True

    def _generator_vanishes(self, gen: Polynomial, n: int) -> bool:
        if gen.is_zero:
            return True
        # modular pass: any visible nonzero residue settles it
        for qi, q in enumerate(self.control_primes):
            if self._modular_value(gen, n, qi, q) != 0:
                return False
        # every control residue vanished: resolve through structure
        verdict = self._structural_verdict(gen, n)
        if verdict == "zero":
            return True
        if verdict == "nonzero":
            return False
        raise PrecisionExhausted(
            f"membership at index {n} is beyond the exact horizon and has no structural certificate"
        )

    def _modular_value(self, gen: Polynomial, n: int, qi: int, q: int) -> int:
        coords = []
        for m in self.models:
            if m.kind == "preperiodic":
                pt = self.preperiodic_value(m, n)
                if pt.is_infinity:
                    return 1  # left affine space: not on the variety
                try:
                    coords.append(residue(pt.as_fraction(), q))
                except ZeroDivisionError:
                    raise PrecisionExhausted("control prime collides with a denominator") from None
            elif m.kind == "stream":
                stream = self.streams[m.stream]
                coords.append(stream.residue(n + m.delta, qi) if n >= m.valid_from else self._own_residue(m, n, q))
            else:
                raise PrecisionExhausted("exact-only coordinate past its horizon")
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

    def _own_residue(self, model: _CoordModel, n: int, q: int) -> int:
        return residue(self._own_prefix_value(model, n), q)

    # -- structural analysis --------------------------------------------------------------

    def substituted_generator(self, gen: Polynomial, n_class: int) -> tuple[Polynomial, list[int]]:
        """Generator with preperiodic coordinates frozen and stream coordinates
        written as iterates of one variable per stream.

        Valid for indices n >= max(tails, valid_from) with n = n_class modulo
        the preperiodic cycle lcm.  Returns the polynomial in variables
        u1..um plus, per stream variable, the sample shift: the stream value
        to substitute for uj at index n is stream(n + shift_j).
        """
        cycle = self.preperiodic_cycle_lcm
        key = (gen, n_class % cycle if cycle else 0)
        if key in self._structural_cache:
            return self._structural_cache[key]
        stream_ids = sorted({m.stream for m in self.models if m.kind == "stream"})
        base_shift = {
            s: min(m.delta for m in self.models if m.kind == "stream" and m.stream == s)
            for s in stream_ids
        }
        u_names = tuple(f"u{j + 1}" for j in range(len(stream_ids)))
        names = tuple(f"x{i + 1}" for i in range(self.g)) + u_names
        work = gen.with_variables(names)
        assignments = {}
        for m in self.models:
            var = f"x{m.index + 1}"
            if m.kind == "preperiodic":
                rep = m.tail + ((n_class - m.tail) % m.cycle)
                pt = m.prefix[rep]
                if pt.is_infinity:
                    # coordinate permanently outside the affine chart on this class
                    self._structural_cache[key] = (None, [])
                    return self._structural_cache[key]
                assignments[var] = Polynomial.constant(pt.as_fraction(), names)
            else:
                u_name = u_names[stream_ids.index(m.stream)]
                power = m.delta - base_shift[m.stream]
                assignments[var] = m.phi.iterate_polynomial(power, u_name).with_variables(names)
        work = work.substitute(assignments)
        work = work.drop_variables([f"x{i + 1}" for i in range(self.g)])
        shifts = [base_shift[s] for s in stream_ids]
        self._structural_cache[key] = (work, shifts)
        return self._structural_cache[key]

    def _structural_verdict(self, gen: Polynomial, n: int) -> str:
        cycle = self.preperiodic_cycle_lcm
        if n < self.max_tail or any(
            m.kind == "stream" and n < m.valid_from for m in self.models
        ):
            return "unknown"
        sub, shifts = self.substituted_generator(gen, n % cycle if cycle else 0)
        if sub is None:
            # a preperiodic coordinate sits at infinity on this class
            return "nonzero"
        if sub.is_zero:
            return "zero"
        if sub.is_constant():
            return "zero" if sub.constant_value() == 0 else "nonzero"
        live = [j for j, name in enumerate(sub.variables) if sub.degree(name)]
        if len(live) == 1:
            j = live[0]
            stream_ids = sorted({m.stream for m in self.models if m.kind == "stream"})
            stream = self.streams[stream_ids[j]]
            univ = sub.with_variables((sub.variables[j],))
            bound = _cauchy_root_bound_log2(univ)
            threshold = stream.eventually_exceeds(bound)
            if threshold is not None and n + shifts[j] >= threshold:
                return "nonzero"
        return "unknown"

    # -- convenience -------------------------------------------------------------------------

    def scan(self, generators, limit: int) -> list[int]:
        return [n for n in range(limit + 1) if self.is_hit(generators, n)]

    def class_is_structurally_zero(self, generators, n_class: int) -> bool:
        """Proof that every generator vanishes on the whole class (all n >= base)."""
        if any(m.kind == "exact-only" for m in self.models):
            return False
        for gen in generators:
            if gen.is_zero:
                continue
            sub, _ = self.substituted_generator(gen, n_class)
            if sub is None or not sub.is_zero:
                return False
        return True


def _cauchy_root_bound_log2(univ: Polynomial) -> int:
    """Integer upper bound for log2 of the largest real root magnitude."""
    coeffs = univ.univariate_coeffs()
    lead = abs(coeffs[-1])
    worst = max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))
    bound = 1 + worst
    return bound.numerator.bit_length() - bound.denominator.bit_length() + 2
