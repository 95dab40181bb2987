"""Exact orbit/variety membership scanning at desk scale.

A scanner is built for one orbit and one variety: the generators are bound
when it is built, and every cache it keeps is keyed by generator index.
Orbit heights under a map of degree d >= 2 grow like d^n, so a scan to
n = 1000 cannot hold exact values.  Membership of the orbit point in the
variety is still decided exactly, by one kernel that settles a whole index
range and computes only what it reads, in three steps.

* The sieve: at a small prime of good reduction every residue orbit is
  eventually periodic, so one residue per class settles as misses all the
  indices of a class where some generator's residue is nonzero.
* The cuts: coordinates whose starting values lie on a common orbit are
  aliases of one stream, and exact orbit values are computed on demand below
  a height cap (the exact horizon).  A generator on a class n mod L (L the
  lcm of the preperiodic cycles) becomes, after clearing the denominators of
  the iterates, a polynomial in one stream value per stream; its verdict
  settles the rest of the class with no residue: identically zero is a hit
  past the horizon (where every coordinate is finite by structure); a
  nonzero constant, a preperiodic coordinate at infinity or an escaped
  stream (one that provably exceeds the root bound of a nonzero univariate
  substitution) is a miss.
* The control primes: any other index costs one residue per generator at
  the first of several 61-bit primes, and a nonzero one is a miss.  A zero
  one, or one at infinity, is decided by exact evaluation below the horizon,
  once per scanner, and past it by the class verdict, found there and then;
  when that settles nothing the remaining primes run, and when none shows a
  nonzero residue the scanner raises PrecisionExhausted rather than guessing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadReduction, PrecisionExhausted
from .dynsys import EXACT_BITS_CAP, PPoint, RationalMap, escape_radius, orbit_status
from .padics import is_prime, next_prime
from .polynomials import Polynomial, residue_eval
from .reduction import INF_RESIDUE, ReducedMap, RPoint, reduce_map, reduce_point, residue_orbit

__all__ = ["OrbitScanner"]

PREFIX_LIMIT = 48
CONTROL_PRIME_COUNT = 5
SIEVE_PRIMES = tuple(q for q in range(2, 64) if is_prime(q))
# the residue of a prefix or cycle point at infinity: off the affine chart, so never a hit
_OFF_CHART = -1


@functools.cache
def _control_candidate(i: int) -> int:
    """The i-th candidate control prime above 2^61, found once per process."""
    return next_prime(_control_candidate(i - 1) + 2 if i else (1 << 61) + 7)


def _log2_lower(num: int, den: int) -> int:
    """Integer lo <= log2|num/den| for nonzero num."""
    return abs(num).bit_length() - den.bit_length() - 1


class _Stream:
    """One wandering orbit: exact values on demand, control-prime tracks, growth bounds.

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

    def past_cap(self, x: PPoint) -> bool:
        """Whether phi(x) is provably past the height cap, without computing it.

        For polynomial forms F = sum f_i X^i Y^(d-i), G = g0 Y^d and
        K = 1 + sum_{i<d} |f_i|, max(|F(a, b)|, |G(a, b)|) >= max(|a|, |b|)^d / K^d
        and gcd(F(a, b), G(a, b)) divides g0 f_d^d.
        """
        phi, f = self.phi, self.phi.coeffs_f
        slack = phi.degree * ((1 + sum(map(abs, f[:-1]))).bit_length() + abs(f[-1]).bit_length())
        slack += abs(phi.coeffs_g[0]).bit_length()
        return phi.is_polynomial and phi.degree * (x.height_bits() - 1) - slack >= EXACT_BITS_CAP

    def exact_value(self, n: int) -> PPoint | None:
        """The n-th orbit point, or None past the height cap."""
        while not self.exact_done and len(self.exact) <= n:
            if self.past_cap(self.exact[-1]):
                self.exact_done = True
                break
            value = self.phi.apply(self.exact[-1])
            if value.height_bits() > EXACT_BITS_CAP:
                self.exact_done = True
            else:
                self.exact.append(value)
        return self.exact[n] if n < len(self.exact) else None

    def track(self, n: int, qi: int) -> list[RPoint]:
        """The qi-th control prime's residues, extended through index n."""
        track, model = self.residues[qi], self.reduced[qi]
        while len(track) <= n:
            track.append(model.apply(track[-1]))
        return track

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


class OrbitScanner:
    """Exact hit-testing of Phi^n(alpha) against one variety: its polynomial
    generators in x1..xg, bound at construction (an empty list is the whole
    space).  The per-generator helpers take the generator's index j."""

    def __init__(self, maps, alpha, generators):
        self.maps = list(maps)
        self.alpha = [PPoint.of(a) for a in alpha]
        self.generators = list(generators)
        if len(self.maps) != len(self.alpha):
            raise ValueError("one map per coordinate")
        self.control_primes, self._reductions = self._pick_control_primes()
        self.models: list[_CoordModel] = []
        self.streams: list[_Stream] = []
        for i, (phi, x) in enumerate(zip(self.maps, self.alpha)):
            status = orbit_status(phi, x)
            if status.is_preperiodic:
                model = _CoordModel("preperiodic", phi, status.prefix, tail=status.tail, cycle=status.cycle_length)
            elif phi.is_polynomial and not status.proven:
                # escape proves that a polynomial orbit wanders; a rational orbit is
                # taken to wander once its height passes the status cutoff
                raise PrecisionExhausted(f"cannot prove coordinate {i} non-preperiodic")
            else:
                model = self._stream_model(phi, status.prefix)
            self.models.append(model)
        cycles = [m for m in self.models if m.kind == "preperiodic"]
        self.preperiodic_cycle_lcm = math.lcm(*(m.cycle for m in cycles))
        self.max_tail = max((m.tail for m in cycles), default=0)
        self.stream_coords = [i for i, m in enumerate(self.models) if m.kind == "stream"]
        self._stream_ids = sorted({m.stream for m in self.models if m.kind == "stream"})
        # the first index from which every preperiodic coordinate is on its
        # cycle and every aliased coordinate reads its stream
        self._structural_base = max([self.max_tail] + [len(m.prefix) for m in self.models if m.kind == "stream"])
        # a polynomial stream never reaches infinity, so zero verdicts can make hits
        self._finite_streams = all(m.phi.is_polynomial for m in self.models if m.kind == "stream")
        self._heads: dict = {}
        self._sieves: dict = {}
        self._tables: dict = {}
        # (j, class) -> generator j's class verdict; (j, n) -> its exact membership at n
        self._verdicts: dict = {}
        self._exact: dict = {}

    # -- setup ------------------------------------------------------------------

    def _reductions_at(self, q: int) -> dict | None:
        """Each map's reduction at q, or None unless every map has good
        reduction there and every finite start is q-integral: the one test of
        control and sieve primes."""
        if any(x.b % q == 0 for x in self.alpha if x.b):
            return None
        try:
            return {phi: reduce_map(phi, q) for phi in dict.fromkeys(self.maps)}
        except BadReduction:
            return None

    def _pick_control_primes(self):
        """The first primes above 2^61 that pass `_reductions_at`, with each
        map's reduction there."""
        primes, reductions = [], []
        i = 0
        while len(primes) < CONTROL_PRIME_COUNT:
            q = _control_candidate(i)
            i += 1
            reduced = self._reductions_at(q)
            if reduced is not None:
                reductions.append(reduced)
                primes.append(q)
        return tuple(primes), reductions

    def _stream_model(self, phi: RationalMap, prefix) -> _CoordModel:
        """Alias a wandering coordinate onto an earlier stream at the first
        exact value they share, or open a stream for it; `prefix` starts its orbit.

        Values b and a of the two orbits count for a, b < PREFIX_LIMIT below the
        height cap: b ascending, then the streams in order, then a ascending.
        Equal values have equal residues, so the first control prime's tracks
        propose the pairs, and only their exact values are computed.
        """
        stream = _Stream(phi, prefix, [r[phi] for r in self._reductions])
        earlier = [(s, st, st.track(PREFIX_LIMIT - 1, 0)) for s, st in enumerate(self.streams) if st.phi == phi]
        for b, r in enumerate(stream.track(PREFIX_LIMIT - 1, 0) if earlier else ()):
            for s, st, track in earlier:
                for a in (a for a, ra in enumerate(track) if ra == r):
                    value = stream.exact_value(b)
                    if value is not None and st.exact_value(a) == value:
                        return _CoordModel("stream", phi, tuple(stream.exact[:b]), stream=s, delta=a - b)
        self.streams.append(stream)
        return _CoordModel("stream", phi, (), stream=len(self.streams) - 1, delta=0)

    @functools.cached_property
    def _horizon(self) -> float:
        """The first index with no exact point, where some stream passes the cap
        within PREFIX_LIMIT values; zero verdicts settle indices only from here on."""
        return min(
            (
                max(len(m.prefix), len(self.streams[m.stream].exact) - m.delta)
                for m in self.models
                if m.kind == "stream" and self.streams[m.stream].exact_value(PREFIX_LIMIT - 1) is None
            ),
            default=math.inf,
        )

    # -- values ---------------------------------------------------------------------

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

    def is_hit(self, n: int) -> bool:
        """Exact membership of Phi^n(alpha) in the variety."""
        return bool(self._hits(n, n))

    def scan(self, limit: int) -> list[int]:
        """Hit indices n <= limit."""
        return self._hits(0, limit)

    def _hits(self, lo: int, hi: int) -> list[int]:
        """The membership kernel: indices lo <= n <= hi at which every generator vanishes.

        The sieve goes first (`_sieve`).  An open index is then settled with no
        residue from a miss cut of one generator (`_cut`), or as a hit past the
        horizon where `structurally_zero_from` proves its class, once the
        verdicts there are found.  Otherwise each generator costs one residue at
        the first control prime; a nonzero one is a miss, and a hit cut stands
        in for a zero one where every residue is finite.  A zero one, or one at
        infinity, goes to `_vanishes`.
        """
        if not self.generators:
            return list(range(lo, hi + 1))
        period = self.preperiodic_cycle_lcm
        q = self.control_primes[0]
        tables = self._residue_tables(q)
        classes, hits = {}, []
        for n in self._sieve(lo, hi):
            c = n % period
            if c not in classes:
                # the cuts from the class verdicts found so far; a generator with none has no cut
                cuts = [self._cut(j, n) if (j, c) in self._verdicts else (math.inf, False) for j in range(len(tables))]
                zero = [cut if hit else math.inf for cut, hit in cuts]
                miss = min([math.inf] + [cut for cut, hit in cuts if not hit])
                # a zero verdict stands in for exact evaluation only past the horizon
                hit = self.structurally_zero_from(n, found_only=True)
                classes[c] = (miss, hit if math.isinf(hit) else max(hit, self._horizon), zero)
            miss, hit, zero = classes[c]
            if n >= miss:
                continue
            if n >= hit:
                hits.append(n)
                continue
            # the tracks are extended only as far as the open, uncut indices reach
            x = [self._coordinate_residue(i, n, 0) for i in range(len(self.models))]
            if _OFF_CHART in x:
                continue
            finite = INF_RESIDUE not in x
            for j, (table, zero_from) in enumerate(zip(tables, zero)):
                if finite and n >= zero_from:
                    continue
                seen = finite and table is not None
                if seen and residue_eval(table, x, q):
                    break
                # past the horizon this finds the class verdict, so the class's cuts are read again
                classes.pop(c, None)
                if not self._vanishes(j, n, seen):
                    break
            else:
                hits.append(n)
        return hits

    def _sieve(self, lo: int, hi: int) -> list[int]:
        """The indices lo..hi that no sieve prime settles as misses, in order.

        At a prime q that passes `_reductions_at`, an index n >= T reads the
        residues of its class c = n mod K in T..T+K-1 (`_sieve_orbits`), and one
        below T is a class of its own.  A class is a miss when every coordinate
        residue is finite and some generator with q-integral coefficients has a
        nonzero residue: good reduction commutes with the map, and a finite
        residue makes the coordinate q-integral.  The open indices are kept as
        progressions inside one class at every prime so far.  A prime with more
        classes than open indices is skipped, and a single open index is left to
        the control primes.  A true hit never settles, but a miss can read zero
        at one prime (the orbits of 0 and 2 under t^2+1 agree mod 2), so two
        idle primes in a row stop the sieve.
        """
        runs, count, idle = [range(lo, hi + 1)], hi - lo + 1, 0
        for q in SIEVE_PRIMES:
            if count < 2 or idle == 2:
                break
            tables = [t for t in self._residue_tables(q) if t is not None]
            sieve = self._sieve_orbits(q) if tables else None
            if sieve is None or sieve[1] > count:
                continue
            tail, period, paths = sieve
            pieces = []
            for run in runs:
                # the members below the tail one by one, then one progression per class
                below = min(len(run), max(0, -((run.start - tail) // run.step)))
                rest, stride = run[below:], period // math.gcd(period, run.step)
                pieces += [run[j : j + 1] for j in range(below)]
                pieces += [rest[j::stride] for j in range(min(stride, len(rest)))]
            classes = [n if n < tail else tail + (n - tail) % period for n in (piece[0] for piece in pieces)]
            points = {c: [p[c if c < t else t + (c - t) % (len(p) - t)] for p, t in paths] for c in set(classes)}
            finite = {c: x for c, x in points.items() if INF_RESIDUE not in x}
            settled = {c for c, x in finite.items() if any(residue_eval(table, x, q) for table in tables)}
            idle = 0 if settled else idle + 1
            runs = [piece for piece, c in zip(pieces, classes) if c not in settled]
            count = sum(map(len, runs))
        return sorted(n for run in runs for n in run)

    def _sieve_orbits(self, q: int) -> tuple[int, int, list] | None:
        """(T, K, per coordinate (path, tail)) at q, found once per scanner, or
        None where q fails `_reductions_at`: T is the largest residue-orbit
        tail, K the lcm of the cycle lengths, and a path holds the residues
        below the tail and then one cycle."""
        if q not in self._sieves:
            reduced, sieve = self._reductions_at(q), None
            if reduced is not None:
                paths = []
                for phi, x in zip(self.maps, self.alpha):
                    orbit = residue_orbit(reduced[phi], reduce_point(x, q))
                    path = [orbit.start]
                    while len(path) < orbit.tail:
                        path.append(reduced[phi].apply(path[-1]))
                    paths.append((path[: orbit.tail] + list(orbit.cycle), orbit.tail))
                sieve = (max(t for _, t in paths), math.lcm(*(len(p) - t for p, t in paths)), paths)
            self._sieves[q] = sieve
        return self._sieves[q]

    def _cut(self, j: int, n: int) -> tuple[float, bool]:
        """The index from which generator j's verdict settles every later index
        of the class of n, and whether as hits.  A zero verdict stands in for
        exact evaluation only past the horizon, and only where every coordinate
        is finite (a preperiodic coordinate at infinity makes the verdict nonzero)."""
        verdict, start = self._class_verdict(j, n)
        if verdict == "zero":
            return max(start, self._horizon), True
        return (start if verdict == "nonzero" else math.inf), False

    def _coordinate_residue(self, i: int, n: int, qi: int) -> RPoint:
        """Coordinate i's residue at the qi-th control prime at index n:
        INF_RESIDUE where the residue is at infinity, _OFF_CHART where a
        prefix or cycle point is."""
        m = self.models[i]
        if (i, qi) not in self._heads:
            q = self.control_primes[qi]
            self._heads[i, qi] = [_OFF_CHART if p.is_infinity else reduce_point(p, q) for p in m.prefix]
        head = self._heads[i, qi]
        if n < len(head):
            return head[n]
        if m.kind == "preperiodic":
            return head[m.tail + (n - m.tail) % m.cycle]
        return self.streams[m.stream].track(n + m.delta, qi)[n + m.delta]

    def _vanishes(self, j: int, n: int, seen: bool) -> bool:
        """Generator j at Phi^n(alpha), where the first control prime shows a
        zero residue (seen) or shows nothing.

        Below the exact horizon exact evaluation decides, once per scanner.  Past
        it the class structure decides at the first prime that sees every
        coordinate finite; only when it settles nothing do the remaining primes run.
        """
        if (j, n) in self._exact:
            return self._exact[j, n]
        point = self.exact_point(n)
        if point is not None:
            gen = self.generators[j]
            hit = not any(p.is_infinity for p in point) and _cleared(gen, [(p.a, p.b) for p in point], 1) == 0
            self._exact[j, n] = hit
            return hit
        residues = (self._residue(j, n, qi) for qi in range(1 if seen else 0, len(self.control_primes)))
        if not seen:
            value = next((r for r in residues if r is not None), None)
            if value is None:
                raise PrecisionExhausted(f"no control prime sees every coordinate at index {n} finite")
            if value:
                return False
        verdict = self._structural_verdict(j, n)
        if verdict != "unknown":
            return verdict == "zero"
        if any(residues):
            return False
        raise PrecisionExhausted(
            f"membership at index {n} is beyond the exact horizon and has no structural certificate"
        )

    def _residue(self, j: int, n: int, qi: int) -> int | None:
        """Generator j at Phi^n(alpha) mod the qi-th control prime; None when
        some coordinate's residue there is at infinity, which tells nothing."""
        x = [self._coordinate_residue(i, n, qi) for i in range(len(self.models))]
        if INF_RESIDUE in x:
            return None
        table = self._residue_tables(self.control_primes[qi])[j]
        if table is None:
            raise PrecisionExhausted("control prime collides with a coefficient")
        return residue_eval(table, x, self.control_primes[qi])

    def _residue_tables(self, q: int) -> list[dict | None]:
        """Each generator's coefficients mod the control or sieve prime q,
        reduced once per scanner; None for a generator with q in a
        coefficient's denominator."""
        if q not in self._tables:
            self._tables[q] = [gen.residues(q) if gen.den % q else None for gen in self.generators]
        return self._tables[q]

    # -- structural analysis --------------------------------------------------------------

    def substituted_generator(self, j: int, n_class: int) -> tuple[Polynomial | None, list[int]]:
        """Generator j with preperiodic coordinates frozen and stream coordinates
        written as iterates of one variable per stream, denominators cleared.

        Valid for indices n >= max(tails, len(prefix)) with n = n_class modulo
        the preperiodic cycle lcm, wherever every coordinate is finite.
        Returns the polynomial in variables u1..um plus, per stream variable,
        the sample shift: the stream value to substitute for uj at index n is
        stream(n + shift_j).  The polynomial is None when a preperiodic
        coordinate sits at infinity on the class.
        """
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
        sub = _cleared(self.generators[j], coords, Polynomial.constant(1, u_names))
        return sub, [base_shift[s] for s in stream_ids]

    def _class_verdict(self, j: int, n: int) -> tuple[str, float]:
        """Generator j's verdict on the class of n, found once per scanner:
        "zero", "nonzero" or "unknown", with the index from which it holds."""
        key = (j, n % self.preperiodic_cycle_lcm)
        if key not in self._verdicts:
            base = self._structural_base
            sub, shifts = self.substituted_generator(j, n)
            verdict = ("unknown", math.inf)
            if sub is None or sub.is_constant():
                # None: a preperiodic coordinate sits at infinity on this class
                verdict = ("zero" if sub is not None and sub.is_zero else "nonzero", base)
            elif len(live := [j for j, name in enumerate(sub.variables) if sub.degree(name)]) == 1:
                (j,) = live
                bound = _cauchy_root_bound_log2(sub.with_variables((sub.variables[j],)))
                threshold = self.streams[self._stream_ids[j]].eventually_exceeds(bound)
                if threshold is not None:
                    verdict = ("nonzero", max(base, threshold - shifts[j]))
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def _structural_verdict(self, j: int, n: int) -> str:
        verdict, start = self._class_verdict(j, n)
        return verdict if n >= start else "unknown"

    def structurally_zero_from(self, n: int, *, found_only: bool = False) -> float:
        """The index from which structure proves every index of the class of n
        a hit, or inf: the structural base when every stream map is a
        polynomial (so every coordinate is finite there) and every generator's
        class verdict is zero.  The hit cut of `_hits` and the engine's
        structural classes both read this; with found_only a verdict not yet
        found is not looked for, and the class has no cut."""
        c = n % self.preperiodic_cycle_lcm
        if not self._finite_streams:
            return math.inf
        for j in range(len(self.generators)):
            if found_only and (j, c) not in self._verdicts or self._class_verdict(j, n)[0] != "zero":
                return math.inf
        return self._structural_base

    # -- convenience -------------------------------------------------------------------------

    def class_is_structurally_zero(self, n_class: int) -> bool:
        """Proof that every generator vanishes on the whole class (all n >= base)
        wherever every coordinate is finite."""
        return all(self._class_verdict(j, n_class)[0] == "zero" for j in range(len(self.generators)))


def _iterate_fraction(phi: RationalMap, k: int, var: str, variables) -> tuple[Polynomial, Polynomial]:
    """(N, D) over `variables` with phi^k(var) = N(var) / D(var); D is a
    constant when phi is a polynomial."""
    num, den = phi.iterate_forms(k, var)
    return num.with_variables(variables), den.with_variables(variables)


def _cleared(gen: Polynomial, coords, one):
    """gen's numerators at x_i = N_i / D_i times the product of
    D_i ** deg_{x_i}(gen): gen.den (> 0) times gen's value there, with the
    denominators cleared.

    `coords` holds one (N_i, D_i) pair per variable of gen, as ints or as
    Polynomials, and `one` is the unit of their ring; where every D_i is
    nonzero the result vanishes exactly when gen does.  Each power N_i^e and
    D_i^e is taken once per call, and a factor equal to one is never
    multiplied in.
    """
    tops = [gen.degree(v) or 0 for v in gen.variables]
    powers: dict = {}
    total = one - one
    for exps, c in gen.num.items():
        term = None
        for i, ((num, den), e, top) in enumerate(zip(coords, exps, tops)):
            for side, base, k in ((0, num, e), (1, den, top - e)):
                if k and base != one:
                    key = (i, side, k)
                    if key not in powers:
                        powers[key] = base**k
                    term = powers[key] if term is None else term * powers[key]
        total = total + (c if term is None else term if c == 1 else term * c)
    return total


def _cauchy_root_bound_log2(univ: Polynomial) -> int:
    """Integer upper bound for log2 of the largest real root magnitude."""
    coeffs = univ.univariate_coeffs()
    lead = abs(coeffs[-1])
    worst = max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))
    bound = 1 + worst
    return bound.numerator.bit_length() - bound.denominator.bit_length() + 2
