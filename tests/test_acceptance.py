"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and bound is pinned here; the suite is the exit gate for the
library.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest
import sympy

from orbitlang.analytic import TruncatedPadicSeries, orbit_interpolate, strassmann_count
from orbitlang.classify import (
    ChebyshevConjugate,
    Decomposition,
    Indecomposable,
    Neither,
    NotPeriodicUpTo,
    PeriodicWithPeriod,
    PowerConjugate,
    chebyshev,
    decompose,
    periodic_curve_candidates,
    power_or_chebyshev_class,
    verify_invariant_curve,
)
from orbitlang.dynsys import RationalMap, iterate
from orbitlang.engine import Certified, EngineOptions, brute_force_scan, decide
from orbitlang.intersection import bivariate_squarefree, diagonal_pullback, ramification_bound
from orbitlang.padics import primes_upto
from orbitlang.polynomials import Polynomial
from orbitlang.primesearch import (
    find_good_prime_quadratic,
    jones_density_estimate,
    qr_filter_for_minus_one,
    replay_certificate,
)
from orbitlang.reduction import reduce_map, reduce_point, residue_orbit
from orbitlang.varieties import AffineVariety, PlaneCurve

from oracles import hensel_zp_root_count


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.started = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.started
        status = "PASS" if elapsed < self.seconds else "FAIL(time)"
        print(f"[acceptance] {self.name}: {status} in {elapsed:.2f}s (budget {self.seconds}s) {detail}")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def mul_poly(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def test_criterion_1_strassmann_vs_hensel_oracle():
    budget = Budget("1 Strassmann vs Hensel oracle", 5.0)
    rng = random.Random(101)
    checked = split = bounded = 0
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        n_roots = rng.randint(0, min(3, p - 1))
        residues = rng.sample(range(1, p), n_roots)  # distinct mod p, away from 0
        roots = [r + p * rng.randint(0, p**3) for r in residues]
        poly = [1]
        for r in roots:
            poly = mul_poly(poly, [-r, 1])
        with_irrational = rng.random() < 0.5
        if with_irrational:
            poly = mul_poly(poly, [-p, 0, 1])  # t^2 - p: two unit-disk roots, none in Z_p
        unit = [1, p * rng.randint(0, p - 1), p * rng.randint(0, p - 1)]
        poly = mul_poly(poly, unit)
        series = TruncatedPadicSeries.from_rationals(poly, p, 16)
        count = strassmann_count(series)
        oracle = hensel_zp_root_count(poly, p, levels=12)
        assert oracle == len(roots)
        if with_irrational:
            assert count == len(roots) + 2
            assert count >= oracle
            bounded += 1
        else:
            assert count == oracle
            split += 1
        checked += 1
    assert checked == 200
    budget.done(f"({split} exact matches, {bounded} strict upper bounds)")


def test_criterion_2_divisor_structure():
    budget = Budget("2 divisor chain and squarefree layers", 30.0)
    cases = [
        (RationalMap.quadratic(1), 2),
        (RationalMap.quadratic(2), 2),
        (RationalMap.polynomial([0, 1, 0, 1]), 3),
    ]
    for phi, d in cases:
        pullback = diagonal_pullback(phi, 5, cap=5)  # construction verifies the chain products
        for n in range(6):
            assert pullback.chain[n].degree("x") == d**n
            assert pullback.chain[n].degree("y") == d**n
        for n in range(6):
            Y = pullback.layers[n]
            assert bivariate_squarefree(Y), (phi, n)
            if n:
                assert pullback.chain[n - 1] * Y == pullback.chain[n]
    budget.done("(f in {t^2+1, t^2+2, t^3+t}, n <= 5)")


def test_criterion_3_multiplicity_bound():
    budget = Budget("3 layer-count bound by ramification", 10.0)
    f = RationalMap.quadratic(1)
    M = ramification_bound(f)
    assert M == 2
    layers = diagonal_pullback(f, 6, cap=6).layers
    rng = random.Random(202)
    for _ in range(100):
        P = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        Q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        count = sum(1 for Y in layers if Y.evaluate({"x": P, "y": Q}) == 0)
        assert count <= M, (P, Q)
    budget.done("(100 random points of height <= 50, n <= 6)")


def test_criterion_4_prime_certificates_replay():
    budget = Budget("4 prime certificates and replay", 1.0)
    f1 = RationalMap.quadratic(1)
    cert = find_good_prime_quadratic(f1, [0], 100)
    assert cert.prime == 3
    orbit = cert.witnesses["critical_residue_orbit"]
    assert orbit["tail"] > 0  # 0 is not periodic mod 3
    fv = reduce_map(f1, 3)
    again = residue_orbit(fv, 0)
    assert again.tail == orbit["tail"] and list(again.cycle) == orbit["cycle"]
    for cycle in cert.witnesses["cycles"]:
        for z in cycle:
            if z is not None:
                assert 2 * z % 3 != 0
    assert replay_certificate(cert, f1, [0])

    fm = RationalMap.quadratic(-1)
    qr = qr_filter_for_minus_one(fm, [Fraction(1, 2)], 13)
    assert qr.prime == 5
    assert qr.witnesses["legendre"]["symbol"] == -1
    assert pow(2, (qr.prime - 1) // 2, qr.prime) == qr.prime - 1
    assert replay_certificate(qr, fm, [Fraction(1, 2)])
    budget.done("(p=3 for t^2+1, p=5 for the QR filter)")


def _graph_generator(f: RationalMap, r: int, g: int, source: int = 0, target: int = 1) -> Polynomial:
    """x_{target+1} = f^r(x_{source+1}) as a generator in x1..xg."""
    names = tuple(f"x{i + 1}" for i in range(g))
    fr = f.iterate_polynomial(r)
    terms = {}
    for (e,), coeff in fr.terms.items():
        key = [0] * g
        key[source] = e
        terms[tuple(key)] = -coeff
    tkey = [0] * g
    tkey[target] = 1
    tkey = tuple(tkey)
    terms[tkey] = terms.get(tkey, Fraction(0)) + 1
    return Polynomial(names, terms)


def _line(coeffs, g):
    names = tuple(f"x{i + 1}" for i in range(g))
    terms = {(0,) * g: Fraction(coeffs[-1])}
    for i in range(g):
        key = [0] * g
        key[i] = 1
        terms[tuple(key)] = Fraction(coeffs[i])
    return Polynomial(names, terms)


def test_criterion_5_engine_agreement():
    budget = Budget("5 decision engine agrees with the exact scan", 300.0)
    rng = random.Random(303)
    N = 1000
    opts = EngineOptions(scan_limit=N, prime_bound=2000)
    f1, f2, fm, fh = (RationalMap.quadratic(c) for c in (1, 2, -1, Fraction(3, 2)))
    start = {f1: Fraction(0), f2: Fraction(0), fm: Fraction(1, 2), fh: Fraction(1, 2)}

    instances = []
    # invariant graphs y = f^r(x) for every c, r = 1 and one r = 2 case per map
    for f in (f1, f2, fm, fh):
        a = start[f]
        fa = iterate(f, a, 1).as_fraction()
        f2a = iterate(f, a, 2).as_fraction()
        instances.append(("graph-r1", f, [a, fa], [_graph_generator(f, 1, 2)]))
        instances.append(("graph-r2", f, [a, f2a], [_graph_generator(f, 2, 2)]))
    # diagonals with unrelated starts
    instances.append(("diagonal", f1, [Fraction(0), Fraction(1)], [_line([1, -1, 0], 2)]))
    instances.append(("diagonal", f2, [Fraction(1), Fraction(1, 3)], [_line([1, -1, 0], 2)]))
    instances.append(("diagonal", fm, [Fraction(1, 2), Fraction(1, 3)], [_line([1, -1, 0], 2)]))
    instances.append(("diagonal", fh, [Fraction(1, 2), Fraction(1, 5)], [_line([1, -1, 0], 2)]))
    # g = 1 lines: one orbit hit, one miss
    instances.append(("g1-hit", f1, [Fraction(0)], [_line([1, -26], 1)]))
    instances.append(("g1-miss", f2, [Fraction(0)], [_line([1, -7], 1)]))
    # g = 3 invariant surface-curve: x2 = f(x1), x3 = f^2(x1)
    for f in (f1, fm):
        a = start[f]
        pts = [a, iterate(f, a, 1).as_fraction(), iterate(f, a, 2).as_fraction()]
        gens = [_graph_generator(f, 1, 3, 0, 1), _graph_generator(f, 2, 3, 0, 2)]
        instances.append(("g3-graphs", f, pts, gens))
    # random lines and conics of height <= 10
    for f in (f1, f2, fm, fh):
        a, b = start[f], start[f] + 2
        coeffs = [rng.randint(-10, 10) or 1 for _ in range(3)]
        instances.append(("random-line", f, [a, b], [_line(coeffs, 2)]))
        names = ("x1", "x2")
        conic = Polynomial(
            names,
            {
                (2, 0): rng.randint(1, 10),
                (0, 2): rng.randint(-10, 10),
                (1, 0): rng.randint(-10, 10),
                (0, 1): rng.randint(-10, 10),
                (0, 0): rng.randint(-10, 10),
            },
        )
        instances.append(("random-conic", f, [a, b], [conic]))

    assert len(instances) >= 20
    graph_checked = 0
    for label, f, alpha, gens in instances:
        variety = AffineVariety.of(gens, len(alpha))
        desc = decide(f, alpha, variety, opts)
        scan = brute_force_scan(f, alpha, variety, N)
        assert desc.described_indices(N) == scan, (label, f)
        if label.startswith(("graph", "g3")):
            assert isinstance(desc.certification, Certified), (label, f)
            assert desc.progressions, (label, f)
            p = desc.certification.prime
            k_res = 1
            for x in alpha:
                orb = residue_orbit(reduce_map(f, p), reduce_point(Fraction(x), p))
                k_res = sympy.lcm(k_res, orb.cycle_length)
            for prog in desc.progressions:
                assert k_res % prog.modulus == 0, (label, prog, k_res)
            assert desc.described_indices(N) == list(range(N + 1))
            graph_checked += 1
    budget.done(f"({len(instances)} instances, {graph_checked} full-progression graphs)")


def test_criterion_6_mahler_exactness():
    budget = Budget("6 Mahler coefficients of the scaling map", 1.0)
    for p in (3, 5):
        phi = RationalMap.polynomial([0, 1 + p])
        theta = orbit_interpolate(phi, 1, 1, 0, prime=p, order=64, precision=64)
        mod = p**64
        for j in range(49):
            assert theta.residues[j] == pow(p, j, mod), (p, j)
        value = 1
        for n in range(65):
            assert theta.evaluate_residue(n) == value % mod, (p, n)
            value *= 1 + p
    budget.done("(a_j = p^j for j <= 48; evaluation matches the orbit for n <= 64)")


def test_criterion_7_classification():
    budget = Budget("7 Chebyshev identity, conjugacy classes, decomposition", 30.0)
    t = sympy.Symbol("t")
    for m in range(13):
        Dm = chebyshev(m).to_sympy().as_expr()
        assert sympy.expand(Dm.subs(t, t + 1 / t) * t**m - t ** (2 * m) - 1) == 0

    rng = random.Random(404)
    conjugates = 0
    for _ in range(50):
        m = rng.randint(2, 6)
        A = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        B = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        tv = Polynomial.variable("t")
        mu = tv * A + B
        mu_inv = (tv - B) * (1 / A)
        for base, expected in (
            (Polynomial(("t",), {(m,): 1}), PowerConjugate(m)),
            (chebyshev(m), ChebyshevConjugate(m)),
        ):
            conj = mu_inv.substitute({"t": base.substitute({"t": mu})})
            assert power_or_chebyshev_class(conj) == expected
            perturbed = conj + Polynomial(("t",), {(0,): Fraction(1, 7)})
            assert power_or_chebyshev_class(perturbed) == Neither()
            conjugates += 1
    assert conjugates == 100

    result = decompose(Polynomial.univariate([0, 0, 1, 0, 1], "t"))
    assert isinstance(result, Decomposition)
    assert result.outer == Polynomial.univariate([0, 1, 1], "t")
    assert result.inner == Polynomial.univariate([0, 0, 1], "t")

    a, b, c, d = sympy.symbols("a b c d")
    for _ in range(50):
        coeffs = [rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9), 0, 1]
        f = Polynomial.univariate([Fraction(v) for v in coeffs], "t")
        assert isinstance(decompose(f), Indecomposable)
        g = a * t**2 + b * t + c
        h = t**2 + d * t
        eqs = sympy.Poly(sympy.expand(g.subs(t, h) - f.to_sympy().as_expr()), t).all_coeffs()
        assert not sympy.solve(eqs, [a, b, c, d], dict=True), coeffs
    budget.done("(identity m <= 12; 100 conjugates; 50 exhaustive indecomposables)")


def test_criterion_8_invariant_curves():
    budget = Budget("8 periodic-curve candidates verify", 30.0)
    cubic = Polynomial.univariate([0, 1, 0, 1], "t")  # t^3 + t
    candidates = periodic_curve_candidates(cubic, r_max=2)
    assert candidates
    for cand in candidates:
        verdict = verify_invariant_curve(cand.curve, cubic, 6)
        assert isinstance(verdict, PeriodicWithPeriod), cand
        assert verdict.period <= 6

    square = Polynomial.univariate([0, 0, 1], "t")
    anti_diagonal = PlaneCurve(Polynomial(("x", "y"), {(1, 0): 1, (0, 1): 1}))
    verdict = verify_invariant_curve(anti_diagonal, square, 5)
    assert isinstance(verdict, NotPeriodicUpTo)
    diag = Polynomial(("x", "y"), {(1, 0): 1, (0, 1): -1})
    assert verdict.chain[1] == diag and verdict.chain[2] == diag
    budget.done(f"({len(candidates)} candidates for t^3+t, r <= 2; preperiodic x+y=0 chain reported)")


def test_criterion_9_jones_density_shadow():
    budget = Budget("9 density of critical-zero residue hits", 120.0)
    below_half = 0
    fractions = {}
    for c in (1, 2, 3):
        f = RationalMap.quadratic(c)
        density = jones_density_estimate([f], [0], 100000)
        assert len(density.hits) == len(primes_upto(100000))  # exact per-prime bitmap
        fractions[c] = density.hit_fraction
        if density.hit_fraction < Fraction(1, 2):
            below_half += 1
    assert below_half >= 1
    budget.done(f"(hit fractions: {({c: float(v) for c, v in fractions.items()})})")
