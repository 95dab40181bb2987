"""Seeded inputs, operations and output oracles of the four benchmark workloads.

Each workload turns a seed into a fixed list of operations.  One operation
is one `orbitlang.cli.run` call (or, for prime-density, one library call,
because the CLI has no subcommand for it).  The program only ever sees the
generated inputs; the oracles below re-derive the mathematical answer
without trusting the stamp, which later changes may rightly weaken.

Polynomials are built here as plain {exponent tuple: Fraction} dicts, so
that the naive oracles evaluate them without the library's Polynomial.
"""

from __future__ import annotations

import io
import json
import random
from itertools import zip_longest
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

SCAN_LIMIT = 1000  # decide-scan: --nmax, the exact scan horizon N
DEEP_LIMIT = 64  # decide-deep: --nmax
NAIVE_STEPS = 10  # indices re-checked by plain Fraction iteration
DENSITY_BOUND = 100000
PRIMES_BELOW_DENSITY_BOUND = 9592  # pi(10^5)
DENSITY_SAMPLE = 200  # primes whose hit bit the benchmark re-walks per operation

GATE_MAPS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2))
GATE_STARTS = {Fraction(1): Fraction(0), Fraction(2): Fraction(0), Fraction(-1): Fraction(1, 2), Fraction(3, 2): Fraction(1, 2)}


class OracleMismatch(Exception):
    """An operation's answer disagrees with the workload's oracle."""


@dataclass
class Op:
    """One operation: `argv` for cli.run, or `c` for the density call."""

    label: str
    argv: list[str] | None = None
    c: int | None = None
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plain polynomial helpers (dict of exponent tuples -> Fraction)


def _quadratic(c: Fraction) -> list[Fraction]:
    return [Fraction(c), Fraction(0), Fraction(1)]


def _eval_univariate(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _compose(outer, inner):
    """Coefficients of outer(inner(t)) for univariate coefficient lists."""
    acc = [Fraction(0)]
    power = [Fraction(1)]
    for c in outer:
        acc = [a + c * b for a, b in zip_longest(acc, power, fillvalue=Fraction(0))]
        power = _mul(power, inner)
    return acc


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _iterate_coeffs(f, r: int):
    out = [Fraction(0), Fraction(1)]
    for _ in range(r):
        out = _compose(f, out)
    return out


def graph_generator(f, r: int, g: int, source: int = 0, target: int = 1) -> dict:
    """x_{target+1} - f^r(x_{source+1}) in g variables."""
    terms: dict = {}
    for e, c in enumerate(_iterate_coeffs(f, r)):
        if c:
            key = [0] * g
            key[source] = e
            terms[tuple(key)] = -c
    key = [0] * g
    key[target] = 1
    terms[tuple(key)] = terms.get(tuple(key), Fraction(0)) + 1
    return terms


def line(coeffs, g: int) -> dict:
    """coeffs[0]*x1 + ... + coeffs[g-1]*xg + coeffs[-1]."""
    terms = {(0,) * g: Fraction(coeffs[-1])}
    for i in range(g):
        key = [0] * g
        key[i] = 1
        terms[tuple(key)] = Fraction(coeffs[i])
    return terms


def format_terms(terms: dict) -> str:
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        parts.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(parts) or "0"


def evaluate_terms(terms: dict, point) -> Fraction:
    acc = Fraction(0)
    for exps, c in terms.items():
        term = c
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        acc += term
    return acc


def format_map(c: Fraction) -> str:
    return f"t^2+({c})"


def naive_hits(maps, alpha, generators, steps: int) -> list[int]:
    """Hit indices n <= steps of the orbit, by direct Fraction iteration."""
    point = [Fraction(a) for a in alpha]
    out = []
    for n in range(steps + 1):
        if all(evaluate_terms(gen, point) == 0 for gen in generators):
            out.append(n)
        point = [_eval_univariate(f, x) for f, x in zip(maps, point)]
    return out


# ---------------------------------------------------------------------------
# answers read back from the CLI's JSON


def cli_call(cli, argv) -> tuple[int, str]:
    stream = io.StringIO()
    code = cli.run(argv, stream=stream)
    return code, stream.getvalue()


def described_indices(result: dict, bound: int) -> list[int]:
    """Indices <= bound named by a decide result's progressions and exceptions."""
    out = {n for n in result["exceptional"] if n <= bound}
    for prog in result["progressions"]:
        first = prog["start"] * prog["modulus"] + prog["offset"]
        out.update(range(first, bound + 1, prog["modulus"]))
    return sorted(out)


def as_runs(indices) -> list[list[int]]:
    """Sorted indices as [first, last] runs of consecutive integers."""
    runs: list[list[int]] = []
    for n in indices:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return runs


def from_runs(runs) -> list[int]:
    return [n for first, last in runs for n in range(first, last + 1)]


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


# ---------------------------------------------------------------------------
# decide-scan: criterion-5 instances plus seeded multi-map instances


def _decide_argv(maps, alpha, generators, extra) -> list[str]:
    argv = ["--json", "decide"]
    if len(set(maps)) == 1:
        argv.append("--map=" + format_map(maps[0]))
    else:
        argv.append("--maps=" + ";".join(format_map(c) for c in maps))
    argv.append("--point=" + ",".join(str(a) for a in alpha))
    argv += ["--variety=" + format_terms(gen) for gen in generators]
    return argv + ["--witnesses"] + extra


def _orbit_point(c: Fraction, a: Fraction, n: int) -> Fraction:
    for _ in range(n):
        a = a * a + c
    return a


def decide_scan_instances(seed: int) -> list[tuple]:
    """(label, map shifts per coordinate, alpha, generators), gate order first.

    With seed 303 the first 24 are exactly the criterion-5 instances of the
    acceptance suite: the random lines and conics consume the seeded stream
    in the same order.
    """
    rng = random.Random(seed)
    out = []
    for c in GATE_MAPS:
        f = _quadratic(c)
        a = GATE_STARTS[c]
        out.append(("graph-r1", [c, c], [a, _orbit_point(c, a, 1)], [graph_generator(f, 1, 2)]))
        out.append(("graph-r2", [c, c], [a, _orbit_point(c, a, 2)], [graph_generator(f, 2, 2)]))
    diagonal = line([1, -1, 0], 2)
    for c, alpha in zip(GATE_MAPS, ([0, 1], [1, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 5)])):
        out.append(("diagonal", [c, c], [Fraction(v) for v in alpha], [diagonal]))
    out.append(("g1-hit", [Fraction(1)], [Fraction(0)], [line([1, -26], 1)]))
    out.append(("g1-miss", [Fraction(2)], [Fraction(0)], [line([1, -7], 1)]))
    for c in (Fraction(1), Fraction(-1)):
        f = _quadratic(c)
        a = GATE_STARTS[c]
        pts = [a, _orbit_point(c, a, 1), _orbit_point(c, a, 2)]
        out.append(("g3-graphs", [c, c, c], pts, [graph_generator(f, 1, 3, 0, 1), graph_generator(f, 2, 3, 0, 2)]))
    for c in GATE_MAPS:
        a = GATE_STARTS[c]
        alpha = [a, a + 2]
        coeffs = [rng.randint(-10, 10) or 1 for _ in range(3)]
        out.append(("random-line", [c, c], alpha, [line(coeffs, 2)]))
        conic = {
            (2, 0): Fraction(rng.randint(1, 10)),
            (0, 2): Fraction(rng.randint(-10, 10)),
            (1, 0): Fraction(rng.randint(-10, 10)),
            (0, 1): Fraction(rng.randint(-10, 10)),
            (0, 0): Fraction(rng.randint(-10, 10)),
        }
        out.append(("random-conic", [c, c], alpha, [conic]))
    # multi-map instances put find_good_prime_multi on the path
    for _ in range(4):
        c1, c2 = (Fraction(c) for c in rng.sample([1, 2, 3], 2))
        alpha = [Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))]
        coeffs = [rng.randint(1, 10), -rng.randint(1, 10), rng.randint(-10, 10)]
        out.append(("multi-line", [c1, c2], alpha, [line(coeffs, 2)]))
    return out


def decide_scan(seed: int, *, scan_limit: int = SCAN_LIMIT) -> list[Op]:
    extra = ["--pmax", "2000", "--nmax", str(scan_limit), "--order", "48", "--precision", "64"]
    ops = []
    for label, shifts, alpha, gens in decide_scan_instances(seed):
        ops.append(
            Op(
                label,
                argv=_decide_argv(shifts, alpha, gens, extra),
                oracle={"shifts": shifts, "alpha": alpha, "generators": gens, "limit": scan_limit},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# decide-deep: invariant graphs at Mahler order/precision 256/256


def _nonpreperiodic_start(rng: random.Random, c: Fraction) -> Fraction:
    """A seeded integer start; for c > 1/4 no real point is preperiodic, and
    -1, 0, 1 are the only rational preperiodic points of t^2 - 1."""
    while True:
        a = Fraction(rng.randint(-6, 6))
        if c != -1 or abs(a) > 1:
            return a


DEEP_SEEDED_STARTS = 3  # seeded starts per map, on top of the gate start


def decide_deep(seed: int) -> list[Op]:
    """The 8 criterion-5 graph instances (r = 1, 2 for each gate map), then
    the same graphs from seeded integer starts."""
    rng = random.Random(seed)
    starts = {c: [GATE_STARTS[c]] for c in GATE_MAPS}
    for c in GATE_MAPS:
        while len(starts[c]) < 1 + DEEP_SEEDED_STARTS:
            a = _nonpreperiodic_start(rng, c)
            if a not in starts[c]:
                starts[c].append(a)
    extra = ["--order", "256", "--precision", "256", "--nmax", str(DEEP_LIMIT)]
    ops = []
    for k in range(1 + DEEP_SEEDED_STARTS):
        for c in GATE_MAPS:
            a = starts[c][k]
            for r in (1, 2):
                gens = [graph_generator(_quadratic(c), r, 2)]
                alpha = [a, _orbit_point(c, a, r)]
                ops.append(
                    Op(
                        f"graph-r{r}",
                        argv=_decide_argv([c, c], alpha, gens, extra),
                        oracle={"limit": DEEP_LIMIT},
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# divisor-chain: level-5 diagonal pullbacks of sparse maps


# b = 3m makes the critical factor t^2 + m monic, and ramification_bound's
# periodic-root check then iterates with exploding coefficients: t^3+6*t
# ran for minutes.  Such b are left out so that no operation hangs.
CUBIC_SHIFTS = (2, 4, 5, 7, 8, 10, 11, 13, 14)


def divisor_chain(seed: int) -> list[Op]:
    """Criterion-2 maps t^2+1, t^2+2, t^3+t, then one seeded t^2+c and five
    seeded t^3+b*t.  Six cubics out of nine put the median on a cubic (the
    quadratics take about 1% of a cubic's time)."""
    rng = random.Random(seed)
    maps = [("t^2+1", 2), ("t^2+2", 2), ("t^3+t", 3)]
    maps.append((f"t^2+{rng.randint(3, 9)}", 2))
    maps += [(f"t^3+{b}*t", 3) for b in rng.sample(CUBIC_SHIFTS, 5)]
    return [
        Op(m, argv=["--json", "divisors", "--map", m, "--level", "5"], oracle={"degree": d, "level": 5})
        for m, d in maps
    ]


# ---------------------------------------------------------------------------
# prime-density: the critical-zero density shadow up to 10^5


def prime_density(seed: int) -> list[Op]:
    """c in {1, 2, 3} (criterion 9) plus four seeded c > 0, where the
    critical orbit of 0 escapes, so 0 is never preperiodic."""
    rng = random.Random(seed)
    cs = [1, 2, 3] + rng.sample(range(4, 40), 4)
    return [Op(f"t^2+{c}", c=c, oracle={"sample_seed": seed * 1000 + c}) for c in cs]


# seed 303 (criterion 5's) reproduces the acceptance suite's inputs
DEFAULT_SEED = 303
WORKLOADS = {
    "decide-scan": decide_scan,
    "decide-deep": decide_deep,
    "divisor-chain": divisor_chain,
    "prime-density": prime_density,
}


# ---------------------------------------------------------------------------
# execution and oracles


def execute(name: str, op: Op, lib):
    """Run one operation; returns its raw answer (JSON text or JonesDensity)."""
    if name == "prime-density":
        f = lib.RationalMap.quadratic(op.c)
        return lib.primesearch.jones_density_estimate([f], [0], DENSITY_BOUND)
    code, text = cli_call(lib.cli, op.argv)
    if code == 2:
        raise OracleMismatch(f"{op.label}: exit code 2: {text.strip()[:200]}")
    return text


def reference(name: str, op: Op, lib, expected: dict | None, index: int):
    """decide-scan's hit list up to N, computed once per run, untimed, and
    checked against plain iteration (and the stored lists at seed 303)."""
    if name != "decide-scan":
        return None
    o = op.oracle
    maps = [lib.RationalMap.quadratic(c) for c in o["shifts"]]
    gens = [lib.parse_expression(format_terms(g)).value for g in o["generators"]]
    variety = lib.AffineVariety.of(gens, len(o["alpha"]))
    hits = lib.brute_force_scan(maps, o["alpha"], variety, o["limit"])
    naive = naive_hits([_quadratic(c) for c in o["shifts"]], o["alpha"], o["generators"], NAIVE_STEPS)
    if [n for n in hits if n <= NAIVE_STEPS] != naive:
        raise OracleMismatch(f"{op.label}: brute_force_scan disagrees with plain iteration")
    if expected is not None and o["limit"] == SCAN_LIMIT:
        stored = from_runs(expected["decide-scan"][index]["hits"])
        if hits != stored:
            raise OracleMismatch(f"{op.label}: brute_force_scan disagrees with the stored hit list")
    return hits


def check(name: str, op: Op, answer, ref, expected: dict | None, index: int):
    """Raise OracleMismatch unless `answer` is mathematically right."""
    if name == "prime-density":
        _check_density(op, answer)
        return
    report = json.loads(answer)
    result = report["result"]
    if name == "decide-scan":
        if described_indices(result, op.oracle["limit"]) != ref:
            raise OracleMismatch(f"{op.label}: described indices differ from the exact scan")
    elif name == "decide-deep":
        limit = op.oracle["limit"]
        if described_indices(result, limit) != list(range(limit + 1)):
            raise OracleMismatch(f"{op.label}: not every index 0..{limit} is described")
    elif name == "divisor-chain":
        d, level = op.oracle["degree"], op.oracle["level"]
        levels = result["levels"]
        if [row["level"] for row in levels] != list(range(level + 1)):
            raise OracleMismatch(f"{op.label}: levels are not 0..{level}")
        for row in levels:
            if row["degree_x"] != d ** row["level"] or row["degree_y"] != d ** row["level"]:
                raise OracleMismatch(f"{op.label}: level {row['level']} degrees are not {d}^n")
        if expected is not None:
            stored = expected["divisor-chain"][index]
            if stored["map"] != op.label or [row["squarefree"] for row in levels] != stored["squarefree"]:
                raise OracleMismatch(f"{op.label}: squarefree flags differ from the stored values")


def _zero_on_forward_orbit(c: int, p: int) -> bool:
    """Whether x -> x^2 + c mod p reaches 0 at some n >= 1 starting from 0."""
    seen = bytearray(p)
    x = c % p
    while not seen[x]:
        if x == 0:
            return True
        seen[x] = 1
        x = (x * x + c) % p
    return False


def _check_density(op: Op, density):
    hits = density.hits
    if len(hits) != PRIMES_BELOW_DENSITY_BOUND:
        raise OracleMismatch(f"{op.label}: {len(hits)} primes, expected {PRIMES_BELOW_DENSITY_BOUND}")
    primes = sorted(hits)
    for p in random.Random(op.oracle["sample_seed"]).sample(primes, DENSITY_SAMPLE):
        if hits[p] != _zero_on_forward_orbit(op.c, p):
            raise OracleMismatch(f"{op.label}: hit bit wrong at p={p}")
    clean = sum(1 for h in hits.values() if not h)
    if density.estimate != Fraction(clean, len(hits)):
        raise OracleMismatch(f"{op.label}: estimate does not match the bitmap")
