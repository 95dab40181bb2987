"""Dense univariate polynomials over F_q and Z, and their factorization over Q.

A polynomial is a list of ints, low to high, with no trailing zero in a
result.  The `gf_` functions over F_q serve the squarefree certificates of
:mod:`orbitlang.intersection`, the residue orbits of :mod:`orbitlang.reduction`
and the factorizer.  :func:`factor` is Zassenhaus's algorithm: Yun's
squarefree split, then distinct-degree and Cantor-Zassenhaus factorization
mod a small odd prime p, Hensel lifting past twice the Mignotte bound, and
recombination of the lifted factors by exact trial division over Z.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, isqrt

from .padics import next_prime

FACTOR_SEED = 20240607  # seeds Cantor-Zassenhaus splitting: factor() is deterministic


def trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def mul(a: list[int], b: list[int]) -> list[int]:
    """The product over Z."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return trim(out)


def derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


# ---------------------------------------------------------------------------
# over F_q


def gf_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_q of a by a nonzero b."""
    a = [x % q for x in a]
    n = len(b) - 1
    inv = pow(b[-1], -1, q)
    quot = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1 - n, -1, -1):
        c = a[i + n] * inv % q
        if c:
            quot[i] = c
            a[i : i + n + 1] = [(x - c * y) % q for x, y in zip(a[i : i + n + 1], b)]
    return quot, trim(a[:n])


def gf_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd over F_q ([] when both vanish)."""
    a, b = trim([x % q for x in a]), trim([x % q for x in b])
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):  # a mod b, in place
            c, shift = a[-1] * inv % q, len(a) - len(b)
            a[shift:] = [(x - c * y) % q for x, y in zip(a[shift:], b)]
            trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, q) if a else 0
    return [x * inv % q for x in a]


def gf_squarefree(coeffs: list[int], q: int) -> bool:
    """Whether a nonzero polynomial over F_q is squarefree: gcd(f, f') = 1."""
    return len(gf_gcd(coeffs, derivative(coeffs), q)) == 1


def gf_mulmod(a: list[int], b: list[int], w: list[int], q: int) -> list[int]:
    """a * b mod (w, q): the result of length deg w."""
    n = len(w) - 1
    out = mul(a, b)
    out += [0] * (n - len(out))
    inv = pow(w[-1], -1, q)
    for top in range(len(out) - 1, n - 1, -1):
        c = out[top] * inv % q
        for j in range(n):
            out[top - n + j] -= c * w[j]
    return [c % q for c in out[:n]]


def gf_monomials(A: list[int], B: list[int], m: int, w: list[int], q: int) -> list[list[int]]:
    """[A^a B^(m-a) mod (w, q) for a = 0..m]."""
    one = gf_mulmod([1], [1], w, q)
    apow, bpow = [one], [one]
    for _ in range(m):
        apow.append(gf_mulmod(apow[-1], A, w, q))
        bpow.append(gf_mulmod(bpow[-1], B, w, q))
    return [gf_mulmod(apow[a], bpow[m - a], w, q) for a in range(m + 1)]


def gf_combination(coeffs, vectors: list[list[int]], q: int) -> list[int]:
    """sum coeffs[a] * vectors[a] mod q, over vectors of one length."""
    return [sum(c * v[j] for c, v in zip(coeffs, vectors)) % q for j in range(len(vectors[0]))]


def _gf_powmod(a: list[int], e: int, w: list[int], q: int) -> list[int]:
    out = [1]
    for bit in bin(e)[2:]:
        out = gf_mulmod(out, out, w, q)
        if bit == "1":
            out = gf_mulmod(out, a, w, q)
    return trim(out)


def _gf_inverse(a: list[int], w: list[int], q: int) -> list[int]:
    """s with s a = 1 mod (w, q), for a coprime to w."""
    r0, r1, s0, s1 = a, w, [1], []
    while r1:
        quot, rem = gf_divmod(r0, r1, q)
        r0, r1, s0, s1 = r1, rem, s1, [x % q for x in _sub(s0, mul(quot, s1))]
    inv = pow(r0[0], -1, q)
    return [x * inv % q for x in s0]


def _gf_distinct_degree(f: list[int], q: int) -> list[tuple[list[int], int]]:
    """[(g, d)]: g the product of the degree-d irreducible factors of f,
    monic and squarefree over F_q."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _gf_powmod(h, q, f, q)  # x^(q^d) mod f
        g = gf_gcd(f, _sub(h, [0, 1]), q)
        if len(g) > 1:
            out.append((g, d))
            f = gf_divmod(f, g, q)[0]
            h = gf_divmod(h, f, q)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_equal_degree(g: list[int], d: int, q: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of g, a squarefree product of degree-d
    ones over F_q with q odd (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    e = (q**d - 1) // 2
    while True:
        a = trim([rng.randrange(q) for _ in range(len(g) - 1)])
        h = gf_gcd(g, _sub(_gf_powmod(a, e, g, q), [1]), q) if len(a) > 1 else g
        if 1 < len(h) < len(g):
            return _gf_equal_degree(h, d, q, rng) + _gf_equal_degree(gf_divmod(g, h, q)[0], d, q, rng)


# ---------------------------------------------------------------------------
# over Z


def divmod_z(a: list[int], b: list[int]) -> tuple[list[int], list[int]] | None:
    """Quotient and remainder over Q of a by a nonzero b, or None when some
    step's leading coefficient is not divisible by b's (the quotient is not
    integral).  lc(b)^(deg a - deg b + 1) a always divides stepwise."""
    r = list(a)
    n, lc = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1 - n, -1, -1):
        c, m = divmod(r[i + n], lc)
        if m:
            return None
        if c:
            quot[i] = c
            r[i : i + n + 1] = [x - c * y for x, y in zip(r[i : i + n + 1], b)]
    return quot, trim(r[:n])


def primitive(a: list[int]) -> list[int]:
    """a over its content, with positive leading coefficient."""
    g = gcd(*a) if a and a[-1] > 0 else -gcd(*a)
    return [x // g for x in a] if a else a


def gcd_z(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd with positive lead ([] when both vanish), by the
    primitive Euclid."""
    a, b = primitive(a), primitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        a, b = b, primitive(divmod_z([x * scale for x in a], b)[1])
    return a


def _squarefree_split(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's split of a primitive f: [(a_i, i)] with f = prod a_i^i, the a_i
    primitive, squarefree, pairwise coprime and of positive degree."""
    out, i = [], 1
    a = gcd_z(f, derivative(f))
    b, c = divmod_z(f, a)[0], divmod_z(derivative(f), a)[0]
    while len(b) > 1:
        d = _sub(c, derivative(b))
        a = gcd_z(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = divmod_z(b, a)[0], divmod_z(d, a)[0]
        i += 1
    return out


def _hensel_step(f: list[int], g: list[int], h: list[int], p: int, k: int) -> tuple[list[int], list[int]]:
    """Lift monic g, h with f = g h mod p, coprime mod p, to f = g h mod p^k,
    for f monic mod p^k; the results have coefficients in [0, p^k).  Linear
    lifting: with s g = 1 mod (h, p), the error e = (f - g h) / p^j mod p is
    B g + A h for B = s e mod h and A = (e - B g) / h, so g + p^j A and
    h + p^j B agree with f mod p^(j+1)."""
    s = _gf_inverse(g, h, p)
    pj = p
    for _ in range(k - 1):
        e = [x // pj for x in _sub(f, mul(g, h))]
        b = gf_divmod(mul(s, e), h, p)[1]
        a = gf_divmod(_sub(e, mul(b, g)), h, p)[0]
        g, h = _sub(g, [-pj * x for x in a]), _sub(h, [-pj * x for x in b])
        pj *= p
    return g, h


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive squarefree f with
    positive lead."""
    n, lc = len(f) - 1, f[-1]
    if n == 1:
        return [f]
    p = 3
    while lc % p == 0 or not gf_squarefree([c % p for c in f], p):
        p = next_prime(p)
    inv = pow(lc, -1, p)
    rng = random.Random(FACTOR_SEED)
    local = [h for g, d in _gf_distinct_degree([c * inv % p for c in f], p) for h in _gf_equal_degree(g, d, p, rng)]
    if len(local) == 1:
        return [f]
    # a factor of f times lc(f) / its own lead has coefficients at most
    # 2^n |f|_2 |lc| (Mignotte); the symmetric residues mod m exceed twice that
    bound = 2 * lc * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    inv = pow(lc, -1, m)
    rest, lifted = [c * inv % m for c in f], []
    for g in local[:-1]:
        g, rest = _hensel_step(rest, g, gf_divmod(rest, g, p)[0], p, k)
        lifted.append(g)
    lifted.append(rest)
    # recombine: the smallest subsets first, each candidate tried by division
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = [c % m for c in mul(g, lifted[i])]
            g = primitive([c - m if 2 * c > m else c for c in g])
            division = divmod_z(f, g)
            if division and not division[1]:
                out.append(g)
                f = division[0]
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def factor(f: list[int]) -> list[tuple[list[int], int]]:
    """The irreducible factors over Z of a primitive f with positive lead,
    with multiplicities, in sympy's order: by degree, then multiplicity,
    then coefficients high to low."""
    out = [(g, i) for a, i in _squarefree_split(f) for g in _zassenhaus(a)]
    return sorted(out, key=lambda gi: (len(gi[0]), gi[1], gi[0][::-1]))
