"""Independent test oracles and reference implementations.

These deliberately avoid the library's own code paths: root counting is by
exhaustive Hensel-style lifting of solutions mod p, composition checks are
by brute substitution, and orbit scans are by direct iteration.  The
reference implementations `expanded_forms`, `compose` and
`iterate_polynomial` build forms and composites term by term, with none of
the library's rows of monomials, and `divexact` is the exact quotient that
`Polynomial.divmod` must give.
"""

from fractions import Fraction

from orbitlang.dynsys import RationalMap
from orbitlang.errors import InexactDivision
from orbitlang.polynomials import Polynomial


def hensel_zp_root_count(int_coeffs, p, levels=12):
    """Distinct Z_p roots of an integer polynomial, found by exhaustive lifting.

    Breadth-first search over solutions of f(x) = 0 mod p**k for k = 1..levels;
    the returned value is the number of residues mod p**levels that solve the
    congruence at the top level.  For polynomials whose roots are simple and
    pairwise distinct mod p this equals the exact number of Z_p roots.
    """

    def value(x, mod):
        acc = 0
        for c in reversed(int_coeffs):
            acc = (acc * x + c) % mod
        return acc

    solutions = [x for x in range(p) if value(x, p) == 0]
    for k in range(2, levels + 1):
        mod = p**k
        step = p ** (k - 1)
        lifted = []
        for x in solutions:
            for c in range(p):
                cand = x + c * step
                if value(cand, mod) == 0:
                    lifted.append(cand)
        solutions = lifted
        if not solutions:
            break
    return len(solutions)


def poly_eval_fraction(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def brute_orbit(f_coeffs, x, steps):
    """Exact orbit values x, f(x), ..., f^steps(x) of a polynomial map."""
    out = [Fraction(x)]
    for _ in range(steps):
        out.append(poly_eval_fraction(f_coeffs, out[-1]))
    return out


def schoolbook_product(a_terms, b_terms):
    """Product of two {exponent tuple: Fraction} maps, one Fraction
    multiply-add per pair of terms, zero coefficients dropped."""
    acc = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in acc.items() if v}


def fraction_orbit_hits(maps, starts, generators, limit):
    """Indices n <= limit at which every generator vanishes at the orbit
    point, by plain Fraction iteration.

    `maps` holds one (numerator, denominator) pair of low-to-high coefficient
    lists per coordinate and each generator is an {exponent tuple:
    coefficient} map; no orbit may pass through infinity.
    """
    point = [Fraction(s) for s in starts]
    hits = []
    for n in range(limit + 1):
        if n:
            point = [poly_eval_fraction(num, x) / poly_eval_fraction(den, x) for (num, den), x in zip(maps, point)]
        powers: dict = {}
        values = []
        for gen in generators:
            total = Fraction(0)
            for exps, c in gen.items():
                term = Fraction(c)
                for i, e in enumerate(exps):
                    if e:
                        if (i, e) not in powers:
                            powers[i, e] = point[i] ** e
                        term *= powers[i, e]
                total += term
            values.append(total)
        if not any(values):
            hits.append(n)
    return hits


def expanded_forms(phi, P, Q):
    """phi's forms F, G at (P, Q), expanded as sum F_i P^i Q^(d-i) term by
    term, with no row of monomials shared between the terms or the forms."""
    d = phi.degree

    def at(coeffs):
        return sum((P**i * Q ** (d - i) * c for i, c in enumerate(coeffs)), Polynomial.constant(0, P.variables))

    return at(phi.coeffs_f), at(phi.coeffs_g)


def compose(phi, psi):
    """phi after psi (x -> phi(psi(x))): phi's forms at psi's affine forms,
    by :func:`expanded_forms`."""
    return RationalMap.from_affine(*expanded_forms(phi, psi.affine_numerator(), psi.affine_denominator()))


def iterate_polynomial(f, n, var="t"):
    """f^n as a univariate polynomial in `var`, by n substitutions of f;
    requires a polynomial map."""
    coeffs = f.affine_coefficients()
    out = Polynomial.variable(var)
    for _ in range(n):
        acc = Polynomial.constant(0, (var,))
        for c in reversed(coeffs):
            acc = acc * out + c
        out = acc
    return out


def divexact(a, b):
    """The quotient a / b, raising InexactDivision unless b divides a."""
    if b.is_zero:
        raise InexactDivision("division by the zero polynomial")
    q, r = a.divmod(b)
    if not r.is_zero:
        raise InexactDivision("remainder is nonzero")
    return q
