"""Independent test oracles.

These deliberately avoid the library's own code paths: root counting is by
exhaustive Hensel-style lifting of solutions mod p, composition checks are
by brute substitution, and orbit scans are by direct iteration.
"""

from fractions import Fraction


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
