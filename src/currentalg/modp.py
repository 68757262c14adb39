"""Polynomials over GF(p) and modular determinants for the pencil search.

A polynomial is a list of residues mod p, constant term first, with no
trailing zeros; the zero polynomial is [].  Every function takes the odd
prime p explicitly.  PRIMES lists the moduli the pencil search uses, in
order.  Each is below 2**30, so that a residue is a single CPython integer
digit: det_mod on 64 x 64 matrices ran about 1.6 times faster than with
primes just below 2**31.
"""

from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "PRIMES",
    "det_mod",
    "interpolate",
    "poly_gcd",
    "squarefree_part",
    "roots",
    "rational_reconstruction",
    "rational_roots",
]

PRIMES = (1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
          1073741717)


def det_mod(rows, p):
    """Determinant mod p of a square matrix of integers, by elimination."""
    # rows are kept reversed so that dropping the pivot column is a pop()
    rows = [[x % p for x in reversed(r)] for r in rows]
    det = 1
    while rows:
        for k, row in enumerate(rows):
            if row[-1]:
                break
        else:
            return 0
        piv = rows.pop(k)
        if k % 2:
            det = -det
        a = piv.pop()
        det = det * a % p
        neg_inv = p - pow(a, -1, p)
        for i, row in enumerate(rows):
            f = row.pop()
            if f:
                f = f * neg_inv % p
                rows[i] = [(x + f * y) % p for x, y in zip(row, piv)]
    return det % p


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _sub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _divmod(f, g, p):
    """Quotient and remainder of f by the nonzero polynomial g."""
    r = list(f)
    dg = len(g) - 1
    if len(r) <= dg:
        return [], _trim(r)
    inv = pow(g[-1], -1, p)
    q = [0] * (len(r) - dg)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * inv % p
        q[k] = c
        if c:
            for i in range(dg):
                r[k + i] = (r[k + i] - c * g[i]) % p
    return _trim(q), _trim(r[:dg])


def _mulmod(f, g, m, p):
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return _divmod([c % p for c in prod], m, p)[1]


def _powmod(f, e, m, p):
    """f**e mod (m, p) for e >= 0 and m of degree at least 1."""
    result = [1]
    base = _divmod(f, m, p)[1]
    while e:
        if e & 1:
            result = _mulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, m, p)
    return result


def interpolate(xs, ys, p):
    """The polynomial of degree < len(xs) through the points (xs, ys) mod p.

    The xs must be distinct mod p.
    """
    xs = [x % p for x in xs]
    coef = [y % p for y in ys]
    n = len(xs)
    # Newton divided differences, then Horner back to monomial coefficients
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = ((coef[i] - coef[i - 1])
                       * pow(xs[i] - xs[i - j], -1, p) % p)
    poly = []
    for i in range(n - 1, -1, -1):
        poly = [0] + poly
        for k in range(len(poly) - 1):
            poly[k] = (poly[k] - xs[i] * poly[k + 1]) % p
        poly[0] = (poly[0] + coef[i]) % p
    return _trim(poly)


def poly_gcd(f, g, p):
    """Monic gcd of f and g mod p; [] when both are zero."""
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p) if f else []


def squarefree_part(f, p):
    """Monic product of the distinct irreducible factors of f mod p.

    Valid for deg f < p, where f' vanishes only on constants.
    """
    f = _trim([c % p for c in f])
    if not f:
        return []
    deriv = _trim([i * c % p for i, c in enumerate(f)][1:])
    return _monic(_divmod(f, poly_gcd(f, deriv, p), p)[0], p)


def roots(f, p, rng):
    """Sorted distinct roots of the nonzero polynomial f in GF(p).

    gcd(f, x**p - x) keeps one linear factor per root; equal-degree
    splitting with random shifts drawn from rng (Cantor-Zassenhaus)
    separates them.
    """
    f = _trim([c % p for c in f])
    if len(f) < 2:
        return []
    f = _monic(f, p)
    x = [0, 1]
    found = []
    _split(poly_gcd(f, _sub(_powmod(x, p, f, p), x, p), p), p, rng, found)
    return sorted(found)


def _split(h, p, rng, out):
    """Append the roots of the monic, split, square-free h to out."""
    if len(h) < 2:
        return
    if len(h) == 2:
        out.append(-h[0] % p)
        return
    while True:
        w = _powmod([rng.randrange(p), 1], (p - 1) // 2, h, p)
        g = poly_gcd(h, _sub(w, [1], p), p)
        if 1 < len(g) < len(h):
            _split(g, p, rng, out)
            _split(_divmod(h, g, p)[0], p, rng, out)
            return


def rational_reconstruction(u, p):
    """The fraction a/b = u mod p with |a|, b <= isqrt(p // 2), or None.

    Wang's half-extended Euclid; within those bounds the fraction is
    unique when it exists.
    """
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1 if s1 > 0 else -r1, abs(s1))


def rational_roots(polys, p, confirm, rng):
    """Rational common roots of polynomials, from their images mod p.

    polys are the images mod p of polynomials over Q.  Each distinct root
    of the square-free part of their gcd is lifted by rational
    reconstruction, and kept only when confirm(fraction) holds; confirm is
    meant to check the candidate against the same polynomials modulo
    another prime.  Returns (sorted roots, residual degree), where the
    residual degree is the degree of the square-free gcd minus the number
    of roots kept: the total degree of the distinct irreducible factors
    without a rational root.  If every polynomial is zero mod p there is
    no gcd to search and the result is ([], 0).
    """
    g = []
    for f in polys:
        g = poly_gcd(g, f, p)
    if not g:
        return [], 0
    sqf = squarefree_part(g, p)
    found = []
    for r in roots(sqf, p, rng):
        x = rational_reconstruction(r, p)
        if x is not None and confirm(x):
            found.append(x)
    return sorted(found), len(sqf) - 1 - len(found)
