"""Polynomials over GF(p) and modular determinants for the pencil search.

A polynomial is a list of residues mod p, constant term first, with no
trailing zeros; the zero polynomial is [].  Every function takes the odd
prime p explicitly.  PRIMES lists the moduli the pencil search uses, in
order.  Each is below 2**30, so that a residue is a single CPython integer
digit: det_mod on 64 x 64 matrices ran about 1.6 times faster than with
primes just below 2**31.

pencil_det gives det(C + t L) mod p as a polynomial in t from one
characteristic polynomial, in O(k^3) for k x k matrices: with a shift a
that makes M = C + a L invertible, det(C + t L) = det(M) det(I + (t - a) K)
for K = M^-1 L, and det(I + s K) is the characteristic polynomial of K
read backwards with alternating signs.  The characteristic polynomial comes from the Hessenberg
form of K (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.2.9).
"""

from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "PRIMES",
    "det_mod",
    "pencil_det",
    "poly_mul",
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


def pencil_det(cmat, lmat, p):
    """det(C + t L) mod p as a polynomial in t, for square integer C and L.

    The shift a is the first of 0, 1, ..., k (k the order) with
    M = C + a L invertible mod p.  When none is, det(C + t L), of degree
    at most k, has k + 1 roots mod p and is the zero polynomial.
    """
    k = len(cmat)
    lmat = [[x % p for x in row] for row in lmat]
    for a in range(k + 1):
        det, kmat = _solve([[(c + a * l) % p for c, l in zip(crow, lrow)]
                            for crow, lrow in zip(cmat, lmat)], lmat, p)
        if det:
            break
    else:
        return []
    # det(I + s K) = (-s)^k chi(-1/s): the coefficients of chi backwards,
    # with alternating signs
    chi = _charpoly(_hessenberg(kmat, p), p)
    shifted = [(-c if j % 2 else c) % p for j, c in enumerate(reversed(chi))]
    # Horner in s = t - a, then scale by det(M)
    poly = []
    for c in reversed(shifted):
        poly = [0] + poly
        for j in range(len(poly) - 1):
            poly[j] = (poly[j] - a * poly[j + 1]) % p
        poly[0] = (poly[0] + c) % p
    return _trim([c * det % p for c in poly])


def _solve(mmat, rhs, p):
    """(det M, M^-1 R) mod p by Gauss-Jordan, or (0, None) if M is singular."""
    k = len(mmat)
    rows = [mrow + list(rrow) for mrow, rrow in zip(mmat, rhs)]
    det = 1
    for col in range(k):
        for r in range(col, k):
            if rows[r][col]:
                break
        else:
            return 0, None
        if r != col:
            rows[r], rows[col] = rows[col], rows[r]
            det = -det
        piv = rows[col]
        det = det * piv[col] % p
        inv = pow(piv[col], -1, p)
        piv = rows[col] = [x * inv % p for x in piv]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != col:
                rows[i] = [(x - f * y) % p for x, y in zip(row, piv)]
    return det % p, [row[k:] for row in rows]


def _hessenberg(a, p):
    """An upper Hessenberg matrix similar to the square matrix a mod p.

    For each column m - 1, a pivot below the subdiagonal is swapped into
    row m (rows and columns both), and the rows below it are cleared in
    that column: row i -= u_i row m, then column m += sum u_i column i,
    which undoes the row operations from the right.
    """
    a = [list(row) for row in a]
    k = len(a)
    for m in range(1, k - 1):
        for i in range(m, k):
            if a[i][m - 1]:
                break
        else:
            continue
        if i != m:
            a[i], a[m] = a[m], a[i]
            for row in a:
                row[i], row[m] = row[m], row[i]
        piv = a[m]
        inv = pow(piv[m - 1], -1, p)
        factors = []
        for i in range(m + 1, k):
            u = a[i][m - 1] * inv % p
            if u:
                a[i] = [(x - u * y) % p for x, y in zip(a[i], piv)]
                factors.append((i, u))
        if factors:
            for row in a:
                row[m] = (row[m] + sum(u * row[i] for i, u in factors)) % p
    return a


def _charpoly(h, p):
    """det(x I - H) mod p for an upper Hessenberg H, monic of degree k.

    With chi_j the characteristic polynomial of the leading j x j block
    and chi_0 = 1,
        chi_{m+1} = (x - h[m][m]) chi_m
                    - sum over i < m of h[i][m] h[i+1][i] ... h[m][m-1] chi_i.
    """
    chis = [[1]]
    for m in range(len(h)):
        prev = chis[-1]
        new = [0] + prev
        for j, c in enumerate(prev):
            new[j] = (new[j] - h[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            coef = h[i][m] * t % p
            if coef:
                for j, c in enumerate(chis[i]):
                    new[j] = (new[j] - coef * c) % p
        chis.append(new)
    return chis[-1]


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


def poly_mul(f, g, p):
    """The product of f and g mod p."""
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return _trim([c % p for c in prod])


def _mulmod(f, g, m, p):
    return _divmod(poly_mul(f, g, p), m, p)[1]


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


def rational_roots(poly, p, confirm, rng):
    """Rational roots of a polynomial, from its image mod p.

    poly is the image mod p of a polynomial over Q.  Each distinct root of
    its square-free part is lifted by rational reconstruction, and kept
    only when confirm(fraction) holds; confirm is meant to check the
    candidate against the same polynomial modulo another prime.  Returns
    (sorted roots, residual degree), where the residual degree is the
    degree of the square-free part minus the number of roots kept: the
    total degree of the distinct irreducible factors without a rational
    root.  If poly is zero mod p there is nothing to search and the result
    is ([], 0).
    """
    sqf = squarefree_part(poly, p)
    if not sqf:
        return [], 0
    found = []
    for r in roots(sqf, p, rng):
        x = rational_reconstruction(r, p)
        if x is not None and confirm(x):
            found.append(x)
    return sorted(found), len(sqf) - 1 - len(found)
