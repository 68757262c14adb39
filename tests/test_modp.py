"""GF(p) polynomial helpers of the pencil search, cross-checked against sympy."""

from fractions import Fraction
import random

import sympy
from hypothesis import given, settings, strategies as st

from currentalg.modp import (
    PRIMES,
    det_mod,
    pencil_det,
    poly_mul,
    poly_gcd,
    rational_reconstruction,
    rational_roots,
    roots,
    squarefree_part,
)

P = PRIMES[0]
X = sympy.Symbol("x")

small_polys = st.lists(st.integers(min_value=-5, max_value=5),
                       min_size=1, max_size=5)


def gf(coeffs, p=P):
    """sympy polynomial over GF(p) from coefficients, constant term first."""
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


def ours(poly, p=P):
    """sympy GF(p) or Q polynomial as this module's coefficient list."""
    coeffs = [c % p for c in reversed(poly.all_coeffs())] if not poly.is_zero else []
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def monic(poly):
    return poly.monic() if not poly.is_zero else poly


def reduce_q(poly, p=P):
    """Coefficients mod p of a polynomial over Q (denominators prime to p)."""
    out = []
    for c in reversed(poly.all_coeffs()):
        c = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-P, P), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_mod_matches_sympy(rows):
    assert det_mod(rows, P) == sympy.Matrix(rows).det() % P


def _shaped(k, shape, cmat, lmat):
    """C and L with the named defect: a zero column of L (L singular), a
    zero row of C (C singular), a common zero column (the determinant is
    identically zero), or L a multiple of C."""
    cmat, lmat = [list(r) for r in cmat], [list(r) for r in lmat]
    if shape in ("singular_l", "zero_det"):
        for r in lmat:
            r[k - 1] = 0
    if shape in ("singular_c", "zero_det"):
        cmat[0] = [0] * k
    if shape == "zero_det":
        for r in cmat:
            r[k - 1] = 0
    if shape == "proportional":
        lmat = [[3 * x for x in r] for r in cmat]
    return cmat, lmat


def _square(k):
    return st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                    min_size=k, max_size=k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(st.just(k), _square(k), _square(k))),
    st.sampled_from(["any", "singular_l", "singular_c", "zero_det",
                     "proportional"]))
def test_pencil_det_matches_sympy(pair, shape):
    k, cmat, lmat = pair
    cmat, lmat = _shaped(k, shape, cmat, lmat)
    # sympy's determinant of C + x L, taken over ZZ[x]
    pencil = (sympy.Matrix(cmat) + X * sympy.Matrix(lmat)).to_DM()
    exact = sympy.Poly(pencil.domain.to_sympy(pencil.det()), X)
    got = pencil_det(cmat, lmat, P)
    assert got == reduce_q(exact)
    if shape == "zero_det":
        assert got == []


def test_pencil_det_needs_a_later_shift():
    # C + a L is singular at a = 0, 1 and 2, so the shift is 3; the
    # determinant t (t - 1) (t - 2) comes back through the shift
    cmat = [[0, 0, 0], [0, -1, 0], [0, 0, -2]]
    lmat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert pencil_det(cmat, lmat, P) == reduce_q(sympy.Poly(X * (X - 1) * (X - 2), X))


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_poly_mul_matches_sympy(a, b):
    assert poly_mul(ours(gf(a)), ours(gf(b)), P) == ours(gf(a) * gf(b))


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_gcd_matches_sympy(a, b, c):
    f, g = gf(a) * gf(c), gf(b) * gf(c)
    assert poly_gcd(ours(f), ours(g), P) == ours(monic(f.gcd(g)))


def test_gcd_with_zero():
    assert poly_gcd([], [], P) == []
    assert poly_gcd([], [4, 2], P) == [2, 1]


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, st.integers(min_value=1, max_value=3))
def test_squarefree_part_matches_sympy(a, b, k):
    f = gf(a) ** k * gf(b)
    if f.is_zero:
        assert squarefree_part([], P) == []
        return
    assert squarefree_part(ours(f), P) == ours(monic(f.sqf_part()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=P - 1), max_size=4),
       st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4),
       small_polys, st.integers(min_value=0, max_value=1000))
def test_roots_match_sympy_factors(rts, mults, extra, seed):
    f = gf(extra)
    for r, m in zip(rts, mults):
        f *= gf([-r, 1]) ** m
    if f.is_zero:
        return
    expected = sorted((-ours(fac)[0]) % P
                      for fac, _ in f.factor_list()[1] if fac.degree() == 1)
    assert roots(ours(f), P, random.Random(seed)) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(-23170, 23170), st.integers(1, 23170))
def test_rational_reconstruction_round_trip(a, b):
    x = Fraction(a, b)
    u = x.numerator * pow(x.denominator, -1, P) % P
    assert rational_reconstruction(u, P) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, P - 1))
def test_rational_reconstruction_is_a_preimage_within_bounds(u):
    x = rational_reconstruction(u, P)
    if x is not None:
        assert x.numerator * pow(x.denominator, -1, P) % P == u
        assert abs(x.numerator) <= 23170 and x.denominator <= 23170


def _confirm_mod(polys_q, q):
    def confirm(x):
        t = x.numerator * pow(x.denominator, -1, q) % q
        return all(sum(c * pow(t, i, q) for i, c in enumerate(reduce_q(f, q))) % q == 0
                   for f in polys_q)
    return confirm


def _gcd_mod_p(polys_q):
    """The gcd mod P of the images mod P of polynomials over Q."""
    g = []
    for f in polys_q:
        g = poly_gcd(g, reduce_q(f), P)
    return g


def _seed_rule(polys_q):
    """(rational roots, residual degree) the way sympy factoring gives them."""
    g = polys_q[0]
    for f in polys_q[1:]:
        g = g.gcd(f)
    if g.is_zero:
        return [], 0
    found, residual = [], 0
    for fac, _ in g.factor_list()[1]:
        if fac.degree() == 1:
            a, b = fac.all_coeffs()
            found.append(Fraction(int(-b), int(a)))
        elif fac.degree() >= 2:
            residual += fac.degree()
    return sorted(found), residual


def test_repeated_rational_root_and_quadratic_count_once():
    # x^2 + 1 splits mod PRIMES[0] (which is 1 mod 4), so its two roots
    # mod p go through reconstruction and must be turned down by the check
    # modulo the second prime
    assert P % 4 == 1
    half, quad = sympy.Poly(2 * X - 1, X, domain="QQ"), sympy.Poly(X**2 + 1, X, domain="QQ")
    polys_q = [half**3 * quad**2 * sympy.Poly(X + 3, X, domain="QQ"),
               half**2 * quad**3 * sympy.Poly(X - 5, X, domain="QQ"),
               half**2 * quad**2 * sympy.Poly(3 * X + 1, X, domain="QQ")]
    g = _gcd_mod_p(polys_q)
    assert len(roots(squarefree_part(g, P), P, random.Random(0))) == 3
    got = rational_roots(g, P, _confirm_mod(polys_q, PRIMES[1]), random.Random(0))
    assert got == ([Fraction(1, 2)], 2) == _seed_rule(polys_q)


def test_a_quadratic_without_roots_mod_p_leaves_its_degree():
    # 2 is not a square mod PRIMES[0], so x^2 - 2 has no root there and
    # both its degrees stay in the residual
    assert pow(2, (P - 1) // 2, P) == P - 1
    f = [-2 % P, 0, 1]
    assert roots(f, P, random.Random(0)) == []
    assert rational_roots(f, P, lambda x: True, random.Random(0)) == ([], 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9),
                          st.integers(1, 3)), max_size=3),
       st.lists(small_polys, min_size=3, max_size=3),
       small_polys, st.integers(min_value=0, max_value=1000))
def test_rational_roots_follow_the_factoring_rule(linear, extras, common, seed):
    g = sympy.Poly(common[::-1], X, domain="QQ")
    for a, b, m in linear:
        g *= sympy.Poly(b * X - a, X, domain="QQ") ** m
    polys_q = [g * sympy.Poly(e[::-1], X, domain="QQ") for e in extras]
    got = rational_roots(_gcd_mod_p(polys_q), P,
                         _confirm_mod(polys_q, PRIMES[1]), random.Random(seed))
    assert got == _seed_rule(polys_q)
