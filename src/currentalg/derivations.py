r"""Derivations of current algebras: spaces, pencils, and the span theorem.

A linear map D on an n-dimensional algebra is a vector of length n^2 with
coordinate m*n + i holding the coefficient of x_m in D(x_i).  The named
map conditions below cut out exact subspaces; conjunctions of them build
the factor spaces whose tensor products, together with inner derivations
and two one-parameter families, are compared against the full derivation
space of L tensor A.

Conditions on a Lie algebra L:

    derivation         d[x,y] = [dx,y] + [x,dy]
    antiderivation     d[x,y] + [dx,y] + [x,dy] = 0
    ad_anticommute     [dx,y] + [x,dy] = 0
    kill_derived       d([L,L]) = 0
    into_center        d(L) central
    self_bracket_zero  [dx,x] = 0 (polarized)
    centroid           d[x,y] = [dx,y] = [x,dy]

Conditions on a commutative associative algebra A:

    derivation         b(xy) = b(x)y + x b(y)
    module_map         b(x)y = x b(y)
    anti_module_map    b(x)y + x b(y) = 0
    kill_square        b(AA) = 0
    into_annihilator   b(A) annihilates A

The one-parameter families are pencils: d[x,y] = lam([dx,y] + [x,dy]) on L
against b(xy) = mu b(x)y on A, and d[x,y] = lam[dx,y] against
b(xy) = mu(b(x)y + x b(y)), matched by lam * mu = 1.  Rational pencil
values are discovered by projecting the affine-in-lam row system to square
matrices with three independent random integer maps, interpolating their
determinant polynomials modulo a word-size prime, and lifting the roots of
the gcd to rationals; every candidate is confirmed modulo a second prime
and then by an exact kernel solve over Q, and 1 and 1/2 are always checked
whether or not they show up as roots.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
import random

from .exactlin import (
    Matrix,
    Subspace,
    inverse,
    kernel_from_rows,
    span_from_rows,
    subspace_intersect,
    subspace_sum,
)
from .algebras import (
    AssocAlgebra,
    BilinearForm,
    LieAlgebra,
    build_assoc,
    build_lie,
    current,
    killing_form,
    lie_sl2,
    assoc_truncated_poly,
)
from .cochain import adjoint_module, coadjoint_module, cohomology, trivial_module
from .forms import invariant_symmetric_forms
from .modp import PRIMES, det_mod, interpolate, rational_roots

__all__ = [
    "MapSpace",
    "map_condition_space",
    "derivation_space",
    "antiderivation_space",
    "inner_derivations",
    "PencilCandidates",
    "lambda_candidates",
    "theorem_der_span",
    "verify_der_decomposition",
    "form_to_map",
    "sequence_maps",
    "sl2_loop_derivation",
    "LoopDerivation",
    "DER_TYPE_TABLE",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

LIE_MAP_CONDITIONS = (
    "derivation", "antiderivation", "ad_anticommute", "kill_derived",
    "into_center", "self_bracket_zero", "centroid",
)
ASSOC_MAP_CONDITIONS = (
    "derivation", "module_map", "anti_module_map", "kill_square",
    "into_annihilator",
)

# Factor conditions for the non-pencil summands of the span theorem:
# (label, Lie-side conjunction, associative-side conjunction).
DER_TYPE_TABLE = (
    ("iii", ("ad_anticommute",), ("kill_square", "module_map")),
    ("iv", ("kill_derived", "ad_anticommute"), ("module_map",)),
    ("v", ("kill_derived", "self_bracket_zero"), ("anti_module_map",)),
    ("vi", ("self_bracket_zero",), ("kill_square", "anti_module_map")),
    ("vii", ("kill_derived", "into_center"), ()),
    ("viii", ("kill_derived",), ("into_annihilator",)),
    ("ix", ("into_center",), ("kill_square",)),
    ("x", (), ("kill_square", "into_annihilator")),
)


def _add(row, col, val):
    if not val:
        return
    v = row.get(col, _ZERO) + val
    if v:
        row[col] = v
    elif col in row:
        del row[col]


# ---------------------------------------------------------------------------
# row builders, one family of sparse rows per condition


def _lie_map_rows(alg, condition):
    n = alg.dim
    rows = []
    if condition in ("derivation", "antiderivation"):
        sgn = -_ONE if condition == "derivation" else _ONE
        for i in range(n):
            for j in range(i + 1, n):
                per_r = {}
                for k, c in alg.bracket(i, j):
                    for r in range(n):
                        _add(per_r.setdefault(r, {}), r * n + k, c)
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, sgn * c)
                    for r, c in alg.bracket(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, sgn * c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "ad_anticommute":
        for i in range(n):
            for j in range(i + 1, n):
                per_r = {}
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, c)
                    for r, c in alg.bracket(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "kill_derived":
        for (i, j), terms in alg.table.items():
            for r in range(n):
                row = {}
                for k, c in terms:
                    _add(row, r * n + k, c)
                if row:
                    rows.append(row)
        return rows
    if condition == "into_center":
        for j in range(n):
            for j2 in range(n):
                per_k = {}
                for m in range(n):
                    for k, c in alg.bracket(m, j2):
                        _add(per_k.setdefault(k, {}), m * n + j, c)
                rows.extend(v for v in per_k.values() if v)
        return rows
    if condition == "self_bracket_zero":
        for i in range(n):
            for j in range(i, n):
                per_r = {}
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, c)
                    for r, c in alg.bracket(m, i):
                        _add(per_r.setdefault(r, {}), m * n + j, c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "centroid":
        for i in range(n):
            for j in range(i + 1, n):
                per_r = {}
                for k, c in alg.bracket(i, j):
                    for r in range(n):
                        _add(per_r.setdefault(r, {}), r * n + k, c)
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, -c)
                rows.extend(v for v in per_r.values() if v)
        for i in range(n):
            for j in range(i, n):
                per_r = {}
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, c)
                    for r, c in alg.bracket(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, -c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    raise ValueError("unknown Lie map condition %r" % condition)


def _assoc_map_rows(alg, condition):
    n = alg.dim
    rows = []
    if condition == "derivation":
        for i in range(n):
            for j in range(i, n):
                per_r = {}
                for k, c in alg.product(i, j):
                    for r in range(n):
                        _add(per_r.setdefault(r, {}), r * n + k, c)
                for m in range(n):
                    for r, c in alg.product(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, -c)
                    for r, c in alg.product(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, -c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "module_map":
        for i in range(n):
            for j in range(i + 1, n):
                per_r = {}
                for m in range(n):
                    for r, c in alg.product(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, c)
                    for r, c in alg.product(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, -c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "anti_module_map":
        for i in range(n):
            for j in range(i, n):
                per_r = {}
                for m in range(n):
                    for r, c in alg.product(m, j):
                        _add(per_r.setdefault(r, {}), m * n + i, c)
                    for r, c in alg.product(i, m):
                        _add(per_r.setdefault(r, {}), m * n + j, c)
                rows.extend(v for v in per_r.values() if v)
        return rows
    if condition == "kill_square":
        for (i, j), terms in alg.table.items():
            for r in range(n):
                row = {}
                for k, c in terms:
                    _add(row, r * n + k, c)
                if row:
                    rows.append(row)
        return rows
    if condition == "into_annihilator":
        for j in range(n):
            for j2 in range(n):
                per_k = {}
                for m in range(n):
                    for k, c in alg.product(m, j2):
                        _add(per_k.setdefault(k, {}), m * n + j, c)
                rows.extend(v for v in per_k.values() if v)
        return rows
    raise ValueError("unknown associative map condition %r" % condition)


# ---------------------------------------------------------------------------
# post-solve rechecks through the multiplication maps


def _apply(vec, n, u):
    out = [_ZERO] * n
    for i, a in enumerate(u):
        if not a:
            continue
        for m in range(n):
            c = vec[m * n + i]
            if c:
                out[m] += a * c
    return out


_RECHECK_PAIRS = 10


def _recheck_maps(alg, conditions, space, mul):
    n = alg.dim
    rng = random.Random(74161)
    pairs = [tuple([Fraction(rng.randint(-3, 3)) for _ in range(n)]
                   for _ in range(2))
             for _ in range(_RECHECK_PAIRS)]
    zero = [_ZERO] * n
    for vec in space.basis:
        for u, v in pairs:
            du, dv = _apply(vec, n, u), _apply(vec, n, v)
            duv = _apply(vec, n, mul(u, v))
            for cond in conditions:
                if cond == "derivation":
                    lhs = [a - b - c for a, b, c in
                           zip(duv, mul(du, v), mul(u, dv))]
                elif cond == "antiderivation":
                    lhs = [a + b + c for a, b, c in
                           zip(duv, mul(du, v), mul(u, dv))]
                elif cond == "ad_anticommute" or cond == "anti_module_map":
                    lhs = [b + c for b, c in zip(mul(du, v), mul(u, dv))]
                elif cond == "module_map":
                    lhs = [b - c for b, c in zip(mul(du, v), mul(u, dv))]
                elif cond in ("kill_derived", "kill_square"):
                    lhs = duv
                elif cond in ("into_center", "into_annihilator"):
                    lhs = mul(du, v)
                elif cond == "self_bracket_zero":
                    lhs = mul(du, u)
                elif cond == "centroid":
                    lhs = [a - b for a, b in zip(duv, mul(du, v))]
                    lhs += [a - b for a, b in zip(duv, mul(u, dv))]
                else:
                    lhs = zero
                assert not any(lhs), ("map condition %r solution fails its "
                                      "identity" % cond)


class MapSpace:
    """Solution space of a conjunction of map conditions, n^2 coordinates."""

    __slots__ = ("algebra", "conditions", "space")

    def __init__(self, algebra, conditions, space):
        self.algebra = algebra
        self.conditions = tuple(conditions)
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    @property
    def basis(self):
        return self.space.basis

    def __repr__(self):
        return "MapSpace(%s, dim=%d)" % ("&".join(self.conditions) or "all",
                                         self.dim)


def map_condition_space(alg, conditions):
    """Linear maps satisfying every named condition simultaneously."""
    conditions = tuple(conditions)
    if isinstance(alg, LieAlgebra):
        known, builder, mul = (LIE_MAP_CONDITIONS, _lie_map_rows,
                               alg.bracket_vectors)
    elif isinstance(alg, AssocAlgebra):
        known, builder, mul = (ASSOC_MAP_CONDITIONS, _assoc_map_rows,
                               alg.product_vectors)
    else:
        raise TypeError("not an algebra: %r" % (alg,))
    rows = []
    for cond in conditions:
        if cond not in known:
            raise ValueError("unknown map condition %r" % cond)
        rows.extend(builder(alg, cond))
    space = kernel_from_rows(alg.dim ** 2, rows)
    _recheck_maps(alg, conditions, space, mul)
    return MapSpace(alg, conditions, space)


def derivation_space(alg):
    return map_condition_space(alg, ("derivation",))


def antiderivation_space(alg):
    if not isinstance(alg, LieAlgebra):
        raise TypeError("antiderivations are a Lie algebra notion here")
    return map_condition_space(alg, ("antiderivation",))


def inner_derivations(alg):
    """Span of the adjoint maps ad x_i."""
    n = alg.dim
    vectors = []
    for i in range(n):
        row = {}
        for j in range(n):
            for k, c in alg.bracket(i, j):
                _add(row, k * n + j, c)
        if row:
            vectors.append(row)
    return span_from_rows(n * n, vectors)


# ---------------------------------------------------------------------------
# lambda pencils


def _pencil_rows(alg, kind):
    """Rows affine in the parameter: list of (constant part, linear part)."""
    n = alg.dim
    rows = []
    if kind == "lie_both":
        for i in range(n):
            for j in range(i + 1, n):
                per = {}
                for k, c in alg.bracket(i, j):
                    for r in range(n):
                        _add(per.setdefault(r, ({}, {}))[0], r * n + k, c)
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + i, -c)
                    for r, c in alg.bracket(i, m):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + j, -c)
                rows.extend(v for v in per.values() if v[0] or v[1])
        return rows
    if kind == "lie_left":
        for i in range(n):
            for j in range(n):
                per = {}
                for k, c in alg.bracket(i, j):
                    for r in range(n):
                        _add(per.setdefault(r, ({}, {}))[0], r * n + k, c)
                for m in range(n):
                    for r, c in alg.bracket(m, j):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + i, -c)
                rows.extend(v for v in per.values() if v[0] or v[1])
        return rows
    if kind == "assoc_left":
        for i in range(n):
            for j in range(n):
                per = {}
                for k, c in alg.product(i, j):
                    for r in range(n):
                        _add(per.setdefault(r, ({}, {}))[0], r * n + k, c)
                for m in range(n):
                    for r, c in alg.product(m, j):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + i, -c)
                rows.extend(v for v in per.values() if v[0] or v[1])
        return rows
    if kind == "assoc_both":
        for i in range(n):
            for j in range(i, n):
                per = {}
                for k, c in alg.product(i, j):
                    for r in range(n):
                        _add(per.setdefault(r, ({}, {}))[0], r * n + k, c)
                for m in range(n):
                    for r, c in alg.product(m, j):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + i, -c)
                    for r, c in alg.product(i, m):
                        _add(per.setdefault(r, ({}, {}))[1], m * n + j, -c)
                rows.extend(v for v in per.values() if v[0] or v[1])
        return rows
    raise ValueError("unknown pencil kind %r" % kind)


def _rows_at(rows, value):
    out = []
    for const, lin in rows:
        row = dict(const)
        for col, c in lin.items():
            _add(row, col, value * c)
        if row:
            out.append(row)
    return out


class PencilCandidates:
    """Confirmed parameter values of a pencil kernel, with exact solves.

    lambdas maps each confirmed value to its solution dimension.  degenerate
    means the kernel is nontrivial for generic parameter values, in which
    case root hunting is pointless and only the forced values are reported.
    residual_degree totals the degrees of irreducible nonrational factors of
    the determinant gcd; a nonzero value flags solutions living in algebraic
    extensions that exact rational solves cannot reach.

    The roots are searched modulo primes: the determinants of three seeded
    square projections of the pencil are interpolated modulo primes[0],
    the roots of the square-free part of their gcd are lifted to fractions
    by rational reconstruction, and a fraction is kept when the determinants
    also vanish at it modulo primes[1].  primes is empty for a degenerate
    pencil.  The search can miss a root or miscount residual_degree when the
    probe value 7919 is a root, when the projections or the prime make all
    three determinants vanish, when the prime is unlucky for the gcd, when
    a rational root has numerator or denominator above isqrt(p // 2), or
    (about once in 10**9 roots) when a nonrational root passes the second
    prime; lambda_candidates spells these out.  It cannot report a wrong
    value: every entry of lambdas has a nonzero kernel from an exact solve
    over Q.
    """

    __slots__ = ("algebra", "kind", "lambdas", "degenerate",
                 "residual_degree", "primes", "_rows", "_cache")

    def __init__(self, algebra, kind, lambdas, degenerate, residual_degree,
                 rows, primes):
        self.algebra = algebra
        self.kind = kind
        self.lambdas = lambdas
        self.degenerate = degenerate
        self.residual_degree = residual_degree
        self.primes = tuple(primes)
        self._rows = rows
        self._cache = {}

    def solution_at(self, value):
        value = Fraction(value)
        if value not in self._cache:
            self._cache[value] = kernel_from_rows(
                self.algebra.dim ** 2, _rows_at(self._rows, value))
        return self._cache[value]

    def __repr__(self):
        return ("PencilCandidates(%s, %s, degenerate=%s)"
                % (self.kind, {str(k): v for k, v in self.lambdas.items()},
                   self.degenerate))


_FORCED_VALUES = (_ONE, _HALF)
_GENERIC_PROBE = Fraction(7919)
_pencil_cache = {}


def _rank_of_rows(ncols, rows):
    return ncols - kernel_from_rows(ncols, rows).dim


def _projections(rows, n2, seed):
    """Three seeded random n2 x n2 projections of the pencil rows.

    Each is a pair (C, L) of dense integer matrices with C + lam L the
    projected rows times the lcm of every row denominator, which is
    returned alongside: scaling leaves the roots of det(C + lam L) alone.
    """
    scale = lcm(*(c.denominator for row in rows for part in row
                  for c in part.values()))
    int_rows = [[[(col, c.numerator * (scale // c.denominator))
                  for col, c in part.items()] for part in row]
                for row in rows]
    out = []
    for s in range(3):
        rng = random.Random(seed * 1009 + 7 * s + 3)
        cmat, lmat = [], []
        for _ in range(n2):
            crow, lrow = [0] * n2, [0] * n2
            for const, lin in int_rows:
                g = rng.randint(-4, 4)
                if not g:
                    continue
                for col, c in const:
                    crow[col] += g * c
                for col, c in lin:
                    lrow[col] += g * c
            cmat.append(crow)
            lmat.append(lrow)
        out.append((cmat, lmat))
    return out, scale


def _det_at(projection, t, p):
    """det(C + t L) mod p."""
    cmat, lmat = projection
    return det_mod([[(c + t * l) % p for c, l in zip(crow, lrow)]
                    for crow, lrow in zip(cmat, lmat)], p)


def lambda_candidates(alg, kind, seed=0):
    """Find rational parameter values where the pencil kernel jumps.

    The pencil is degenerate when its kernel is nonzero at the probe value
    7919; then only 1 and 1/2 are solved.  Otherwise the rows are projected
    to three seeded square pencils C + lam L, and each determinant is
    evaluated at the n^2 + 1 integers around 0 modulo the first prime of
    modp.PRIMES that divides no row denominator, and interpolated there.
    The distinct roots mod p of the square-free part of the gcd of the
    three polynomials are lifted to fractions by rational reconstruction,
    and a fraction is kept only if all three determinants vanish at it
    modulo the next such prime.  The kept roots, 1 and 1/2 are then solved
    exactly over Q, and lambdas holds those with a nonzero kernel.
    residual_degree is the degree of the square-free gcd mod p minus the
    number of kept roots.

    The ways the search can fail:

    * the probe 7919 is itself a root of a non-degenerate pencil, which is
      then taken as degenerate;
    * all three projected determinants vanish mod p (the projections lose
      rank, or p divides every determinant), so no root is searched and
      residual_degree is 0;
    * p is unlucky for the gcd (it divides a resultant, discriminant or
      leading coefficient), so the gcd mod p has extra factors or its
      square-free part is too small, and residual_degree is off;
    * a rational root with numerator or denominator above isqrt(p // 2)
      (23170) cannot be reconstructed; it is not solved and counts toward
      residual_degree instead;
    * a root mod p that is not rational reconstructs to a fraction at which
      all three determinants also vanish mod the second prime, so it is
      counted as rational and residual_degree is too small (a chance of
      about 1 in 10**9 per root);
    * fewer than two primes of modp.PRIMES divide no row denominator, and
      ArithmeticError is raised.

    None of these can add a wrong value to lambdas: every reported value
    has a nonzero kernel from an exact solve over Q.
    """
    key = (alg, kind, seed)
    if key in _pencil_cache:
        return _pencil_cache[key]
    n2 = alg.dim ** 2
    rows = _pencil_rows(alg, kind)
    generic_dim = n2 - _rank_of_rows(n2, _rows_at(rows, _GENERIC_PROBE))
    degenerate = generic_dim > 0
    residual_degree = 0
    primes = ()
    candidates = set(_FORCED_VALUES)
    if not degenerate:
        projections, scale = _projections(rows, n2, seed)
        primes = tuple(q for q in PRIMES if scale % q)[:2]
        if len(primes) < 2:
            raise ArithmeticError("only %d of the search primes divide no "
                                  "pencil row denominator" % len(primes))
        p, q = primes
        pts = list(range(-(n2 // 2), n2 - n2 // 2 + 1))
        polys = [interpolate(pts, [_det_at(proj, t, p) for t in pts], p)
                 for proj in projections]

        def confirm(x):
            t = x.numerator * pow(x.denominator, -1, q) % q
            return all(not _det_at(proj, t, q) for proj in projections)

        roots, residual_degree = rational_roots(polys, p, confirm,
                                                random.Random(seed))
        candidates.update(roots)
    lambdas = {}
    for value in sorted(candidates):
        d = n2 - _rank_of_rows(n2, _rows_at(rows, value))
        if d:
            lambdas[value] = d
    result = PencilCandidates(alg, kind, lambdas, degenerate,
                              residual_degree, rows, primes)
    _pencil_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# the span theorem


def _tensor_map(curr, dvec, bvec):
    """Map coordinates of d tensor b on the current algebra."""
    nl = curr.factorL.dim
    na = curr.factorA.dim
    n = curr.dim
    out = [_ZERO] * (n * n)
    dnz = [(k, i, dvec[k * nl + i])
           for k in range(nl) for i in range(nl) if dvec[k * nl + i]]
    for r in range(na):
        for p in range(na):
            b = bvec[r * na + p]
            if not b:
                continue
            for k, i, d in dnz:
                out[(r * nl + k) * n + p * nl + i] = d * b
    return out


def _map_entries(labels, vec):
    n = len(labels)
    return {"D(%s)->%s" % (labels[i], labels[m]): str(vec[m * n + i])
            for m in range(n) for i in range(n) if vec[m * n + i]}


def theorem_der_span(L, A, seed=0):
    """Assemble the candidate span of Der(L tensor A) and compare.

    Returns (der_space, span, details) where details carries per-family
    dimensions, the pencil reports, and the first non-derivation generator
    if one exists (there should be none).
    """
    curr = current(L, A)
    n = curr.dim
    der = derivation_space(curr)
    inner = inner_derivations(curr)
    assert der.space.contains(inner), "adjoint maps must be derivations"

    families = {"inner": inner}
    bad_generator = None

    pencil_l_both = lambda_candidates(L, "lie_both", seed)
    pencil_l_left = lambda_candidates(L, "lie_left", seed)
    pencil_a_left = lambda_candidates(A, "assoc_left", seed)
    pencil_a_both = lambda_candidates(A, "assoc_both", seed)

    def pencil_family(label, pencil_l, pencil_a):
        values = set(v for v in pencil_l.lambdas if v)
        values.update(1 / v for v in pencil_a.lambdas if v)
        values.update(_FORCED_VALUES)
        gens = []
        used = {}
        for lam in sorted(values):
            dl = pencil_l.solution_at(lam)
            if not dl.dim:
                continue
            da = pencil_a.solution_at(1 / lam)
            if not da.dim:
                continue
            used[str(lam)] = [dl.dim, da.dim]
            gens.extend(_tensor_map(curr, dv, bv)
                        for dv in dl.basis for bv in da.basis)
        families[label] = Subspace.from_vectors(n * n, gens)
        return gens, used

    gens_i, lam_i = pencil_family("i", pencil_l_both, pencil_a_left)
    gens_ii, lam_ii = pencil_family("ii", pencil_l_left, pencil_a_both)

    all_gens = list(gens_i) + list(gens_ii)
    for label, conds_l, conds_a in DER_TYPE_TABLE:
        sl = map_condition_space(L, conds_l).space
        sa = map_condition_space(A, conds_a).space
        gens = [_tensor_map(curr, dv, bv)
                for dv in sl.basis for bv in sa.basis]
        families[label] = Subspace.from_vectors(n * n, gens)
        all_gens.extend(gens)

    for g in all_gens:
        if not der.space.contains_vector(g):
            bad_generator = _map_entries(curr.labels, g)
            break

    span = inner
    span = subspace_sum(span, Subspace.from_vectors(n * n, all_gens))

    details = {
        "types": {label: families[label].dim
                  for label in ["inner", "i", "ii"]
                  + [lbl for lbl, _, _ in DER_TYPE_TABLE]},
        "lambda": {
            "i": {"values": lam_i,
                  "degenerate": pencil_l_both.degenerate or pencil_a_left.degenerate,
                  "residual_degree": pencil_l_both.residual_degree
                  + pencil_a_left.residual_degree},
            "ii": {"values": lam_ii,
                   "degenerate": pencil_l_left.degenerate or pencil_a_both.degenerate,
                   "residual_degree": pencil_l_left.residual_degree
                   + pencil_a_both.residual_degree},
        },
        "bad_generator": bad_generator,
    }
    return der, span, details


def verify_der_decomposition(L, A, lname=None, aname=None, seed=0):
    """Verdict report: Der(L tensor A) equals the assembled span."""
    if isinstance(L, str):
        lname = lname or L
        L = build_lie(L)
    if isinstance(A, str):
        aname = aname or A
        A = build_assoc(A)
    der, span, details = theorem_der_span(L, A, seed=seed)
    equal = der.space == span
    report = {
        "theorem": "der",
        "L": lname or "lie(dim %d)" % L.dim,
        "A": aname or "assoc(dim %d)" % A.dim,
        "types": details["types"],
        "lambda": details["lambda"],
        "der_dim": der.dim,
        "span_dim": span.dim,
        "equal": equal,
    }
    if details["bad_generator"] is not None:
        report["equal"] = False
        report["witness"] = {"direction": "generator_not_derivation",
                             "map": details["bad_generator"]}
    elif not equal:
        curr = current(L, A)
        for b in der.basis:
            residual = span.reduce(b)
            if any(residual):
                report["witness"] = {
                    "direction": "derivation_outside_span",
                    "map": _map_entries(curr.labels, b),
                    "residual": _map_entries(curr.labels, residual),
                }
                break
    return report


# ---------------------------------------------------------------------------
# transport between forms and maps through a nondegenerate form


def form_to_map(kappa, form_matrix):
    """The map D with kappa(D(x), y) = phi(x, y), as a matrix."""
    if not isinstance(form_matrix, Matrix):
        form_matrix = Matrix(form_matrix)
    return inverse(kappa.matrix) * form_matrix.transpose()


# ---------------------------------------------------------------------------
# the four-term sequence H^2(L,K) -> H^1(L,L*) -> B(L) -> H^3(L,K)


def sequence_maps(L, form=None, lname=None):
    """Representative-level check of the sequence u, v, w.

    u(phi)(x) = phi(x, -) as a 1-cochain with dual (or form-transported
    adjoint) coefficients, v(D)(x, y) = <D(x), y> + <D(y), x>, and w sends a
    symmetric invariant form phi to the alternating 3-cochain
    phi([x, y], z).  The report carries the four corner dimensions, the
    vanishing of both composites, exactness in the two middle spots, and
    injectivity of the induced map on H^2.
    """
    if isinstance(L, str):
        lname = lname or L
        L = build_lie(L)
    n = L.dim
    if form is None or form == "dual":
        mode = "dual"
        kappa = None
        module = coadjoint_module(L)
    else:
        mode = "form"
        if form == "killing":
            kappa = killing_form(L)
        elif isinstance(form, BilinearForm):
            kappa = form
        else:
            raise ValueError("form must be None, 'dual', 'killing', or a BilinearForm")
        assert kappa.symmetry == "symmetric"
        assert kappa.is_nondegenerate(), "transport needs a nondegenerate form"
        kinv = inverse(kappa.matrix)
        module = adjoint_module(L)

    h2 = cohomology(L, trivial_module(L), 2)
    h1 = cohomology(L, module, 1)
    h3 = cohomology(L, trivial_module(L), 3)
    b_forms = invariant_symmetric_forms(L).space

    pairs = list(combinations(range(n), 2))
    pair_rank = {p: r for r, p in enumerate(pairs)}
    triples = list(combinations(range(n), 3))

    def pair_value(vec, i, j):
        if i == j:
            return _ZERO
        if i < j:
            return vec[pair_rank[(i, j)]]
        return -vec[pair_rank[(j, i)]]

    def u_map(vec):
        out = [_ZERO] * (n * n)
        for j in range(n):
            col = [pair_value(vec, j, r) for r in range(n)]
            if mode == "form":
                col = [sum(kinv[m, t] * col[t] for t in range(n)) for m in range(n)]
            for m in range(n):
                out[j * n + m] = col[m]
        return out

    def v_map(c1):
        out = [_ZERO] * (n * n)
        for i in range(n):
            for j in range(n):
                if mode == "dual":
                    out[i * n + j] = c1[i * n + j] + c1[j * n + i]
                else:
                    s = _ZERO
                    for m in range(n):
                        s += c1[i * n + m] * kappa(m, j)
                        s += c1[j * n + m] * kappa(m, i)
                    out[i * n + j] = s
        return out

    def w_map(f):
        out = [_ZERO] * len(triples)
        for t, (i, j, k) in enumerate(triples):
            s = _ZERO
            for m, c in L.bracket(i, j):
                s += c * f[m * n + k]
            out[t] = s
        return out

    u_z2 = [u_map(z) for z in h2.z_space.basis]
    for vec in u_z2:
        assert h1.z_space.contains_vector(vec), "u must map cocycles to cocycles"
    for vec in (u_map(b) for b in h2.b_space.basis):
        assert h1.b_space.contains_vector(vec), "u must map coboundaries to coboundaries"

    v_after_u_zero = all(not any(v_map(vec)) for vec in u_z2)

    v_z1 = [v_map(z) for z in h1.z_space.basis]
    for vec in v_z1:
        assert b_forms.contains_vector(vec), "v must land in invariant symmetric forms"
    for vec in (v_map(b) for b in h1.b_space.basis):
        assert not any(vec), "v must kill coboundaries"
    v_image = Subspace.from_vectors(n * n, v_z1)

    for f in b_forms.basis:
        assert h3.z_space.contains_vector(w_map(f)), "w must produce cocycles"
    w_after_v_in_b3 = all(h3.b_space.contains_vector(w_map(vec)) for vec in v_z1)

    # exactness at H^1: (ker v meet Z^1) + B^1 == u(Z^2) + B^1
    vrows = []
    for i in range(n):
        for j in range(i, n):
            row = {}
            if mode == "dual":
                _add(row, i * n + j, _ONE)
                _add(row, j * n + i, _ONE)
            else:
                for m in range(n):
                    _add(row, i * n + m, kappa(m, j))
                    _add(row, j * n + m, kappa(m, i))
            if row:
                vrows.append(row)
    ker_v = kernel_from_rows(n * n, vrows)
    left = subspace_sum(subspace_intersect(ker_v, h1.z_space), h1.b_space)
    u_image = Subspace.from_vectors(n * n, u_z2)
    right = subspace_sum(u_image, h1.b_space)
    exact_at_h1 = left == right

    # exactness at B(L): v(Z^1) == {phi in B(L) : w(phi) in B^3}
    nb = b_forms.dim
    b3 = h3.b_space
    stacked = []
    w_of_basis = [w_map(f) for f in b_forms.basis]
    for t in range(len(triples)):
        row = {}
        for r in range(nb):
            _add(row, r, w_of_basis[r][t])
        for s, bvec in enumerate(b3.basis):
            _add(row, nb + s, -bvec[t])
        if row:
            stacked.append(row)
    coeff_kernel = kernel_from_rows(nb + b3.dim, stacked)
    k_vectors = []
    for kv in coeff_kernel.basis:
        vec = [_ZERO] * (n * n)
        for r in range(nb):
            if kv[r]:
                for c in range(n * n):
                    vec[c] += kv[r] * b_forms.basis[r][c]
        k_vectors.append(vec)
    k_space = Subspace.from_vectors(n * n, k_vectors)
    exact_at_b = v_image == k_space

    u_injective = (subspace_sum(u_image, h1.b_space).dim - h1.b_space.dim
                   == h2.z_space.dim - h2.b_space.dim)

    verdict = (v_after_u_zero and w_after_v_in_b3 and exact_at_h1
               and exact_at_b and u_injective)
    return {
        "theorem": "sequence",
        "L": lname or "lie(dim %d)" % n,
        "mode": mode,
        "dims": {"H2": h2.h_dim, "H1": h1.h_dim, "B": b_forms.dim,
                 "H3": h3.h_dim},
        "v_after_u_zero": v_after_u_zero,
        "w_after_v_in_B3": w_after_v_in_b3,
        "exact_at_H1": exact_at_h1,
        "exact_at_B": exact_at_b,
        "u_injective": u_injective,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# the distinguished outer derivation of sl2 tensor tK[t]/(t^N)


class LoopDerivation:
    """The degree-counting derivation with weight-dependent corrections."""

    __slots__ = ("algebra", "matrix", "order")

    def __init__(self, algebra, matrix, order):
        self.algebra = algebra
        self.matrix = matrix
        self.order = order

    def derivation_defect(self):
        """First basis pair where the derivation identity fails, or None."""
        curr = self.algebra
        n = curr.dim
        mat = self.matrix
        cols = [[mat[m, u] for m in range(n)] for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                lhs = [_ZERO] * n
                for k, c in curr.bracket(u, v):
                    for m in range(n):
                        lhs[m] += c * cols[k][m]
                rhs = [_ZERO] * n
                for m, a in enumerate(cols[u]):
                    if a:
                        for k, c in curr.bracket(m, v):
                            rhs[k] += a * c
                for m, a in enumerate(cols[v]):
                    if a:
                        for k, c in curr.bracket(u, m):
                            rhs[k] += a * c
                if lhs != rhs:
                    return (curr.labels[u], curr.labels[v])
        return None

    def flattening(self):
        """The coefficient tensor reshaped so rank 1 means d tensor b."""
        curr = self.algebra
        nl = curr.factorL.dim
        na = curr.factorA.dim
        rows = []
        for k in range(nl):
            for i in range(nl):
                row = []
                for r in range(na):
                    for p in range(na):
                        row.append(self.matrix[curr.flat(k, r), curr.flat(i, p)])
                rows.append(row)
        return Matrix(rows)

    def nondecomposability_witness(self):
        """A nonzero 2x2 minor of the flattening: ((rows), (cols), value)."""
        flat = self.flattening()
        nr, nc = flat.nrows, flat.ncols
        nz_rows = [r for r in range(nr) if any(flat[r, c] for c in range(nc))]
        for a in range(len(nz_rows)):
            for b in range(a + 1, len(nz_rows)):
                r1, r2 = nz_rows[a], nz_rows[b]
                for c1 in range(nc):
                    for c2 in range(c1 + 1, nc):
                        minor = (flat[r1, c1] * flat[r2, c2]
                                 - flat[r1, c2] * flat[r2, c1])
                        if minor:
                            return ((r1, r2), (c1, c2), minor)
        return None


def sl2_loop_derivation(N):
    """D(x tensor t^n) = x tensor (n t^n + w(x) t^{n+1}) on sl2 tensor
    tK[t]/(t^N), with w(e-) = -1, w(h) = 0, w(e+) = 1.  Needs N >= 3 for the
    correction terms to survive truncation."""
    if N < 3:
        raise ValueError("the loop derivation needs N >= 3")
    L = lie_sl2()
    A = assoc_truncated_poly(N)
    curr = current(L, A)
    n = curr.dim
    data = [[_ZERO] * n for _ in range(n)]
    for p, exp in enumerate(A.degrees):
        for i, weight in ((0, -1), (1, 0), (2, 1)):
            col = curr.flat(i, p)
            data[col][col] += exp
            if weight and exp + 1 <= N - 1:
                data[curr.flat(i, p + 1)][col] += weight
    return LoopDerivation(curr, Matrix(data), N)
