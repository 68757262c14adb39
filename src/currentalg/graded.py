r"""Graded 2-cocycles of g tensor tK[t], one degree at a time.

The positive-degree loop algebra g tensor tK[t] is graded by the t-exponent,
and its 2-cochains split by total degree.  The degree-d component only ever
touches exponents at most d - 1 inside brackets, so the truncation
g tensor tK[t]/(t^order) computes it exactly whenever order >= d + 1.  That
window is the default; callers can widen it to confirm stability.

Coordinates are alternating pair coordinates: one unknown per increasing
flat basis pair (u, v) with deg(u) + deg(v) = d.  Cocycle rows come from
increasing triples of total degree d, coboundaries from functionals on the
degree-d slice g tensor t^d.

larsson_report compares the computed dimensions for a direct sum of sl(n)
summands against the closed-form profile: at degree 2 the quotient of all
alternating forms by coboundaries, at degree 3 five dimensions per sl(2)
summand, nothing from degree 4 on.  The degree-3 classes of an sl(2)
summand are pinned down further: symmetrized values on the (t, t^2) block
satisfy psi(e-, e+) = psi(h, h) / 2, and the symmetric cyclic-sum-zero
forms on g inject onto a complement of the coboundaries.  That is the
quadratic_presentation verdict.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .exactlin import Subspace, kernel_from_rows, subspace_intersect, subspace_sum
from .algebras import assoc_truncated_poly, build_lie, current
from .cochain import cohomology, trivial_module
from .forms import condition_space
from .identities import add_entry, require

__all__ = [
    "GradedComponent",
    "graded_h2",
    "larsson_report",
    "graded_form_dims",
    "graded_vs_whole",
]

_ZERO = Fraction(0)


class GradedComponent:
    """Degree-d cocycles and coboundaries in pair coordinates."""

    __slots__ = ("degree", "order", "curr", "pairs", "pair_index",
                 "z_space", "b_space", "h_dim")

    def __init__(self, degree, order, curr, pairs, z_space, b_space):
        self.degree = degree
        self.order = order
        self.curr = curr
        self.pairs = pairs
        self.pair_index = {p: r for r, p in enumerate(pairs)}
        self.z_space = z_space
        self.b_space = b_space
        self.h_dim = z_space.dim - b_space.dim

    def __repr__(self):
        return ("GradedComponent(degree=%d, Z=%d, B=%d, H=%d)"
                % (self.degree, self.z_space.dim, self.b_space.dim,
                   self.h_dim))


def graded_h2(g, degree, order=None):
    """The degree-d slice of H^2(g tensor tK[t], K), exact for order >= d+1."""
    if isinstance(g, str):
        g = build_lie(g)
    if degree < 2:
        raise ValueError("pair degrees start at 2")
    if order is None:
        order = degree + 1
    if order < 3:
        raise ValueError("order must be at least 3")
    A = assoc_truncated_poly(order)
    curr = current(g, A)
    deg = curr.degrees
    n = curr.dim
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if deg[u] + deg[v] == degree]
    pidx = {p: r for r, p in enumerate(pairs)}

    rows = []
    for u, v, w in combinations(range(n), 3):
        if deg[u] + deg[v] + deg[w] != degree:
            continue
        row = {}
        for a, b, c in ((u, v, w), (w, u, v), (v, w, u)):
            for k, coeff in curr.bracket(a, b):
                if k == c:
                    continue
                if k < c:
                    add_entry(row, pidx[(k, c)], coeff)
                else:
                    add_entry(row, pidx[(c, k)], -coeff)
        if row:
            rows.append(row)
    z_space = kernel_from_rows(len(pairs), rows)

    b_rows = []
    if degree <= order - 1:
        ng = g.dim
        for k in range(ng):
            target = curr.flat(k, degree - 1)
            vec = {}
            for idx, (u, v) in enumerate(pairs):
                for kk, coeff in curr.bracket(u, v):
                    if kk == target:
                        add_entry(vec, idx, -coeff)
            if vec:
                b_rows.append(vec)
    b_space = Subspace.from_vectors(len(pairs), b_rows)
    require(z_space.contains(b_space), "graded coboundaries must be cocycles")
    return GradedComponent(degree, order, curr, pairs, z_space, b_space)


def _sl2_offsets(g):
    """Start indices of the sl(2) summands inside a catalog direct sum."""
    offsets = []
    pos = 0
    for n in g.sl_summands:
        if n == 2:
            offsets.append(pos)
        pos += n * n - 1
    return offsets


def _degree3_block_index(comp, i, j):
    """z(x_i tensor t, x_j tensor t^2) for a degree-3 component."""
    ng = comp.curr.factorL.dim
    return comp.pair_index[(i, ng + j)]


def _quadratic_presentation(g, comp):
    """Degree-3 structure: the symmetric cyclic-sum-zero forms on g span a
    complement of the coboundaries, and every cocycle's symmetrized
    (t, t^2) block obeys psi(e-, e+) = psi(h, h) / 2 per sl(2) summand."""
    ng = g.dim
    npairs = len(comp.pairs)
    sym_space = condition_space(g, "jacobi_sum_zero", "symmetric").space
    svecs = []
    for psi in sym_space.basis:
        vec = [_ZERO] * npairs
        for i in range(ng):
            for j in range(ng):
                val = psi[i * ng + j]
                if val:
                    vec[_degree3_block_index(comp, i, j)] = val
        svecs.append(vec)
    s_space = Subspace.from_vectors(npairs, svecs)
    ok = comp.z_space.contains(s_space)
    ok = ok and subspace_intersect(s_space, comp.b_space).dim == 0
    ok = ok and subspace_sum(s_space, comp.b_space) == comp.z_space

    half = Fraction(1, 2)
    for z in comp.z_space.basis:
        def block(i, j):
            return z[_degree3_block_index(comp, i, j)]

        def sym(i, j):
            return (block(i, j) + block(j, i)) * half

        for off in _sl2_offsets(g):
            em, h, ep = off, off + 1, off + 2
            if sym(em, ep) != sym(h, h) * half:
                return False
    return ok


def larsson_report(g, max_degree, order=None, gname=None):
    """Dimensions of the graded H^2 slices against the closed-form profile.

    Only direct sums of sl(n) summands carry a stated profile; anything
    else is rejected rather than guessed at.
    """
    if isinstance(g, str):
        gname = gname or g
        g = build_lie(g)
    if g.sl_summands is None:
        raise ValueError("the graded profile is stated for sl(n) direct sums only")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")

    b2_dim = cohomology(g, trivial_module(g), 2).b_space.dim
    n_sl2 = sum(1 for n in g.sl_summands if n == 2)
    expected = {}
    for d in range(2, max_degree + 1):
        if d == 2:
            expected[str(d)] = comb(g.dim, 2) - b2_dim
        elif d == 3:
            expected[str(d)] = 5 * n_sl2
        else:
            expected[str(d)] = 0

    degrees = {}
    quadratic = True
    verdict = True
    for d in range(2, max_degree + 1):
        comp = graded_h2(g, d, order=order)
        degrees[str(d)] = {"Z": comp.z_space.dim, "B": comp.b_space.dim,
                           "H": comp.h_dim}
        if comp.h_dim != expected[str(d)]:
            verdict = False
        if d == 3:
            quadratic = _quadratic_presentation(g, comp)
    return {
        "g": gname or "lie(dim %d)" % g.dim,
        "degrees": degrees,
        "expected": expected,
        "verdict": verdict,
        "quadratic_presentation": quadratic,
    }


def graded_form_dims(condition, symmetry, degree, order=None):
    """Dimension of the degree-d forms on tK[t] cut out by a cyclic or
    cyclic-sum-zero condition, computed in the same truncation window."""
    if condition not in ("cyclic", "jacobi_sum_zero"):
        raise ValueError("unknown graded form condition %r" % condition)
    if order is None:
        order = degree + 1
    A = assoc_truncated_poly(order)
    n = A.dim
    # both conditions and the symmetries respect the degree, so every
    # canonical basis vector is homogeneous: count those of degree d
    space = condition_space(A, condition, symmetry).space
    return sum(1 for p in space.pivots
               if A.degrees[p // n] + A.degrees[p % n] == degree)


def graded_vs_whole(g, order):
    """Cross-check: the degree slices must add up to the cohomology of the
    whole truncated current algebra."""
    if isinstance(g, str):
        g = build_lie(g)
    A = assoc_truncated_poly(order)
    curr = current(g, A)
    whole = cohomology(curr, trivial_module(curr), 2)
    sums = {"Z": 0, "B": 0, "H": 0}
    for d in range(2, 2 * (order - 1) + 1):
        comp = graded_h2(g, d, order=order)
        sums["Z"] += comp.z_space.dim
        sums["B"] += comp.b_space.dim
        sums["H"] += comp.h_dim
    whole_dims = {"Z": whole.z_space.dim, "B": whole.b_space.dim,
                  "H": whole.h_dim}
    return {"whole": whole_dims, "graded_sum": sums,
            "match": whole_dims == sums}
