r"""Graded 2-cocycles of g tensor tK[t], one degree at a time.

The positive-degree loop algebra g tensor tK[t] is graded by the t-exponent,
and its 2-cochains split by total degree.  The degree-d component only ever
touches exponents at most d - 1 inside brackets, so the truncation
g tensor tK[t]/(t^order) computes it exactly whenever order >= d + 1.  That
window is the default; callers can widen it to confirm stability.

The component is the weight-d slice of the Chevalley-Eilenberg complex
of the truncation with trivial coefficients, computed by currentalg.cochain
on the tuples of weight d alone: the bracket adds degrees, so the
differential maps each weight slice to itself.  It is a plain
CochainSpaceResult of cochain degree 2 whose domain lists the increasing
flat basis pairs (u, v) with deg(u) + deg(v) = d, one alternating unknown
each; cocycle rows come from the increasing triples of weight d,
coboundaries from the functionals on g tensor t^d.  The weight d is the
caller's argument, not a field of the result.

larsson_report compares the computed dimensions for a direct sum of sl(n)
summands against the closed-form profile, none of which is solved on g:
C(dim g, 2) - dim g at degree 2 (no basis triple has weight 2, so
every alternating form on the t block is a cocycle, and the coboundaries
have dim [g, g] = dim g because an sl(n) sum is perfect), five per sl(2)
summand at degree 3, nothing from degree 4 on.  The degree-3 classes of an
sl(2) summand are pinned down further: symmetrized values on the (t, t^2)
block satisfy psi(e-, e+) = psi(h, h) / 2, and the symmetric
cyclic-sum-zero forms S on g and the coboundaries B sum directly to the
cocycles Z: S + B = Z with dim S + dim B = dim Z, one sum and one count.
That is the quadratic_presentation verdict.  A report names g by its
descriptor, or "lie(dim n)" for an algebra object.
"""

from math import comb

from .exactlin import Subspace, subspace_sum
from .algebras import _named, assoc_truncated_poly, build_lie, current
from .cochain import (CochainSpaceResult, _cochain_spaces, cohomology,
                      trivial_module)
from .forms import condition_space

__all__ = [
    "graded_h2",
    "larsson_report",
    "graded_form_dims",
    "graded_vs_whole",
]


def _truncation(g, order, degree=2):
    """g tensor tK[t]/(t^order), the window of every degree below order;
    a slice of degree d is exact only for order >= d + 1."""
    if order <= degree:
        raise ValueError("a degree-%d slice needs order at least %d, not %d"
                         % (degree, degree + 1, order))
    return current(g, assoc_truncated_poly(order))


def _component(curr, degree):
    """The degree-d slice of H^2 of a truncation built by _truncation."""
    return CochainSpaceResult(2, *_cochain_spaces(
        curr, trivial_module(curr), 2, weight=degree))


def graded_h2(g, degree, order=None):
    """The degree-d slice of H^2(g tensor tK[t], K), exact for order >= d+1."""
    g = build_lie(g)
    if degree < 2:
        raise ValueError("pair degrees start at 2")
    if order is None:
        order = degree + 1
    return _component(_truncation(g, order, degree), degree)


def _dims(res):
    """Z, B and H dimensions of a cohomology result or a graded slice."""
    return {"Z": res.z_space.dim, "B": res.b_space.dim, "H": res.h_dim}


def _sl2_offsets(g):
    """Start indices of the sl(2) summands inside a catalog direct sum."""
    offsets = []
    pos = 0
    for n in g.sl_summands:
        if n == 2:
            offsets.append(pos)
        pos += n * n - 1
    return offsets


def _quadratic_presentation(g, curr, comp):
    """Degree-3 structure of the degree-3 slice comp of the truncation
    curr: the symmetric cyclic-sum-zero forms on g and the coboundaries sum
    directly to the cocycles, and every cocycle's symmetrized (t, t^2)
    block obeys psi(e-, e+) = psi(h, h) / 2 per sl(2) summand."""
    pair_rank = {pair: r for r, pair in enumerate(comp.domain)}

    def rank(i, j):
        # the pair (x_i tensor t, x_j tensor t^2)
        return pair_rank[(curr.flat(i, 0), curr.flat(j, 1))]

    # the check is linear, so the integer rows of Z serve as its basis
    for z in comp.z_space.rows.values():
        def block(i, j):
            return z.get(rank(i, j), 0)

        for off in _sl2_offsets(g):
            em, h, ep = off, off + 1, off + 2
            # psi(e-, e+) = psi(h, h) / 2 for psi(x, y) = (z(x, y) + z(y, x)) / 2
            if block(em, ep) + block(ep, em) != block(h, h):
                return False

    sym_space = condition_space(g, "jacobi_sum_zero", "symmetric")
    s_space = Subspace.from_vectors(len(comp.domain), [
        {rank(*divmod(col, g.dim)): x for col, x in psi.items()}
        for psi in sym_space.rows.values()])
    # S + B = Z with dim S + dim B = dim Z puts S inside Z and makes the sum
    # direct, so S is a complement of B in Z
    return (subspace_sum(s_space, comp.b_space) == comp.z_space
            and s_space.dim + comp.b_space.dim == comp.z_space.dim)


def larsson_report(g, max_degree):
    """Dimensions of the graded H^2 slices against the closed-form profile:
    C(dim g, 2) - dim g in degree 2, five per sl(2) summand in degree 3 and
    zero above, none of it computed on g.  Only the slices are solved.

    Only direct sums of sl(n) summands carry a stated profile; anything
    else is rejected rather than guessed at.  A descriptor g names itself
    in the report, an algebra object is "lie(dim n)".
    """
    g, name = _named(g, build_lie)
    if g.sl_summands is None:
        raise ValueError("the graded profile is stated for sl(n) direct sums only")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")

    expected = {str(d): 0 for d in range(2, max_degree + 1)}
    # no basis triple has weight 2, so every degree-2 form is a cocycle; the
    # coboundaries have dim [g, g], which is dim g for a perfect sl(n) sum
    expected["2"] = comb(g.dim, 2) - g.dim
    if max_degree >= 3:
        expected["3"] = 5 * g.sl_summands.count(2)

    # one truncation serves every degree: the slices are stable in the order
    curr = _truncation(g, max_degree + 1, max_degree)
    degrees = {}
    quadratic = True
    verdict = True
    for d in range(2, max_degree + 1):
        comp = _component(curr, d)
        degrees[str(d)] = _dims(comp)
        if comp.h_dim != expected[str(d)]:
            verdict = False
        if d == 3:
            quadratic = _quadratic_presentation(g, curr, comp)
    return {
        "g": name,
        "degrees": degrees,
        "expected": expected,
        "verdict": verdict,
        "quadratic_presentation": quadratic,
    }


def graded_form_dims(condition, symmetry, degree, order=None):
    """Dimension of the degree-d forms on tK[t] cut out by a cyclic or
    cyclic-sum-zero condition, computed in the same truncation window; a
    degree-d form pairs exponents below d, so it is exact for order >= d."""
    if condition not in ("cyclic", "jacobi_sum_zero"):
        raise ValueError("unknown graded form condition %r" % condition)
    if degree < 2:
        raise ValueError("pair degrees start at 2")
    if order is None:
        order = degree + 1
    if order < degree:
        raise ValueError("a degree-%d form needs order at least %d, not %d"
                         % (degree, degree, order))
    A = assoc_truncated_poly(order)
    n = A.dim
    # both conditions and the symmetries respect the degree, so every
    # canonical basis vector is homogeneous: count those of degree d
    space = condition_space(A, condition, symmetry)
    return sum(1 for p in space.pivots
               if A.degrees[p // n] + A.degrees[p % n] == degree)


def graded_vs_whole(g, order):
    """Cross-check: the degree slices must add up to the cohomology of the
    whole truncated current algebra."""
    g = build_lie(g)
    curr = _truncation(g, order)
    whole = _dims(cohomology(curr, trivial_module(curr), 2))
    slices = [_dims(_component(curr, d))
              for d in range(2, 2 * (order - 1) + 1)]
    sums = {key: sum(dims[key] for dims in slices) for key in whole}
    return {"whole": whole, "graded_sum": sums, "match": whole == sums}
