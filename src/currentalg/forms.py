r"""Bilinear form spaces cut out by structure-constant conditions.

A bilinear form phi on an n-dimensional algebra is a vector of length n^2,
coordinate i*n + j holding phi(x_i, x_j).  condition_space solves the exact
linear system for a named condition plus a symmetry constraint and returns
the canonical subspace.  The conditions and symmetries are identities of
currentalg.identities, whose rows come from basis tuples through the sparse
structure constants.  Every solution basis vector is then rechecked: the
condition on 12 seeded random triples of dense vectors through
mul_vectors, the symmetry on every pair of coordinates.  The recheck
shares only the written identity and the coordinate convention with the
rows; a wrong tuple enumeration, coordinate or sign in the row path makes
it raise InvariantError, while a row system that is too strict (a kernel
too small) is beyond its reach.

Conditions on a Lie algebra L (phi: L x L -> K):

    jacobi_sum_zero   phi([x,y],z) + phi([z,x],y) + phi([y,z],x) = 0
    cyclic            phi([x,y],z) = phi([z,x],y)
    radical           phi([L,L], L) = 0
    invariant         phi([x,y],z) + phi(y,[x,z]) = 0
    none              no condition

Conditions on a commutative associative algebra A (alpha: A x A -> K):

    jacobi_sum_zero   alpha(ab,c) + alpha(ca,b) + alpha(bc,a) = 0
    cyclic            alpha(ab,c) = alpha(ca,b)
    radical           alpha(AA, A) = 0
    invariant         alpha(ab,c) = alpha(a,bc)
    none              no condition

On top of these sit the two decomposition verdicts: the 2-cocycle space of a
current algebra L tensor A equals the skew layer of the span of four tensor
product families, and the space of symmetric invariant forms equals the
symmetric layer of the span of three.  The sub-typed families (each factor
with a pinned symmetry) are reported per type, but the spanning direction
must run over symmetry-free factors: see the note at H2_DECOMPOSABLE_TYPES.
Both verifiers compute the left side twice where a second route exists and
compare generator by generator, reporting a witness form on failure.
"""

from fractions import Fraction
from itertools import combinations

from . import identities as ids
from .exactlin import Subspace, kernel_from_rows, subspace_intersect
from .algebras import AssocAlgebra, LieAlgebra, build_assoc, build_lie, current
from .cochain import cohomology, trivial_module

__all__ = [
    "FormSpace",
    "condition_space",
    "invariant_symmetric_forms",
    "tensor_form_span",
    "verify_h2_decomposition",
    "verify_forms_decomposition",
    "hc1_space",
    "decomposable_span",
    "H2_TYPE_TABLE",
    "FORMS_TYPE_TABLE",
    "H2_DECOMPOSABLE_TYPES",
    "FORMS_DECOMPOSABLE_TYPES",
]

_ZERO = Fraction(0)

# Cocycle types on L tensor A: (label, (L condition, L symmetry),
# (A condition, A symmetry)).  The product of a form on L and a form on A is
# skew overall exactly when the symmetries differ, hence the a/b split.
H2_TYPE_TABLE = (
    ("ia", ("jacobi_sum_zero", "skew"), ("cyclic", "symmetric")),
    ("ib", ("jacobi_sum_zero", "symmetric"), ("cyclic", "skew")),
    ("iia", ("cyclic", "skew"), ("jacobi_sum_zero", "symmetric")),
    ("iib", ("cyclic", "symmetric"), ("jacobi_sum_zero", "skew")),
    ("iiia", ("radical", "skew"), ("none", "symmetric")),
    ("iiib", ("radical", "symmetric"), ("none", "skew")),
    ("iva", ("none", "skew"), ("radical", "symmetric")),
    ("ivb", ("none", "symmetric"), ("radical", "skew")),
)

# Symmetric invariant form types: the product is symmetric when both factors
# share a symmetry type.
FORMS_TYPE_TABLE = (
    ("ia", ("cyclic", "symmetric"), ("cyclic", "symmetric")),
    ("ib", ("cyclic", "skew"), ("cyclic", "skew")),
    ("iia", ("radical", "symmetric"), ("none", "symmetric")),
    ("iib", ("radical", "skew"), ("none", "skew")),
    ("iiia", ("none", "symmetric"), ("radical", "symmetric")),
    ("iiib", ("none", "skew"), ("radical", "skew")),
)

# The sub-typed tables pin a definite symmetry on each factor, which makes
# every single generator a form of the right overall symmetry.  That is too
# restrictive for the spanning direction: a target form may need summands
# phi tensor alpha of one type whose factors are neither symmetric nor skew,
# with the wrong-symmetry contributions cancelling only across summands.
# (Smallest case: on heis3 tensor tK[t]/(t^4) the symmetric invariant form
# with phi(x t^2, z t) = phi(z t, x t^2) = 1 needs a type (ii) and a type
# (iii) piece that are transposes of each other, and no sum of sub-typed
# generators reaches it.)  The spanning check therefore uses symmetry-free
# factor spaces and cuts the total down to the overall symmetry layer.
H2_DECOMPOSABLE_TYPES = (
    ("i", "jacobi_sum_zero", "cyclic"),
    ("ii", "cyclic", "jacobi_sum_zero"),
    ("iii", "radical", "none"),
    ("iv", "none", "radical"),
)

FORMS_DECOMPOSABLE_TYPES = (
    ("i", "cyclic", "cyclic"),
    ("ii", "radical", "none"),
    ("iii", "none", "radical"),
)


class FormSpace:
    """Solution space of a form condition, in n^2 coordinates."""

    __slots__ = ("algebra", "condition", "symmetry", "space")

    def __init__(self, algebra, condition, symmetry, space):
        self.algebra = algebra
        self.condition = condition
        self.symmetry = symmetry
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    @property
    def basis(self):
        return self.space.basis

    def __repr__(self):
        return ("FormSpace(%s, %s, dim=%d)"
                % (self.condition, self.symmetry, self.dim))


def condition_space(alg, condition, symmetry="any"):
    """Forms on alg satisfying the named condition and symmetry constraint."""
    if symmetry not in ids.SYMMETRIES:
        raise ValueError("unknown symmetry %r" % symmetry)
    if isinstance(alg, LieAlgebra):
        table = ids.LIE_FORMS
    elif isinstance(alg, AssocAlgebra):
        table = ids.ASSOC_FORMS
    else:
        raise TypeError("not an algebra: %r" % (alg,))
    if condition not in table:
        raise ValueError("unknown form condition %r" % condition)
    conds = (table[condition], ids.SYMMETRIES[symmetry])
    space = kernel_from_rows(alg.dim ** 2, ids.rows(alg, conds))
    ids.recheck(alg, conds, space)
    return FormSpace(alg, condition, symmetry, space)


def invariant_symmetric_forms(alg):
    return condition_space(alg, "invariant", "symmetric")


def hc1_space(alg):
    """Skew forms with vanishing cyclic sum; the finite-dimensional stand-in
    for first cyclic cohomology of a commutative algebra."""
    return condition_space(alg, "jacobi_sum_zero", "skew")


# ---------------------------------------------------------------------------
# tensor-product spans on a current algebra


def _tensor_vec(curr, lvec, avec):
    nl = curr.factorL.dim
    na = curr.factorA.dim
    n = curr.dim
    out = [_ZERO] * (n * n)
    lnz = [(i, j, lvec[i * nl + j])
           for i in range(nl) for j in range(nl) if lvec[i * nl + j]]
    for p in range(na):
        for q in range(na):
            a = avec[p * na + q]
            if not a:
                continue
            for i, j, lv in lnz:
                out[(p * nl + i) * n + q * nl + j] = lv * a
    return out


def tensor_form_span(curr, type_table):
    """Per-type spans of phi tensor alpha generators and their total sum.

    Returns (per_type, total, generators) where per_type maps label to a
    Subspace, total is the sum over all types, and generators maps label to
    the list of raw tensor vectors, for generator-level membership checks.
    """
    n = curr.dim
    per_type = {}
    generators = {}
    all_gens = []
    for label, (cond_l, sym_l), (cond_a, sym_a) in type_table:
        sl = condition_space(curr.factorL, cond_l, sym_l).space
        sa = condition_space(curr.factorA, cond_a, sym_a).space
        gens = [_tensor_vec(curr, lv, av)
                for lv in sl.basis for av in sa.basis]
        per_type[label] = Subspace.from_vectors(n * n, gens)
        generators[label] = gens
        all_gens.extend(gens)
    total = Subspace.from_vectors(n * n, all_gens)
    return per_type, total, generators


def decomposable_span(curr, decomposable_types, symmetry):
    """Span of all type products with free factor symmetry, and its
    intersection with the forms of the given overall symmetry.

    Returns (full, layer) where full is the span of phi tensor alpha over
    the symmetry-free factor condition spaces and layer = full meet
    {symmetry} is the part comparable with the target space.
    """
    n = curr.dim
    gens = []
    for _, cond_l, cond_a in decomposable_types:
        sl = condition_space(curr.factorL, cond_l, "any").space
        sa = condition_space(curr.factorA, cond_a, "any").space
        gens.extend(_tensor_vec(curr, lv, av)
                    for lv in sl.basis for av in sa.basis)
    full = Subspace.from_vectors(n * n, gens)
    sym = kernel_from_rows(n * n, ids.rows(curr, (ids.SYMMETRIES[symmetry],)))
    return full, subspace_intersect(full, sym)


# ---------------------------------------------------------------------------
# verdicts


def _skew_pairs_to_n2(n, pair_list, vec):
    out = [_ZERO] * (n * n)
    for r, (i, j) in enumerate(pair_list):
        out[i * n + j] = vec[r]
        out[j * n + i] = -vec[r]
    return out


def _h2_via_cochain(curr):
    """Z^2 and B^2 of the current algebra with trivial coefficients,
    transported from alternating pair coordinates into n^2 coordinates."""
    res = cohomology(curr, trivial_module(curr, 1), 2)
    n = curr.dim
    pairs = list(combinations(range(n), 2))
    z = Subspace.from_vectors(
        n * n, [_skew_pairs_to_n2(n, pairs, b) for b in res.z_space.basis])
    b = Subspace.from_vectors(
        n * n, [_skew_pairs_to_n2(n, pairs, b) for b in res.b_space.basis])
    return z, b


def _form_entries(labels, vec):
    n = len(labels)
    return {"phi(%s,%s)" % (labels[i], labels[j]): str(vec[i * n + j])
            for i in range(n) for j in range(n) if vec[i * n + j]}


def _membership_verdicts(target, per_type_gens, labels):
    """Check every tensor generator lies in target and every target basis
    vector lies in the total span; first failure becomes the witness."""
    witness = None
    span_in_target = True
    for label, gens in per_type_gens.items():
        for g in gens:
            if not target.contains_vector(g):
                span_in_target = False
                if witness is None:
                    witness = {"direction": "generator_outside_target",
                               "type": label,
                               "form": _form_entries(labels, g)}
                break
        if not span_in_target:
            break
    return span_in_target, witness


def _target_in_span(target, total, labels, direction="target_not_in_span"):
    for b in target.basis:
        residual = total.reduce(b)
        if any(residual):
            return False, {"direction": direction,
                           "form": _form_entries(labels, b),
                           "residual": _form_entries(labels, residual)}
    return True, None


def _resolve_pair(L, A):
    lname = L if isinstance(L, str) else None
    aname = A if isinstance(A, str) else None
    L = build_lie(L) if isinstance(L, str) else L
    A = build_assoc(A) if isinstance(A, str) else A
    return L, A, lname or "lie(dim %d)" % L.dim, aname or "assoc(dim %d)" % A.dim


def _decomposition_report(theorem, curr, target, type_table, decomposable_types,
                          symmetry, direction, names):
    """Both inclusions between target and the decomposable span, with the
    first witness of a failure."""
    per_type, _, gens = tensor_form_span(curr, type_table)
    full, span = decomposable_span(curr, decomposable_types, symmetry)
    # sub-typed generators first (per-generator witnesses are sharper), then
    # the whole symmetry layer of the symmetry-free span
    span_in_target, w1 = _membership_verdicts(target, gens, curr.labels)
    if span_in_target:
        span_in_target, w1 = _target_in_span(span, target, curr.labels,
                                             direction=direction)
    target_in_span, w2 = _target_in_span(target, full, curr.labels)
    report = {
        "theorem": theorem,
        "L": names[0],
        "A": names[1],
        "dims": {
            "Z2": target.dim,
            "span": span.dim,
            "types": {label: per_type[label].dim for label, _, _ in type_table},
        },
        "span_in_Z": span_in_target,
        "Z_in_span": target_in_span,
    }
    witness = w1 or w2
    if witness is not None:
        report["witness"] = witness
    return report


def verify_h2_decomposition(L, A, lname=None, aname=None):
    """Compare the 2-cocycle space of L tensor A with the eight-type span.

    The cocycle space is computed twice, once as a form condition system and
    once through the cochain complex, and the two must agree exactly.  The
    coboundary space must land in the span of skew-on-L times symmetric-on-A
    products.  The returned report carries both inclusion verdicts.
    """
    L, A, auto_l, auto_a = _resolve_pair(L, A)
    curr = current(L, A)
    z_form = condition_space(curr, "jacobi_sum_zero", "skew").space
    z_cochain, b_cochain = _h2_via_cochain(curr)
    assert z_form == z_cochain, "cocycle routes disagree"

    skew_l = condition_space(L, "none", "skew").space
    sym_a = condition_space(A, "none", "symmetric").space
    envelope = Subspace.from_vectors(
        curr.dim ** 2,
        [_tensor_vec(curr, lv, av) for lv in skew_l.basis for av in sym_a.basis])
    assert envelope.contains(b_cochain), "coboundaries escape the skew/symmetric envelope"
    return _decomposition_report(
        "h2", curr, z_form, H2_TYPE_TABLE, H2_DECOMPOSABLE_TYPES, "skew",
        "span_element_not_cocycle", (lname or auto_l, aname or auto_a))


def verify_forms_decomposition(L, A, lname=None, aname=None):
    """Compare symmetric invariant forms on L tensor A with the type span."""
    L, A, auto_l, auto_a = _resolve_pair(L, A)
    curr = current(L, A)
    return _decomposition_report(
        "forms", curr, invariant_symmetric_forms(curr).space, FORMS_TYPE_TABLE,
        FORMS_DECOMPOSABLE_TYPES, "symmetric", "span_element_not_invariant",
        (lname or auto_l, aname or auto_a))
