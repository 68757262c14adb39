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
symmetric layer of the span of three.  A family is a list of factor-space
pairs (S_L, S_A), and its generators are the tensor products of their basis
vectors; the derivation verdict in currentalg.derivations builds its
families, witnesses and spans with the same helpers.  The sub-typed
families (each factor with a pinned symmetry, derived from the
decomposable types by the product rule) are reported per type, but the
spanning direction runs over symmetry-free factors: see the note at
H2_DECOMPOSABLE_TYPES.  The cocycle space is computed by two routes, which
must agree.  A failed inclusion is reported with a witness: the first
generator outside the target, or the first basis vector of one space
outside the other, with its residual.
"""

from fractions import Fraction

from . import identities as ids
from .exactlin import Subspace, kernel_from_rows, subspace_intersect
from .identities import require
from .algebras import AssocAlgebra, LieAlgebra, build_assoc, build_lie, current
from .cochain import _skew_square, cohomology, trivial_module

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


def _type_table(decomposable_types, symmetry):
    """(label, (L condition, L symmetry), (A condition, A symmetry)) per
    sub-type.  phi tensor alpha is skew exactly when the factor symmetries
    differ, so each type splits into an "a" entry with alpha symmetric and
    a "b" entry with alpha skew, phi taking the symmetry that makes the
    product's symmetry the given one."""
    other = {"symmetric": "skew", "skew": "symmetric"}[symmetry]
    return tuple((label + suffix, (cond_l, sym_l), (cond_a, sym_a))
                 for label, cond_l, cond_a in decomposable_types
                 for suffix, sym_l, sym_a in (("a", symmetry, "symmetric"),
                                              ("b", other, "skew")))


H2_TYPE_TABLE = _type_table(H2_DECOMPOSABLE_TYPES, "skew")
FORMS_TYPE_TABLE = _type_table(FORMS_DECOMPOSABLE_TYPES, "symmetric")


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
# tensor-product families on a current algebra, shared with derivations


def _tensor_vec(curr, lvec, avec):
    """l tensor a in n^2 coordinates: (x_i a_p, x_j a_q) holds l[i, j] a[p, q].

    Forms and maps share the layout, so this is phi tensor alpha as a form
    and d tensor b as a map alike."""
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


def _family(curr, factor_pairs):
    """Generators s_L tensor s_A over the basis vectors of each factor-space
    pair (S_L, S_A), and their span."""
    gens = [_tensor_vec(curr, lv, av)
            for sl, sa in factor_pairs for lv in sl.basis for av in sa.basis]
    return gens, Subspace.from_vectors(curr.dim ** 2, gens)


def _entries(fmt, labels, vec):
    """Nonzero coordinates r * n + c of vec, keyed fmt.format(label_r, label_c)."""
    n = len(labels)
    return {fmt.format(labels[r], labels[c]): str(vec[r * n + c])
            for r in range(n) for c in range(n) if vec[r * n + c]}


# witness key and coordinate format of forms and of maps
_FORM = ("form", "phi({0},{1})")
_MAP = ("map", "D({1})->{0}")


def _generator_witness(target, families, labels, kind, direction):
    """Witness for the first generator of families ({label: generators})
    outside target, or None."""
    key, fmt = kind
    for label, gens in families.items():
        for g in gens:
            if not target.contains_vector(g):
                return {"direction": direction, "type": label,
                        key: _entries(fmt, labels, g)}
    return None


def _residual_witness(space, span, labels, kind, direction):
    """Witness for the first basis vector of space outside span, with its
    residual, or None."""
    key, fmt = kind
    for b in space.basis:
        residual = span.reduce(b)
        if any(residual):
            return {"direction": direction, key: _entries(fmt, labels, b),
                    "residual": _entries(fmt, labels, residual)}
    return None


def _factor_pair(curr, cond_l, sym_l, cond_a, sym_a):
    return (condition_space(curr.factorL, cond_l, sym_l).space,
            condition_space(curr.factorA, cond_a, sym_a).space)


def tensor_form_span(curr, type_table):
    """Per-type spans of phi tensor alpha generators and their total sum.

    Returns (per_type, total, generators) where per_type maps label to a
    Subspace, total is the sum over all types, and generators maps label to
    the list of raw tensor vectors, for generator-level membership checks.
    """
    per_type = {}
    generators = {}
    for label, (cond_l, sym_l), (cond_a, sym_a) in type_table:
        generators[label], per_type[label] = _family(
            curr, [_factor_pair(curr, cond_l, sym_l, cond_a, sym_a)])
    total = Subspace.from_vectors(
        curr.dim ** 2, [g for gens in generators.values() for g in gens])
    return per_type, total, generators


def decomposable_span(curr, decomposable_types, symmetry):
    """Span of all type products with free factor symmetry, and its
    intersection with the forms of the given overall symmetry.

    Returns (full, layer) where full is the span of phi tensor alpha over
    the symmetry-free factor condition spaces and layer = full meet
    {symmetry} is the part comparable with the target space.
    """
    _, full = _family(curr, [_factor_pair(curr, cond_l, "any", cond_a, "any")
                             for _, cond_l, cond_a in decomposable_types])
    n = curr.dim
    sym = kernel_from_rows(n * n, ids.rows(curr, (ids.SYMMETRIES[symmetry],)))
    return full, subspace_intersect(full, sym)


# ---------------------------------------------------------------------------
# verdicts


def _h2_via_cochain(curr):
    """Z^2 and B^2 of the current algebra with trivial coefficients,
    transported from alternating pair coordinates into n^2 coordinates."""
    res = cohomology(curr, trivial_module(curr, 1), 2)
    n = curr.dim
    return tuple(Subspace.from_vectors(
        n * n, [_skew_square(n, v) for v in space.basis])
        for space in (res.z_space, res.b_space))


def _resolve_pair(L, A):
    lname = L if isinstance(L, str) else None
    aname = A if isinstance(A, str) else None
    L = build_lie(L) if isinstance(L, str) else L
    A = build_assoc(A) if isinstance(A, str) else A
    return L, A, lname or "lie(dim %d)" % L.dim, aname or "assoc(dim %d)" % A.dim


def _decomposition_report(theorem, curr, target, decomposable_types,
                          symmetry, direction, names):
    """Both inclusions between target and the decomposable span, with the
    first witness of a failure."""
    type_table = _type_table(decomposable_types, symmetry)
    per_type, _, gens = tensor_form_span(curr, type_table)
    full, span = decomposable_span(curr, decomposable_types, symmetry)
    # sub-typed generators first (per-generator witnesses are sharper), then
    # the whole symmetry layer of the symmetry-free span
    w1 = (_generator_witness(target, gens, curr.labels, _FORM,
                             "generator_outside_target")
          or _residual_witness(span, target, curr.labels, _FORM, direction))
    w2 = _residual_witness(target, full, curr.labels, _FORM, "target_not_in_span")
    report = {
        "theorem": theorem,
        "L": names[0],
        "A": names[1],
        "dims": {
            "Z2": target.dim,
            "span": span.dim,
            "types": {label: space.dim for label, space in per_type.items()},
        },
        "span_in_Z": w1 is None,
        "Z_in_span": w2 is None,
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
    products.  Either failure raises InvariantError.  The returned report
    carries both inclusion verdicts.
    """
    L, A, auto_l, auto_a = _resolve_pair(L, A)
    curr = current(L, A)
    z_form = condition_space(curr, "jacobi_sum_zero", "skew").space
    z_cochain, b_cochain = _h2_via_cochain(curr)
    require(z_form == z_cochain, "cocycle routes disagree")
    _, envelope = _family(curr, [_factor_pair(curr, "none", "skew", "none", "symmetric")])
    require(envelope.contains(b_cochain),
            "coboundaries escape the skew/symmetric envelope")
    return _decomposition_report(
        "h2", curr, z_form, H2_DECOMPOSABLE_TYPES, "skew",
        "span_element_not_cocycle", (lname or auto_l, aname or auto_a))


def verify_forms_decomposition(L, A, lname=None, aname=None):
    """Compare symmetric invariant forms on L tensor A with the type span."""
    L, A, auto_l, auto_a = _resolve_pair(L, A)
    curr = current(L, A)
    return _decomposition_report(
        "forms", curr, invariant_symmetric_forms(curr).space,
        FORMS_DECOMPOSABLE_TYPES, "symmetric", "span_element_not_invariant",
        (lname or auto_l, aname or auto_a))
