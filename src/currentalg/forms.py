r"""Bilinear form spaces cut out by structure-constant conditions.

A bilinear form phi on an n-dimensional algebra is a vector of length n^2,
coordinate i*n + j holding phi(x_i, x_j).  condition_space solves the exact
linear system for a named condition, an identity of currentalg.identities
whose rows come from basis tuples through the sparse structure constants,
and returns the canonical subspace.  A symmetric or skew space is solved
over the pairs that currentalg.cochain lays out, its kernel squared back
to n^2 coordinates, so every basis vector has its symmetry by
construction.  The space is then rechecked: the condition at one seeded
combination of its basis on 12 seeded random triples of dense vectors,
which lets a space holding a bad vector pass with chance at most
2^-30 + (3/7)^10.  The recheck shares only the written identity and the
coordinate convention with the rows; a wrong tuple enumeration,
coordinate or sign in the row path makes it raise InvariantError, while
a row system that is too strict (a kernel too small) is beyond its reach.

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
pairs (S_L, S_A), and its generators are the tensor products of their
canonical integer rows, which are the canonical rows of S_L tensor S_A
(_family): a family of one pair needs no elimination, one of several pairs
one span of those rows.  The derivation verdict in currentalg.derivations
builds its families, witnesses and spans with the same helpers.  Each
decomposable type (label, L condition, A condition) is solved once on each
factor, with free symmetry.  The spanning direction runs over these
symmetry-free factor spaces (see the note at H2_DECOMPOSABLE_TYPES), and
the target is compared with the layer of the span of its overall symmetry,
read off cochain's fold with the opposite sign (_symmetry_layer).  Each
verdict is two containments, the layer in the target and the target in
the span.  The sub-typed pairs reported per type are the symmetric and
skew layers of the factor spaces (on the space of all forms, the squared
pair domain); a sub-type's dimension is the product of its layers'.  The
cocycle space is computed by two routes, which must agree.  Only a failed
containment builds a witness: the first sub-typed generator outside the
target, or the first basis vector of one space outside the other, with
its residual; both are read as pivot-1 vectors.
"""

from fractions import Fraction

from . import identities as ids
from .exactlin import Subspace, _RowStream, _span, kernel_from_rows, preimage
from .identities import require
from .algebras import _named, build_assoc, build_lie, current
from .cochain import _fold, _pair_domain, _squared, cohomology, trivial_module

__all__ = [
    "SYMMETRY_SIGNS",
    "condition_space",
    "invariant_symmetric_forms",
    "verify_h2_decomposition",
    "verify_forms_decomposition",
    "hc1_space",
    "decomposable_span",
    "H2_DECOMPOSABLE_TYPES",
    "FORMS_DECOMPOSABLE_TYPES",
]

# The sub-typed families pin a definite symmetry on each factor, which makes
# every single generator a form of the right overall symmetry.  That is too
# restrictive for the spanning direction: a target form may need summands
# phi tensor alpha of one type whose factors are neither symmetric nor skew,
# with the wrong-symmetry contributions cancelling only across summands.
# (Smallest case: on heis3 tensor tK[t]/(t^3) the symmetric invariant form
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


# phi(x_j, x_i) = sign * phi(x_i, x_j) in the forms of a symmetry but "any"
SYMMETRY_SIGNS = {"symmetric": 1, "skew": -1, "any": None}


def condition_space(alg, condition, symmetry="any"):
    """Forms on alg satisfying the named condition and symmetry constraint,
    as the canonical Subspace of n^2 coordinates."""
    if symmetry not in SYMMETRY_SIGNS:
        raise ValueError("unknown symmetry %r" % symmetry)
    return _solve(alg, ids.conditions(alg, "form", (condition,)),
                  SYMMETRY_SIGNS[symmetry])


def _solve(alg, idents, sign=None):
    """The unknowns of n^2 coordinates (forms or maps) on which every
    identity holds at its weights: the exact kernel of their rows,
    rechecked against the identities.  With a sign, the forms of that
    symmetry: the rows of each identity in its order for that symmetry
    (Identity.over), folded onto their pairs (cochain._fold) and squared
    back (cochain._squared).  The rows stream from the identities, through
    the fold, into the kernel, which holds only the distinct ones."""
    n, rows = alg.dim, ids.rows(alg, [ident.over(sign) for ident in idents])
    if sign is None:
        space = kernel_from_rows(n * n, _RowStream(rows))
    else:
        domain = _pair_domain(n, sign)
        kernel = kernel_from_rows(len(domain), _RowStream(_fold(rows, n, sign)))
        space = _squared(domain, n, kernel, sign)
    ids.recheck(alg, idents, space)
    return space


def invariant_symmetric_forms(alg):
    return condition_space(alg, "invariant", "symmetric")


def hc1_space(alg):
    """Skew forms with vanishing cyclic sum; the finite-dimensional stand-in
    for first cyclic cohomology of a commutative algebra."""
    return condition_space(alg, "jacobi_sum_zero", "skew")


# ---------------------------------------------------------------------------
# tensor-product families on a current algebra, shared with derivations


def _basis_vector(p, row):
    """The canonical basis vector (pivot entry 1) of the integer Subspace
    row with pivot p, as a sparse {coordinate: Fraction} dict."""
    return {c: Fraction(v, row[p]) for c, v in row.items()}


def _family(curr, factor_pairs):
    """Generators r_L tensor r_A over the canonical rows r_L of S_L and r_A
    of S_A of each factor-space pair (S_L, S_A), as (pivot, integer row)
    pairs in that order, and their span.

    r_L tensor r_A is the canonical row of S_L tensor S_A with its pivot at
    the tensor of the two pivots.  The flat index p * dim L + i orders the
    coordinates (x_i a_p, x_j a_q) as the tuples (p, i, q, j), so the tensor
    of the two lowest columns is the lowest column; every other product row
    is zero there; the content is 1 by Gauss's lemma and the pivot entry is
    positive.  So one pair spans Subspace(n^2, rows) with no elimination,
    and several pairs span one _span of their rows.  The pivot-1 vector of
    a generator (_basis_vector) is the tensor of the pivot-1 vectors of its
    factors."""
    n, nl, na = curr.dim, curr.factorL.dim, curr.factorA.dim
    # the pivot of r_L tensor r_A: (x_i a_p, x_j a_q) for pivots i * nl + j
    # and p * na + q
    gens = [(curr.flat(pl // nl, pa // na) * n + curr.flat(pl % nl, pa % na),
             curr.tensor(rl, ra))
            for sl, sa in factor_pairs for pl, rl in sl.rows.items()
            for pa, ra in sa.rows.items()]
    if len(factor_pairs) == 1:
        return gens, Subspace(n * n, dict(gens))
    return gens, _span(n * n, (dict(row) for _, row in gens))


def _entries(fmt, labels, vec):
    """The coordinates r * n + c of vec, a sparse dict of nonzero entries,
    keyed fmt.format(label_r, label_c) in coordinate order."""
    n = len(labels)
    return {fmt.format(labels[col // n], labels[col % n]): str(x)
            for col, x in sorted(vec.items())}


# witness key and coordinate format of forms and of maps
_FORM = ("form", "phi({0},{1})")
_MAP = ("map", "D({1})->{0}")


def _generator_witness(target, families, labels, kind, direction):
    """Witness for the first generator of families ({label: generators},
    as _family gives them) outside target, as its pivot-1 vector, or None."""
    key, fmt = kind
    for label, gens in families.items():
        for p, row in gens:
            if not target.contains_vector(row):
                return {"direction": direction, "type": label,
                        key: _entries(fmt, labels, _basis_vector(p, row))}
    return None


def _residual_witness(space, span, labels, kind, direction):
    """Witness for the first basis vector of space outside span, with its
    residual, or None."""
    key, fmt = kind
    for p, row in space.rows.items():
        if not span.contains_vector(row):
            b = _basis_vector(p, row)
            return {"direction": direction, key: _entries(fmt, labels, b),
                    "residual": _entries(fmt, labels, span.reduce(b))}
    return None


def _symmetry_layer(space, n, sign):
    """The forms of space, a subspace of n^2 coordinates, with
    phi(x_j, x_i) = sign * phi(x_i, x_j): the kernel on space of the fold
    with the opposite sign (cochain._fold), which reads
    phi(x_i, x_j) - sign * phi(x_j, x_i) on every pair.

    space passed the recheck of its condition, so a layer inside space
    whose every row folds to zero is covered by that recheck and by the
    fold; a layer outside space, or with a row of the wrong symmetry,
    raises InvariantError.  Like the recheck, this cannot catch a space
    that is too small.

    On the space of all n^2 forms, as "none" gives it, the layer is the
    squared pair domain of sign (cochain._squared on the whole domain), and
    cochain._square is the one writer of both (i, j) and (j, i): there the
    fold, the preimage and the layer check have nothing to do."""
    if space.dim == n * n:
        domain = _pair_domain(n, sign)
        return _squared(domain, n, kernel_from_rows(len(domain), []), sign)
    folded = list(_fold(space.rows.values(), n, -sign))
    layer = preimage(space, folded, Subspace.zero(len(_pair_domain(n, -sign))))
    require(space.contains(layer)
            and not any(_fold(layer.rows.values(), n, -sign)),
            "symmetry layer escapes its condition or symmetry space")
    return layer


def decomposable_span(curr, decomposable_types, symmetry):
    """The decomposition families of curr for one overall symmetry.

    Each type (label, L condition, A condition) is solved once on each
    factor, with free symmetry.  phi tensor alpha has the sign s_L * s_A of
    its factor symmetries, so each type splits into sub-type label + "a",
    the L layer of the given symmetry's sign times the symmetric A layer,
    and label + "b", the L layer of the opposite sign times the skew A
    layer; every layer is read off the fold (_symmetry_layer).

    Returns (per_type, full, layer): per_type maps each sub-type label to
    its (L layer, A layer) pair, whose _family spans S_L tensor S_A of
    dimension dim S_L * dim S_A, full is the span of phi tensor alpha over
    the symmetry-free factor spaces of every type, one elimination of their
    tensor rows, and layer, the forms of full with the given symmetry, is
    the part comparable with the target space.  Every sub-typed generator
    lies in layer: its factors lie in its type's factor spaces, and it has
    the overall symmetry.
    """
    L, A, sign = curr.factorL, curr.factorA, SYMMETRY_SIGNS[symmetry]
    per_type, factor_pairs = {}, []
    for label, cond_l, cond_a in decomposable_types:
        s_l, s_a = condition_space(L, cond_l), condition_space(A, cond_a)
        factor_pairs.append((s_l, s_a))
        for suffix, a_sign in (("a", 1), ("b", -1)):
            per_type[label + suffix] = (_symmetry_layer(s_l, L.dim, sign * a_sign),
                                        _symmetry_layer(s_a, A.dim, a_sign))
    _, full = _family(curr, factor_pairs)
    return per_type, full, _symmetry_layer(full, curr.dim, sign)


# ---------------------------------------------------------------------------
# verdicts


def _h2_via_cochain(curr):
    """Z^2 and B^2 of the current algebra with trivial coefficients,
    transported from alternating pair coordinates into n^2 coordinates."""
    res = cohomology(curr, trivial_module(curr), 2)
    return tuple(_squared(res.domain, curr.dim, space, -1)
                 for space in (res.z_space, res.b_space))


def _decomposition_report(theorem, curr, target, decomposable_types,
                          symmetry, direction, l_name, a_name):
    """Both containments between target and the decomposable span.

    Only a failing verdict looks for a witness.  If the span leaves target,
    the first sub-typed generator outside target, with its type (sharper
    than a basis vector), or else the first basis vector of the span
    outside target; if only target leaves the span, its first basis vector
    outside the symmetry-free span.
    """
    per_type, full, span = decomposable_span(curr, decomposable_types, symmetry)
    report = {
        "theorem": theorem,
        "L": l_name,
        "A": a_name,
        "dims": {
            "Z2": target.dim,
            "span": span.dim,
            "types": {label: s_l.dim * s_a.dim
                      for label, (s_l, s_a) in per_type.items()},
        },
        "span_in_Z": target.contains(span),
        "Z_in_span": full.contains(target),
    }
    if not report["span_in_Z"]:
        gens = {label: _family(curr, [pair])[0] for label, pair in per_type.items()}
        report["witness"] = (
            _generator_witness(target, gens, curr.labels, _FORM,
                               "generator_outside_target")
            or _residual_witness(span, target, curr.labels, _FORM, direction))
    elif not report["Z_in_span"]:
        report["witness"] = _residual_witness(target, full, curr.labels, _FORM,
                                              "target_not_in_span")
    return report


def verify_h2_decomposition(L, A):
    """Compare the 2-cocycle space of L tensor A with the eight-type span.

    The cocycle space is computed twice, once as a form condition system and
    once through the cochain complex, and the two must agree exactly.  The
    coboundary space must land in the span of skew-on-L times symmetric-on-A
    products.  Either failure raises InvariantError.  The returned report
    carries both containment verdicts, and names L and A as
    algebras._named does.
    """
    (L, l_name), (A, a_name) = _named(L, build_lie), _named(A, build_assoc)
    curr = current(L, A)
    z_form = condition_space(curr, "jacobi_sum_zero", "skew")
    z_cochain, b_cochain = _h2_via_cochain(curr)
    require(z_form == z_cochain, "cocycle routes disagree")
    _, envelope = _family(curr, [(condition_space(L, "none", "skew"),
                                  condition_space(A, "none", "symmetric"))])
    require(envelope.contains(b_cochain),
            "coboundaries escape the skew/symmetric envelope")
    return _decomposition_report(
        "h2", curr, z_form, H2_DECOMPOSABLE_TYPES, "skew",
        "span_element_not_cocycle", l_name, a_name)


def verify_forms_decomposition(L, A):
    """Compare symmetric invariant forms on L tensor A with the type span,
    naming L and A as algebras._named does."""
    (L, l_name), (A, a_name) = _named(L, build_lie), _named(A, build_assoc)
    curr = current(L, A)
    return _decomposition_report(
        "forms", curr, invariant_symmetric_forms(curr),
        FORMS_DECOMPOSABLE_TYPES, "symmetric", "span_element_not_invariant",
        l_name, a_name)
