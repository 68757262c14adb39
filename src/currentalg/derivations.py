r"""Derivations of current algebras: spaces, pencils, and the span theorem.

A linear map D on an n-dimensional algebra is a vector of length n^2 with
coordinate m*n + i holding the coefficient of x_m in D(x_i).  The named
map conditions below cut out exact subspaces.  The span theorem compares
the derivation space of L tensor A with the inner derivations plus ten
tensor families, built like the form families of currentalg.forms: a
family is a list of factor-space pairs (S_L, S_A), one pair for each type
of DER_TYPE_TABLE (conjunctions of the conditions) and one pair per
admissible lam for each of the two one-parameter families.
verify_der_decomposition builds the current algebra, Der, the families and
their span in one body, and looks for a witness only when the verdict
fails: the first generator that is not a derivation, with its type, or
else the first derivation outside the span with its residual.

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

The ideals [L,L], Z(L), AA and Ann(A) enter only through these
conditions; none is built as a subspace.

The one-parameter families are pencils: d[x,y] = lam([dx,y] + [x,dy]) on L
against b(xy) = mu b(x)y on A, and d[x,y] = lam[dx,y] against
b(xy) = mu(b(x)y + x b(y)), matched by lam * mu = 1.  Their rational
values come from a block-by-block search modulo primes, confirmed by exact
kernels over Q; lambda_candidates states its method and how it can fail.

Apart from module_map and self_bracket_zero, every condition above is a
pencil of currentalg.identities at fixed weights: derivation is d[x,y] =
lam([dx,y] + [x,dy]) at lam = 1, kill_derived its lam-free part, and so
on.  Rows come from basis tuples through the sparse structure constants.
Each solution space, of a condition or of a pencil kernel at a value, is
rechecked at one seeded combination of its basis on 10 seeded random
pairs of dense vectors; a space holding a bad vector passes with chance
at most 2^-30 + (3/7)^10.  The recheck shares only the written identity
and the coordinate convention with the rows: a wrong tuple enumeration,
coordinate or sign in the row path makes it raise InvariantError, rows
that are too strict (a kernel too small) do not.

sequence_maps checks the four-term sequence H^2(L,K) -> H^1(L,L*) -> B(L)
-> H^3(L,K), which depends on L and one pairing alone: the dual pairing of
L* with L, or a symmetric nondegenerate form on L.  Its maps read and
return sparse vectors, like every internal path of the package.
"""

from fractions import Fraction
from math import lcm
import random

from . import identities as ids
from .exactlin import (
    Subspace,
    _RowStream,
    _span,
    inverse,
    kernel_from_rows,
    preimage,
    subspace_sum,
)
from .algebras import (
    _named,
    AssocAlgebra,
    BilinearForm,
    LieAlgebra,
    build_assoc,
    build_lie,
    current,
    lie_sl2,
    assoc_truncated_poly,
)
from .cochain import (
    _square,
    adjoint_module,
    coadjoint_module,
    cohomology,
    trivial_module,
)
from .forms import (
    _MAP,
    _family,
    _generator_witness,
    _residual_witness,
    _solve,
    invariant_symmetric_forms,
)
from .identities import add_entry, require
from .modp import (
    PRIMES,
    det_mod,
    pencil_det,
    poly_gcd,
    poly_mul,
    rational_roots,
)

__all__ = [
    "map_condition_space",
    "derivation_space",
    "antiderivation_space",
    "inner_derivations",
    "PencilCandidates",
    "lambda_candidates",
    "verify_der_decomposition",
    "sequence_maps",
    "sl2_loop_derivation",
    "LoopDerivation",
    "DER_TYPE_TABLE",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

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


def map_condition_space(alg, conditions):
    """Linear maps satisfying every named condition simultaneously, as the
    canonical Subspace of n^2 coordinates."""
    return _solve(alg, ids.conditions(alg, "map", tuple(conditions)))


def derivation_space(alg):
    return map_condition_space(alg, ("derivation",))


def antiderivation_space(alg):
    if not isinstance(alg, LieAlgebra):
        raise TypeError("antiderivations are a Lie algebra notion here")
    return map_condition_space(alg, ("antiderivation",))


def inner_derivations(alg):
    """Span of the adjoint maps ad x_i; zero on a commutative associative
    algebra."""
    n = alg.dim
    if isinstance(alg, AssocAlgebra):
        return Subspace.zero(n * n)
    return Subspace.from_vectors(n * n, [
        {k * n + j: c for (k, j), c in alg.ad(i).items()} for i in range(n)])


# ---------------------------------------------------------------------------
# lambda pencils


class PencilCandidates:
    """Confirmed parameter values of a pencil kernel, with exact solves.

    lambdas maps each confirmed value to its solution dimension.  degenerate
    means the kernel is nontrivial for generic parameter values, in which
    case root hunting is pointless and only the forced values are reported.
    residual_degree totals the degrees of irreducible nonrational factors of
    the determinant gcd; a nonzero value flags solutions living in algebraic
    extensions that exact rational solves cannot reach.

    lambda_candidates finds the values by a block-by-block search modulo
    the two primes in primes (empty for a degenerate pencil), and states
    its method and how it can miss a value or miscount residual_degree.
    It cannot report a wrong value: every entry of lambdas has a nonzero
    exact kernel over Q, and solution_at rechecks every kernel against the
    pencil identity at its value.
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
        """The exact kernel at value, rechecked against the identity."""
        value = Fraction(value)
        if value not in self._cache:
            space = kernel_from_rows(self.algebra.dim ** 2, _RowStream(
                ids.rows_at(self._rows, (_ONE, value))))
            ids.recheck(self.algebra,
                        (ids.PENCILS[self.kind].at(_ONE, value),), space)
            self._cache[value] = space
        return self._cache[value]

    def __repr__(self):
        return ("PencilCandidates(%s, %s, degenerate=%s)"
                % (self.kind, {str(k): v for k, v in self.lambdas.items()},
                   self.degenerate))


_FORCED_VALUES = (_ONE, _HALF)
_GENERIC_PROBE = Fraction(7919)
# the three projections of every block draw their multipliers, uniform in
# -4..4, from seeds 3, 10 and 17; the roots mod p are split from seed 0
_PROJECTION_SEEDS = (3, 10, 17)
_ROOT_SEED = 0
_pencil_cache = {}


def _blocks(rows, n2):
    """The connected blocks of the pencil rows, as (columns, rows) pairs.

    Two columns are joined when some row, in either part, holds both.  The
    columns of a block are sorted, the blocks are ordered by their first
    column, and each row that holds a column goes with the block of its
    columns, in its original order.
    """
    parent = list(range(n2))

    def find(col):
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    for row in rows:
        cols = [col for part in row for col in part]
        for col in cols[1:]:
            a, b = find(cols[0]), find(col)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks = {}
    for col in range(n2):
        blocks.setdefault(find(col), ([], []))[0].append(col)
    for row in rows:
        first = next((col for part in row for col in part), None)
        if first is not None:
            blocks[find(first)][1].append(row)
    return list(blocks.values())


def _projections(rows, n2):
    """Three random square projections of each block of the rows.

    A block of k columns gets three pairs (C, L) of dense k x k integer
    matrices, each with C + lam L a combination of the block's rows in its
    own columns, times the lcm of every row denominator, which is returned
    alongside: scaling leaves the roots of det(C + lam L) alone.  The
    multipliers of the i-th projection of every block are drawn in -4..4
    from seed _PROJECTION_SEEDS[i], so the same rows give the same
    projections on every run.
    """
    scale = lcm(*(c.denominator for row in rows for part in row
                  for c in part.values()))
    rngs = [random.Random(s) for s in _PROJECTION_SEEDS]
    out = []
    for cols, block_rows in _blocks(rows, n2):
        local = {col: i for i, col in enumerate(cols)}
        int_rows = [[[(local[col], c.numerator * (scale // c.denominator))
                      for col, c in part.items()] for part in row]
                    for row in block_rows]
        k = len(cols)
        projections = []
        for rng in rngs:
            cmat, lmat = [], []
            for _ in range(k):
                crow, lrow = [0] * k, [0] * k
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
            projections.append((cmat, lmat))
        out.append(projections)
    return out, scale


def _det_at(projection, t, p):
    """det(C + t L) mod p."""
    cmat, lmat = projection
    return det_mod([[(c + t * l) % p for c, l in zip(crow, lrow)]
                    for crow, lrow in zip(cmat, lmat)], p)


def _value(poly, t, p):
    """poly(t) mod p."""
    out = 0
    for c in reversed(poly):
        out = (out * t + c) % p
    return out


def lambda_candidates(alg, kind):
    """Find rational parameter values where the pencil kernel jumps.

    The pencil is degenerate when its kernel is nonzero at the probe value
    7919; then only 1 and 1/2 are solved.  Otherwise the columns are split
    into blocks, the connected components of the graph that joins two
    columns when a row (either part) holds both, so that the pencil is
    block diagonal.  Each block of k columns is projected to three k x k
    pencils C + lam L of its own rows, with multipliers drawn from the
    fixed seeds _PROJECTION_SEEDS, and the determinant polynomial of each
    comes from one characteristic polynomial (modp.pencil_det) modulo the
    first prime p of modp.PRIMES that divides no row denominator; each
    polynomial must agree with a direct determinant at the probe, or
    InvariantError is raised.  The gcds of the blocks' three polynomials
    are multiplied mod p, the distinct roots mod p of the square-free part
    of the product are lifted to fractions by rational reconstruction, and
    a fraction is kept only if all three determinants of some block vanish
    at it modulo the next such prime q.
    The kept roots, 1 and 1/2 are then solved exactly over Q, and lambdas
    holds those with a nonzero kernel.  residual_degree is the degree of
    the square-free product mod p minus the number of kept roots; the gcd
    of the maximal minors of a block diagonal pencil is the product of its
    blocks' gcds, so this is the quantity a search of the whole pencil
    would give.

    The draws are fixed (the roots mod p are split from _ROOT_SEED too), so
    the result depends on the pencil alone, and a pencil the search fails
    on fails the same way on every run.  The ways the search can fail:

    * the probe 7919 is itself a root of a non-degenerate pencil, which is
      then taken as degenerate;
    * all three projected determinants of one block vanish mod p (its
      projections lose rank, or p divides every determinant), so the
      product is zero, no root is searched and residual_degree is 0;
    * p is unlucky for a gcd (it divides a resultant, discriminant or
      leading coefficient), so the product mod p has extra factors or its
      square-free part is too small, and residual_degree is off;
    * a rational root with numerator or denominator above isqrt(p // 2)
      (23170) cannot be reconstructed; it is not solved and counts toward
      residual_degree instead;
    * a root mod p that is not rational reconstructs to a fraction at which
      all three determinants of a block also vanish mod q, so it is
      counted as rational and residual_degree is too small (a chance of
      about 1 in 10**9 per root and block);
    * fewer than two primes of modp.PRIMES divide no row denominator, and
      ValueError is raised: a limit of the input, like every ValueError.

    None of these can add a wrong value to lambdas: every reported value
    has a nonzero exact kernel over Q.
    """
    key = (alg, kind)
    if key in _pencil_cache:
        return _pencil_cache[key]
    if kind not in ids.PENCILS:
        raise ValueError("unknown pencil kind %r" % kind)
    n2 = alg.dim ** 2
    rows = ids.pencil_rows(alg, ids.PENCILS[kind])
    degenerate = kernel_from_rows(
        n2, _RowStream(ids.rows_at(rows, (_ONE, _GENERIC_PROBE)))).dim > 0
    residual_degree = 0
    primes = ()
    candidates = set(_FORCED_VALUES)
    if not degenerate:
        blocks, scale = _projections(rows, n2)
        primes = tuple(q for q in PRIMES if scale % q)[:2]
        if len(primes) < 2:
            raise ValueError("only %d of the search primes divide no "
                             "pencil row denominator" % len(primes))
        p, q = primes
        probe = int(_GENERIC_PROBE)
        product = [1]
        for projections in blocks:
            block_gcd = []
            for proj in projections:
                # pencil_det shifts by 0, 1, ..., k, so for any block below
                # 7919 columns the probe is a point other than the shift
                poly = pencil_det(*proj, p)
                require(_value(poly, probe, p) == _det_at(proj, probe, p),
                        "block determinant polynomial disagrees with its "
                        "determinant at the probe")
                block_gcd = poly_gcd(block_gcd, poly, p)
            product = poly_mul(product, block_gcd, p)

        def confirm(x):
            t = x.numerator * pow(x.denominator, -1, q) % q
            return any(all(not _det_at(proj, t, q) for proj in projections)
                       for projections in blocks)

        roots, residual_degree = rational_roots(product, p, confirm,
                                                random.Random(_ROOT_SEED))
        candidates.update(roots)
    result = PencilCandidates(alg, kind, {}, degenerate,
                              residual_degree, rows, primes)
    for value in sorted(candidates):
        d = result.solution_at(value).dim
        if d:
            result.lambdas[value] = d
    _pencil_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# the span theorem


def _admissible(pencil_l, pencil_a):
    """(lam, S_L, S_A) for every lam whose L kernel at lam and A kernel at
    1/lam are both nonzero; lam runs over the nonzero values of either
    pencil (the A side inverted) and the forced values."""
    values = set(v for v in pencil_l.lambdas if v)
    values.update(1 / v for v in pencil_a.lambdas if v)
    values.update(_FORCED_VALUES)
    out = []
    for lam in sorted(values):
        dl = pencil_l.solution_at(lam)
        if dl.dim:
            da = pencil_a.solution_at(1 / lam)
            if da.dim:
                out.append((lam, dl, da))
    return out


def verify_der_decomposition(L, A):
    """Verdict report: Der(L tensor A) equals the span of the inner
    derivations and of every family (forms._family), one elimination of
    their rows; L and A are named as algebras._named does.

    equal is der == span.  Only a failing verdict looks for a witness: the
    first generator that is not a derivation, with its type, or else, since
    then the span lies in Der, the first derivation outside the span with
    its residual.
    """
    (L, l_name), (A, a_name) = _named(L, build_lie), _named(A, build_assoc)
    curr = current(L, A)
    der = derivation_space(curr)
    inner = inner_derivations(curr)
    require(der.contains(inner), "adjoint maps must be derivations")

    pencils = {"i": (lambda_candidates(L, "lie_both"),
                     lambda_candidates(A, "assoc_left")),
               "ii": (lambda_candidates(L, "lie_left"),
                      lambda_candidates(A, "assoc_both"))}
    admissible = {label: _admissible(*pair) for label, pair in pencils.items()}
    pairs = {label: [(dl, da) for _, dl, da in found]
             for label, found in admissible.items()}
    for label, conds_l, conds_a in DER_TYPE_TABLE:
        pairs[label] = [(map_condition_space(L, conds_l),
                         map_condition_space(A, conds_a))]
    gens, families = {}, {"inner": inner}
    for label, factor_pairs in pairs.items():
        gens[label], families[label] = _family(curr, factor_pairs)
    span = _span(curr.dim ** 2, [dict(row) for space in families.values()
                                 for row in space.rows.values()])

    report = {
        "theorem": "der",
        "L": l_name,
        "A": a_name,
        "types": {label: space.dim for label, space in families.items()},
        "lambda": {
            label: {"values": {str(lam): [dl.dim, da.dim]
                               for lam, dl, da in admissible[label]},
                    "degenerate": pl.degenerate or pa.degenerate,
                    "residual_degree": pl.residual_degree + pa.residual_degree}
            for label, (pl, pa) in pencils.items()},
        "der_dim": der.dim,
        "span_dim": span.dim,
        "equal": der == span,
    }
    if not report["equal"]:
        report["witness"] = (
            _generator_witness(der, gens, curr.labels, _MAP,
                               "generator_not_derivation")
            or _residual_witness(der, span, curr.labels, _MAP,
                                 "derivation_outside_span"))
    return report


# ---------------------------------------------------------------------------
# the four-term sequence H^2(L,K) -> H^1(L,L*) -> B(L) -> H^3(L,K)


def sequence_maps(L, form="dual"):
    """Representative-level check of the sequence u, v, w.

    u(phi)(x) = phi(x, -) as a 1-cochain with dual (or form-transported
    adjoint) coefficients, v(D)(x, y) = <D(x), y> + <D(y), x>, and w sends a
    symmetric invariant form phi to the alternating 3-cochain
    phi([x, y], z).  The report carries the four corner dimensions, the
    vanishing of both composites, exactness in the two middle spots, and
    injectivity of the induced map on H^2.  form is "dual" or a symmetric
    nondegenerate invariant BilinearForm on L; anything else, a form of
    another dimension included, raises ValueError.  The report names L by its
    descriptor, else "lie(dim n)".
    """
    L, name = _named(L, build_lie)
    n = L.dim
    if form == "dual":
        # the dual mode is the form mode for the identity pairing of L* with L
        mode = "dual"
        module = coadjoint_module(L)
        pairing = copairing = [[(i, 1)] for i in range(n)]
    else:
        mode = "form"
        if not isinstance(form, BilinearForm):
            raise ValueError("form must be 'dual' or a BilinearForm")
        if form.dim != n:
            raise ValueError("form dimension %d does not match dim L = %d"
                             % (form.dim, n))
        if form.symmetry != "symmetric":
            raise ValueError("transport needs a symmetric form")
        try:
            dual = inverse(form.matrix)
        except ValueError:
            raise ValueError("transport needs a nondegenerate form") from None
        if ids.first_failure(L, ids.LIE_FORMS["invariant"], form.as_vector()):
            raise ValueError("transport needs an invariant form")
        module = adjoint_module(L)
        # the form and its inverse are symmetric, so row t lists column t too
        pairing, copairing = [[[(j, x) for j, x in enumerate(row) if x]
                               for row in mat]
                              for mat in (form.matrix, dual)]

    h2 = cohomology(L, trivial_module(L), 2)
    h1 = cohomology(L, module, 1)
    h3 = cohomology(L, trivial_module(L), 3)
    b_forms = invariant_symmetric_forms(L)
    brackets = sorted(L.table.items())
    triple_rank = {t: r for r, t in enumerate(h3.domain)}

    def times(vec, rows):
        # the sparse n^2 vector vec as an n x n matrix times the sparse
        # matrix with these rows
        out = {}
        for col, c in vec.items():
            i, t = divmod(col, n)
            for m, k in rows[t]:
                add_entry(out, i * n + m, c * k)
        return out

    def u_map(vec):
        # D(x_j) = sum over m, t of kappa^-1(m, t) phi(x_j, x_t) x_m
        return times(_square(h2.domain, n, vec, -1), copairing)

    def v_map(c1):
        # g(x_i, x_j) = kappa(D(x_i), x_j), and v(D) = g + g^T
        out = {}
        for col, x in times(c1, pairing).items():
            i, j = divmod(col, n)
            add_entry(out, col, x)
            add_entry(out, j * n + i, x)
        return out

    def w_map(f):
        # phi([x_i, x_j], x_k) for a sparse form vector f, as a sparse
        # {rank of (i, j, k) in the domain of C^3: value}: only the pairs
        # i < j with [x_i, x_j] != 0 give entries
        out = {}
        for (i, j), terms in brackets:
            for k in range(j + 1, n):
                v = sum(c * f.get(m * n + k, 0) for m, c in terms)
                if v:
                    out[triple_rank[(i, j, k)]] = v
        return out

    # u, v and w are read on the integer rows of Z^2, B^2, Z^1, B^1 and
    # B(L), and preimage takes the images of those rows: every use below is
    # blind to rescaling a vector
    u_z2 = [u_map(z) for z in h2.z_space.rows.values()]
    require(all(h1.z_space.contains_vector(vec) for vec in u_z2),
            "u must map cocycles to cocycles")
    require(all(h1.b_space.contains_vector(u_map(b))
                for b in h2.b_space.rows.values()),
            "u must map coboundaries to coboundaries")

    v_after_u_zero = all(not v_map(vec) for vec in u_z2)

    v_z1 = [v_map(z) for z in h1.z_space.rows.values()]
    require(all(b_forms.contains_vector(vec) for vec in v_z1),
            "v must land in invariant symmetric forms")
    require(not any(v_map(b) for b in h1.b_space.rows.values()),
            "v must kill coboundaries")
    v_image = Subspace.from_vectors(n * n, v_z1)

    w_of_rows = [w_map(f) for f in b_forms.rows.values()]
    require(all(h3.z_space.contains_vector(vec) for vec in w_of_rows),
            "w must produce cocycles")
    w_after_v_in_b3 = all(h3.b_space.contains_vector(w_map(vec)) for vec in v_z1)

    # exactness at H^1: (ker v meet Z^1) + B^1 == u(Z^2) + B^1
    ker_v_z1 = preimage(h1.z_space, v_z1, Subspace.zero(n * n))
    u_image_b1 = subspace_sum(Subspace.from_vectors(n * n, u_z2), h1.b_space)
    exact_at_h1 = subspace_sum(ker_v_z1, h1.b_space) == u_image_b1

    # exactness at B(L): v(Z^1) == {phi in B(L) : w(phi) in B^3}
    exact_at_b = v_image == preimage(b_forms, w_of_rows, h3.b_space)

    u_injective = u_image_b1.dim - h1.b_space.dim == h2.h_dim

    verdict = (v_after_u_zero and w_after_v_in_b3 and exact_at_h1
               and exact_at_b and u_injective)
    return {
        "theorem": "sequence",
        "L": name,
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
    """The degree-counting derivation with weight-dependent corrections.

    matrix is a tuple of Fraction rows: matrix[m][i] is the coefficient of
    x_m in D(x_i)."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = matrix

    def derivation_defect(self):
        """First basis pair where the derivation identity fails, or None."""
        curr = self.algebra
        vec = [x for row in self.matrix for x in row]
        pair = ids.first_failure(curr, ids.LIE_MAPS["derivation"], vec)
        return None if pair is None else tuple(curr.labels[u] for u in pair)

    def flattening(self):
        """The coefficient tensor reshaped so rank 1 means d tensor b."""
        curr, m = self.algebra, self.matrix
        nl, na = curr.factorL.dim, curr.factorA.dim
        return tuple(
            tuple(m[curr.flat(k, r)][curr.flat(i, p)]
                  for r in range(na) for p in range(na))
            for k in range(nl) for i in range(nl))

    def nondecomposability_witness(self):
        """A nonzero 2x2 minor of the flattening: ((rows), (cols), value)."""
        flat = self.flattening()
        nc = len(flat[0])
        nz_rows = [r for r, row in enumerate(flat) if any(row)]
        for a in range(len(nz_rows)):
            for b in range(a + 1, len(nz_rows)):
                r1, r2 = nz_rows[a], nz_rows[b]
                for c1 in range(nc):
                    for c2 in range(c1 + 1, nc):
                        minor = (flat[r1][c1] * flat[r2][c2]
                                 - flat[r1][c2] * flat[r2][c1])
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
    return LoopDerivation(curr, tuple(map(tuple, data)))
