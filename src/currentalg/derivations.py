r"""Derivations of current algebras: spaces, pencils, and the span theorem.

A linear map D on an n-dimensional algebra is a vector of length n^2 with
coordinate m*n + i holding the coefficient of x_m in D(x_i).  The named
map conditions below cut out exact subspaces.  The span theorem compares
the derivation space of L tensor A with the inner derivations plus ten
tensor families, built like the form families of currentalg.forms: a
family is a list of factor-space pairs (S_L, S_A), one pair for each type
of DER_TYPE_TABLE (conjunctions of the conditions) and one pair per
admissible lam for each of the two one-parameter families.  A failure is
reported with the first generator that is not a derivation, or else the
first derivation outside the span with its residual.

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

Apart from module_map and self_bracket_zero, every condition above is a
pencil of currentalg.identities at fixed weights: derivation is d[x,y] =
lam([dx,y] + [x,dy]) at lam = 1, kill_derived its lam-free part, and so
on.  Rows come from basis tuples through the sparse structure constants.
Each solution basis vector, of a condition space or of a pencil kernel at
a value, is rechecked on 10 seeded random pairs of dense vectors through
mul_vectors.  The recheck shares only the written identity and the
coordinate convention with the rows: a wrong tuple enumeration, coordinate
or sign in the row path makes it raise InvariantError, rows that are too
strict (a kernel too small) do not.
"""

from fractions import Fraction
from math import lcm
import random

from . import identities as ids
from .exactlin import (
    Matrix,
    Subspace,
    inverse,
    kernel_from_rows,
    preimage,
    subspace_sum,
)
from .algebras import (
    AssocAlgebra,
    BilinearForm,
    LieAlgebra,
    build_lie,
    current,
    killing_form,
    lie_sl2,
    assoc_truncated_poly,
)
from .cochain import (
    _skew_square,
    _tuples,
    adjoint_module,
    coadjoint_module,
    cohomology,
    trivial_module,
)
from .forms import (
    _MAP,
    _family,
    _generator_witness,
    _resolve_pair,
    _residual_witness,
    invariant_symmetric_forms,
)
from .identities import require
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
        table = ids.LIE_MAPS
    elif isinstance(alg, AssocAlgebra):
        table = ids.ASSOC_MAPS
    else:
        raise TypeError("not an algebra: %r" % (alg,))
    for cond in conditions:
        if cond not in table:
            raise ValueError("unknown map condition %r" % cond)
    idents = [table[cond] for cond in conditions]
    space = kernel_from_rows(alg.dim ** 2, ids.rows(alg, idents))
    ids.recheck(alg, idents, space)
    return MapSpace(alg, conditions, space)


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
        {k * n + j: c for j in range(n) for k, c in alg.bracket(i, j)}
        for i in range(n)])


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
    over Q, and solution_at rechecks every kernel against the pencil
    identity at its value.
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
            space = kernel_from_rows(self.algebra.dim ** 2,
                                     ids.rows_at(self._rows, (_ONE, value)))
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
_pencil_cache = {}


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
    if kind not in ids.PENCILS:
        raise ValueError("unknown pencil kind %r" % kind)
    n2 = alg.dim ** 2
    rows = ids.pencil_rows(alg, ids.PENCILS[kind])
    degenerate = kernel_from_rows(
        n2, ids.rows_at(rows, (_ONE, _GENERIC_PROBE))).dim > 0
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


def _pencil_pairs(pencil_l, pencil_a):
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


def theorem_der_span(L, A, seed=0):
    """Assemble the candidate span of Der(L tensor A) and compare.

    Returns (der_space, span, details) where details carries per-family
    dimensions, the pencil reports, and the first non-derivation generator
    if one exists (there should be none).
    """
    curr = current(L, A)
    der = derivation_space(curr)
    inner = inner_derivations(curr)
    require(der.space.contains(inner), "adjoint maps must be derivations")

    pencils = {"i": (lambda_candidates(L, "lie_both", seed),
                     lambda_candidates(A, "assoc_left", seed)),
               "ii": (lambda_candidates(L, "lie_left", seed),
                      lambda_candidates(A, "assoc_both", seed))}
    admissible = {label: _pencil_pairs(*pair) for label, pair in pencils.items()}
    pairs = {label: [(dl, da) for _, dl, da in found]
             for label, found in admissible.items()}
    for label, conds_l, conds_a in DER_TYPE_TABLE:
        pairs[label] = [(map_condition_space(L, conds_l).space,
                         map_condition_space(A, conds_a).space)]
    gens, families = {}, {"inner": inner}
    for label, factor_pairs in pairs.items():
        gens[label], families[label] = _family(curr, factor_pairs)

    bad = _generator_witness(der.space, gens, curr.labels, _MAP,
                             "generator_not_derivation")
    all_gens = [g for family in gens.values() for g in family]
    span = subspace_sum(inner, Subspace.from_vectors(curr.dim ** 2, all_gens))

    details = {
        "types": {label: space.dim for label, space in families.items()},
        "lambda": {
            label: {"values": {str(lam): [dl.dim, da.dim]
                               for lam, dl, da in admissible[label]},
                    "degenerate": pl.degenerate or pa.degenerate,
                    "residual_degree": pl.residual_degree + pa.residual_degree}
            for label, (pl, pa) in pencils.items()},
        "bad_generator": None if bad is None else bad["map"],
    }
    return der, span, details


def verify_der_decomposition(L, A, lname=None, aname=None, seed=0):
    """Verdict report: Der(L tensor A) equals the assembled span."""
    L, A, auto_l, auto_a = _resolve_pair(L, A)
    der, span, details = theorem_der_span(L, A, seed=seed)
    equal = der.space == span
    report = {
        "theorem": "der",
        "L": lname or auto_l,
        "A": aname or auto_a,
        "types": details["types"],
        "lambda": details["lambda"],
        "der_dim": der.dim,
        "span_dim": span.dim,
        "equal": equal,
    }
    witness = None
    if details["bad_generator"] is not None:
        report["equal"] = False
        witness = {"direction": "generator_not_derivation",
                   "map": details["bad_generator"]}
    elif not equal:
        witness = _residual_witness(der.space, span, current(L, A).labels,
                                    _MAP, "derivation_outside_span")
    if witness is not None:
        report["witness"] = witness
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
        # the dual mode is the form mode for the identity pairing of L* with L
        mode = "dual"
        module = coadjoint_module(L)
        pairing = copairing = [[(i, _ONE)] for i in range(n)]
    else:
        mode = "form"
        if form == "killing":
            kappa = killing_form(L)
        elif isinstance(form, BilinearForm):
            kappa = form
        else:
            raise ValueError("form must be None, 'dual', 'killing', or a BilinearForm")
        if kappa.symmetry != "symmetric":
            raise ValueError("transport needs a symmetric form")
        if not kappa.is_nondegenerate():
            raise ValueError("transport needs a nondegenerate form")
        module = adjoint_module(L)
        # kappa and its inverse are symmetric, so row t lists column t too
        pairing, copairing = [[[(j, x) for j, x in enumerate(row) if x]
                               for row in mat.data]
                              for mat in (kappa.matrix, inverse(kappa.matrix))]

    h2 = cohomology(L, trivial_module(L), 2)
    h1 = cohomology(L, module, 1)
    h3 = cohomology(L, trivial_module(L), 3)
    b_forms = invariant_symmetric_forms(L).space
    triples = _tuples(L, 3)

    def times(vec, rows):
        # vec as an n x n matrix times the sparse matrix with these rows
        out = [_ZERO] * (n * n)
        for i in range(n):
            for t in range(n):
                c = vec[i * n + t]
                if c:
                    for m, k in rows[t]:
                        out[i * n + m] += c * k
        return out

    def u_map(vec):
        # D(x_j) = sum over m, t of kappa^-1(m, t) phi(x_j, x_t) x_m
        return times(_skew_square(n, vec), copairing)

    def v_map(c1):
        # g(x_i, x_j) = kappa(D(x_i), x_j), and v(D) = g + g^T
        g = times(c1, pairing)
        return [g[i * n + j] + g[j * n + i] for i in range(n) for j in range(n)]

    def w_map(f):
        out = [_ZERO] * len(triples)
        for t, (i, j, k) in enumerate(triples):
            s = _ZERO
            for m, c in L.bracket(i, j):
                s += c * f[m * n + k]
            out[t] = s
        return out

    u_z2 = [u_map(z) for z in h2.z_space.basis]
    require(all(h1.z_space.contains_vector(vec) for vec in u_z2),
            "u must map cocycles to cocycles")
    require(all(h1.b_space.contains_vector(u_map(b)) for b in h2.b_space.basis),
            "u must map coboundaries to coboundaries")

    v_after_u_zero = all(not any(v_map(vec)) for vec in u_z2)

    v_z1 = [v_map(z) for z in h1.z_space.basis]
    require(all(b_forms.contains_vector(vec) for vec in v_z1),
            "v must land in invariant symmetric forms")
    require(not any(any(v_map(b)) for b in h1.b_space.basis),
            "v must kill coboundaries")
    v_image = Subspace.from_vectors(n * n, v_z1)

    w_of_basis = [w_map(f) for f in b_forms.basis]
    require(all(h3.z_space.contains_vector(vec) for vec in w_of_basis),
            "w must produce cocycles")
    w_after_v_in_b3 = all(h3.b_space.contains_vector(w_map(vec)) for vec in v_z1)

    # exactness at H^1: (ker v meet Z^1) + B^1 == u(Z^2) + B^1
    ker_v_z1 = preimage(h1.z_space, v_z1, Subspace.zero(n * n))
    u_image_b1 = subspace_sum(Subspace.from_vectors(n * n, u_z2), h1.b_space)
    exact_at_h1 = subspace_sum(ker_v_z1, h1.b_space) == u_image_b1

    # exactness at B(L): v(Z^1) == {phi in B(L) : w(phi) in B^3}
    exact_at_b = v_image == preimage(b_forms, w_of_basis, h3.b_space)

    u_injective = u_image_b1.dim - h1.b_space.dim == h2.h_dim

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
        vec = [self.matrix[m, i] for m in range(n) for i in range(n)]
        pair = ids.first_failure(curr, ids.LIE_MAPS["derivation"], vec)
        return None if pair is None else tuple(curr.labels[u] for u in pair)

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
