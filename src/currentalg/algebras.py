r"""Structure-constant algebras and the current-algebra construction.

A Lie algebra is a table of brackets [x_i, x_j] for i < j; an associative
commutative algebra is a table of products a_i a_j for i <= j.  One class
stores, mirrors, validates and compares both kinds of table: they differ
only in the sign of a mirrored pair and in their axiom.  Each table is
validated exactly at construction (Jacobi, respectively associativity),
because every theorem checked downstream silently assumes the axioms.  The
axiom is evaluated on the basis triples that carry a product; on every
other triple each of its terms is an empty sum (see _check_axiom).  A
violation raises ValidationError carrying the first offending triple in
lexicographic order, which is the machine-readable witness the CLI
reports.  A structure constant is stored as an int when it is integral
and as a Fraction otherwise, so an integral table keeps the axiom checks,
and everything read from mul(i, j), in int arithmetic.

The catalog covers what the verification suites need: sl(n) on trace-zero
matrices (with the standard weight basis (e-, h, e+) hard-coded for sl(2)),
abelian algebras, the 3-dimensional Heisenberg algebra, direct sums, the
truncated polynomial algebras tK[t]/(t^n) and K[t]/(t^n), and zero-product
algebras.  current(L, A) builds L tensor A with

    [x tensor a, y tensor b] = [x, y] tensor ab

on the flat basis x_i tensor a_p, flat index p * dim(L) + i, read off the
stored nonzero products of the factors.  CurrentAlgebra owns that index:
flat and tensor, the Kronecker product of factor vectors that the
product form and the tensor families of forms and maps are built from.
No ideal is built as a subspace here: the ideals the paper states its
derivation types with, [L, L], Z(L), AA and Ann(A), enter only through the
map conditions kill_derived, into_center, kill_square and into_annihilator
of currentalg.identities.
"""

from fractions import Fraction
import json
import os
import re

from .exactlin import _exact, kernel_from_rows
from .identities import (ASSOC_FORMS, LIE_FORMS, _bits, _tuples, add_entry,
                         first_failure, require)

__all__ = [
    "ValidationError",
    "LieAlgebra",
    "AssocAlgebra",
    "CurrentAlgebra",
    "BilinearForm",
    "build_lie",
    "build_assoc",
    "current",
    "killing_form",
    "residue_form",
    "product_form",
    "algebra_to_dict",
    "algebra_from_dict",
    "parse_algebra_file",
    "serialize_algebra",
]


class ValidationError(ValueError):
    """An algebra axiom failed; witness names the offending basis triple."""

    def __init__(self, message, axiom=None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


def _rational(c):
    """A coefficient as stored: an int when it is integral, a Fraction
    otherwise.  c must be an int or a Fraction; a float raises TypeError."""
    if type(c) is int:
        return c
    c = _exact(c)
    return c.numerator if c.denominator == 1 else c


def _canonical_terms(terms):
    acc = {}
    for k, c in terms:
        add_entry(acc, k, _rational(c))
    return tuple(sorted(acc.items()))


class _StructureConstants:
    """A basis and its structure constants, read as mul(i, j).

    table stores each unordered pair once, keyed (i, j) with i < j on a Lie
    table and i <= j on an associative one.  A mirrored dict holds both
    orders, the mirror of a Lie entry negated ([x_j, x_i] = -[x_i, x_j])
    and that of an associative entry equal to it, so mul(i, j) is one dict
    read.  support[i] is the bit mask of the j with x_i x_j != 0, the
    same as that of the j with x_j x_i != 0 on a mirrored table.  dim,
    mul(i, j) and support are the interface the identity engine reads.
    """

    _TAGS = ()   # attributes that equality compares besides labels and table

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise ValidationError("duplicate basis labels")
        self.table, self._full = {}, {}
        for (i, j), terms in table.items():
            if not (0 <= i <= j < self.dim and (i < j or self._SIGN > 0)):
                raise ValueError("%s table keys must satisfy 0 <= i %s j < dim"
                                 % (self.kind, "<" if self._SIGN < 0 else "<="))
            t = _canonical_terms(terms)
            if t:
                self.table[(i, j)] = self._full[(i, j)] = t
                self._full[(j, i)] = (t if self._SIGN > 0
                                      else tuple((k, -c) for k, c in t))
        self.support = [0] * self.dim
        for i, j in self._full:
            self.support[i] |= 1 << j

    def mul(self, i, j):
        """x_i x_j as a tuple of (index, coefficient)."""
        return self._full.get((i, j), ())

    def _check_axiom(self):
        """Raise ValidationError at the first basis triple t, in
        lexicographic order, on which the sum of sign * (x_a x_b) x_c over
        the axiom's terms (sign, a, b, c), positions in t, is nonzero.  A
        Lie axiom vanishes identically on a repeated index, so increasing
        triples suffice there.

        A term is nonzero on t only when t[c] is in the reach of
        x_t[a] x_t[b]: some basis element m of that product has
        x_m x_t[c] != 0.  Only the triples on which some term passes that
        test are visited; on every other one each term is an empty sum, so
        the check stays exact.  As bit masks, reach[i][j] is the reach of
        x_i x_j (the union of support[m]) and back[i][c] the j with c in the
        reach of x_i x_j; x_j x_i has the support of x_i x_j on a mirrored
        table, so both are read off each unordered pair once.  A prefix
        (t[0], t[1]) extends by the union over the terms of
        reach[t[a]][t[b]] (c last), back[t[a]][t[c]] (b last) or
        back[t[b]][t[c]] (a last)."""
        axiom, name, order, terms = self._AXIOM
        n, support = self.dim, self.support
        reach, back = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        for (i, j), prod in self.table.items():
            r = 0
            for m, _ in prod:
                r |= support[m]
            reach[i][j] = reach[j][i] = r
            back_i, back_j, bit_i, bit_j = back[i], back[j], 1 << i, 1 << j
            for c in _bits(r):
                back_i[c] |= bit_j
                back_j[c] |= bit_i
        keys = [(a, b, reach) if c == 2 else (a, c, back) if b == 2
                else (b, c, back) for _, a, b, c in terms]

        def live(t):
            mask = 0
            for p, q, masks in keys:
                mask |= masks[t[p]][t[q]]
            return mask

        mul = self._full.get
        for t in _tuples(self.dim, order, live):
            acc = {}
            for sign, a, b, c in terms:
                for m, x in mul((t[a], t[b]), ()):
                    for k, y in mul((m, t[c]), ()):
                        add_entry(acc, k, x * y if sign > 0 else -x * y)
            if acc:
                raise ValidationError(
                    "%s fails on (%s, %s, %s)"
                    % ((name,) + tuple(self.labels[i] for i in t)),
                    axiom=axiom, witness=t)

    def _key(self):
        return ((self.kind, self.labels, tuple(sorted(self.table.items())))
                + tuple(getattr(self, tag) for tag in self._TAGS))

    def __eq__(self, other):
        return (isinstance(other, _StructureConstants)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(dim %d: %s)" % (type(self).__name__, self.dim,
                                   ", ".join(self.labels))


class LieAlgebra(_StructureConstants):
    """Finite-dimensional Lie algebra over Q given by structure constants."""

    kind, _SIGN = "lie", -1
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
    _AXIOM = ("jacobi", "Jacobi identity", "x<y<z",
              ((1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1)))

    def __init__(self, labels, table):
        super().__init__(labels, table)
        self.sl_summands = None
        self._check_axiom()

    bracket = _StructureConstants.mul

    def ad(self, i):
        """ad x_i as {(k, j): c} for [x_i, x_j] = sum_k c x_k."""
        return {(k, j): c for j in range(self.dim) for k, c in self.mul(i, j)}


class AssocAlgebra(_StructureConstants):
    """Commutative associative algebra given by structure constants.

    Possibly without unit; the unital flag certifies that a two-sided
    identity exists among the coordinates and stores it.
    """

    kind, _SIGN = "assoc", 1
    # (xy)z - (yz)x = (xy)z - x(yz) = 0, the table being commutative
    _AXIOM = ("associativity", "associativity", "x,y,z",
              ((1, 0, 1, 2), (-1, 1, 2, 0)))
    _TAGS = ("unital", "degrees")

    def __init__(self, labels, table, unital=False, degrees=None):
        super().__init__(labels, table)
        self.degrees = tuple(degrees) if degrees is not None else None
        if self.degrees is not None and len(self.degrees) != self.dim:
            raise ValueError("degree tags must match dim")
        self.tpoly_order = None
        self._check_axiom()
        self._validate_grading()
        self.unital = bool(unital)
        self.unit = self._find_unit() if unital else None
        if unital and self.unit is None:
            raise ValidationError("no two-sided identity found", axiom="unital")

    product = _StructureConstants.mul

    def _validate_grading(self):
        # every product term x_i x_j -> x_k needs deg k = deg i + deg j
        if self.degrees is None:
            return
        deg = self.degrees
        for (i, j), terms in sorted(self.table.items()):
            for k, _ in terms:
                if deg[k] != deg[i] + deg[j]:
                    raise ValidationError(
                        "degrees are not a grading: %s * %s has a term in %s "
                        "of degree %d, not %d + %d"
                        % (self.labels[i], self.labels[j], self.labels[k],
                           deg[k], deg[i], deg[j]),
                        axiom="grading", witness=(i, j, k))

    def _find_unit(self):
        # unit u solves sum_i u_i m[i][j][k] = delta_jk for all j, k; with
        # s at column n the homogenised rows sum_i u_i m[i][j][k] = s delta_jk
        # have a kernel vector with s != 0 iff a unit exists
        n = self.dim
        rows = {}
        for j in range(n):
            for i in range(n):
                for k, c in self.product(i, j):
                    rows.setdefault((j, k), {})[i] = c
            rows.setdefault((j, j), {})[n] = -1
        kernel = kernel_from_rows(n + 1, rows.values())
        row = next((r for r in kernel.rows.values() if n in r), None)
        if row is None:
            return None
        u = tuple(Fraction(row.get(i, 0), row[n]) for i in range(n))
        # re-check u e_j = e_j exactly; the table is commutative by
        # construction (product reads one mirrored table), so one side is
        # enough.  The kernel is exact, so a failure is a defect, not input
        for j in range(n):
            acc = {}
            for i, a in enumerate(u):
                if a:
                    for k, c in self.product(i, j):
                        add_entry(acc, k, a * c)
            require(acc == {j: 1}, "the unit read off the kernel fails "
                    "u %s = %s" % (self.labels[j], self.labels[j]))
        return u


# ---------------------------------------------------------------------------
# catalog


def lie_sl2():
    """sl(2) in the weight basis (e-, h, e+): [h,e-] = -e-, [h,e+] = e+, [e-,e+] = h."""
    table = {
        (0, 1): ((0, 1),),   # [e-, h] = e-
        (0, 2): ((1, 1),),   # [e-, e+] = h
        (1, 2): ((2, 1),),   # [h, e+] = e+
    }
    alg = LieAlgebra(("e-", "h", "e+"), table)
    alg.sl_summands = (2,)
    return alg


def lie_sl(n):
    """sl(n) on trace-zero matrices: basis e_ij (i != j) and h_k = E_kk - E_k+1,k+1.

    Basis order: lowers e_ij (i > j) lexicographically, then h_1..h_{n-1},
    then uppers e_ij (i < j).  For n = 2 the hard-coded weight basis is used
    instead, since all the sl(2)-specific statements are pinned to it.
    """
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
    if n == 2:
        return lie_sl2()
    mats = []
    labels = []
    for i in range(n):
        for j in range(i):
            mats.append({(i, j): 1})
            labels.append("e%d%d" % (i + 1, j + 1))
    for k in range(n - 1):
        mats.append({(k, k): 1, (k + 1, k + 1): -1})
        labels.append("h%d" % (k + 1))
    for i in range(n):
        for j in range(i + 1, n):
            mats.append({(i, j): 1})
            labels.append("e%d%d" % (i + 1, j + 1))
    offdiag_index = {}
    for idx, m in enumerate(mats):
        if len(m) == 1:
            (pos, _), = m.items()
            offdiag_index[pos] = idx
    n_lower = n * (n - 1) // 2

    def decompose(mat):
        terms = []
        diag = [mat.get((i, i), 0) for i in range(n)]
        part = 0
        for k in range(n - 1):
            part += diag[k]
            if part:
                terms.append((n_lower + k, part))
        for (r, c), v in mat.items():
            if r != c and v:
                terms.append((offdiag_index[(r, c)], v))
        return terms

    def mat_mul(a, b):
        out = {}
        for (r, m), va in a.items():
            for (m2, c), vb in b.items():
                if m == m2:
                    out[(r, c)] = out.get((r, c), 0) + va * vb
        return out

    table = {}
    dim = len(mats)
    for i in range(dim):
        for j in range(i + 1, dim):
            ab = mat_mul(mats[i], mats[j])
            ba = mat_mul(mats[j], mats[i])
            comm = dict(ab)
            for pos, v in ba.items():
                comm[pos] = comm.get(pos, 0) - v
            terms = decompose(comm)
            if terms:
                table[(i, j)] = terms
    alg = LieAlgebra(tuple(labels), table)
    alg.sl_summands = (n,)
    return alg


def lie_abelian(n):
    if n < 1:
        raise ValueError("abelian(n) needs n >= 1")
    return LieAlgebra(tuple("x%d" % (i + 1) for i in range(n)), {})


def lie_heisenberg3():
    """Heisenberg algebra: [x, y] = z, z central."""
    return LieAlgebra(("x", "y", "z"), {(0, 1): ((2, 1),)})


def lie_direct_sum(parts):
    """Direct sum of Lie algebras; labels get a per-summand suffix."""
    labels = []
    table = {}
    offset = 0
    summands = []
    for idx, part in enumerate(parts):
        labels.extend("%s.%d" % (lbl, idx) for lbl in part.labels)
        for (i, j), terms in part.table.items():
            table[(i + offset, j + offset)] = tuple(
                (k + offset, c) for k, c in terms
            )
        if part.sl_summands is None:
            summands = None
        elif summands is not None:
            summands.extend(part.sl_summands)
        offset += part.dim
    alg = LieAlgebra(tuple(labels), table)
    alg.sl_summands = tuple(summands) if summands is not None else None
    return alg


def assoc_truncated_poly(n, unital=False):
    """tK[t]/(t^n) (basis t..t^{n-1}) or K[t]/(t^n) (basis 1..t^{n-1})."""
    if n < 2:
        raise ValueError("truncated_poly(n) needs n >= 2")
    if unital:
        labels = ["1"] + ["t" if e == 1 else "t^%d" % e for e in range(1, n)]
        exps = list(range(n))
    else:
        labels = ["t" if e == 1 else "t^%d" % e for e in range(1, n)]
        exps = list(range(1, n))
    index = {e: i for i, e in enumerate(exps)}
    table = {}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps[i:], start=i):
            if a + b in index:
                table[(i, j)] = ((index[a + b], 1),)
    alg = AssocAlgebra(tuple(labels), table, unital=unital, degrees=tuple(exps))
    alg.tpoly_order = n
    return alg


def assoc_zero_mult(n):
    if n < 1:
        raise ValueError("zero_mult(n) needs n >= 1")
    return AssocAlgebra(tuple("a%d" % (i + 1) for i in range(n)), {})


def _looks_like_path(spec):
    return spec.endswith(".json") or os.sep in spec or os.path.exists(spec)


def _size(spec, prefix):
    """N of a prefix + N descriptor, or None when spec is not one."""
    try:
        return int(spec[len(prefix):]) if spec.startswith(prefix) else None
    except ValueError:
        return None


def build_lie(spec):
    """Catalog descriptor -> LieAlgebra: sl2, sl3, slN, abelian:N, heis3,
    sum:sl2+sl3, or a JSON file path."""
    if isinstance(spec, LieAlgebra):
        return spec
    spec = spec.strip()
    if spec == "heis3":
        return lie_heisenberg3()
    if spec.startswith("sl") and spec[2:].isdigit():
        return lie_sl(int(spec[2:]))
    n = _size(spec, "abelian:")
    if n is not None:
        return lie_abelian(n)
    if spec.startswith("sum:"):
        parts = [build_lie(p) for p in spec[4:].split("+")]
        return lie_direct_sum(parts)
    if _looks_like_path(spec):
        alg = parse_algebra_file(spec)
        if not isinstance(alg, LieAlgebra):
            raise ValidationError("%s is not a Lie algebra file" % spec)
        return alg
    raise ValueError("unknown Lie algebra descriptor: %r" % spec)


def build_assoc(spec):
    """Catalog descriptor -> AssocAlgebra: tpoly:N, tpoly1:N, zero:N, or a file."""
    if isinstance(spec, AssocAlgebra):
        return spec
    spec = spec.strip()
    for prefix, make in (("tpoly1:", lambda n: assoc_truncated_poly(n, True)),
                         ("tpoly:", assoc_truncated_poly),
                         ("zero:", assoc_zero_mult)):
        n = _size(spec, prefix)
        if n is not None:
            return make(n)
    if _looks_like_path(spec):
        alg = parse_algebra_file(spec)
        if not isinstance(alg, AssocAlgebra):
            raise ValidationError("%s is not an associative algebra file" % spec)
        return alg
    raise ValueError("unknown associative algebra descriptor: %r" % spec)


def _named(spec, build):
    """(build(spec), its name in a report): a descriptor names itself, an
    algebra object is named "lie(dim n)" or "assoc(dim n)"."""
    alg = build(spec)
    if isinstance(spec, str):
        return alg, spec
    return alg, "%s(dim %d)" % (
        "lie" if isinstance(alg, LieAlgebra) else "assoc", alg.dim)


# ---------------------------------------------------------------------------
# the current algebra L tensor A


class CurrentAlgebra(LieAlgebra):
    """L tensor A on the flat basis x_i tensor a_p, flat = p * dim(L) + i.

    The table is read off the stored nonzero products of the factors:
    [x_i a_p, x_j a_q] = [x_i, x_j] a_p a_q, and each unordered flat pair
    u < v comes from exactly one of its two orders in the factors' mirrored
    tables.  The keys go to the base class sorted, as a loop over every
    flat pair u < v would give them."""

    def __init__(self, factor_lie, factor_assoc):
        self.factorL = factor_lie
        self.factorA = factor_assoc
        nl, na = factor_lie.dim, factor_assoc.dim
        labels = tuple(
            "%s*%s" % (factor_lie.labels[i], factor_assoc.labels[p])
            for p in range(na)
            for i in range(nl)
        )
        table = {}
        for (i, j), brackets in factor_lie._full.items():
            for (p, q), products in factor_assoc._full.items():
                u, v = p * nl + i, q * nl + j
                if u < v:
                    table[(u, v)] = tuple(sorted(
                        (r * nl + k, c * d)
                        for k, c in brackets for r, d in products))
        super().__init__(labels, dict(sorted(table.items())))
        if factor_assoc.degrees is not None:
            self.degrees = tuple(
                factor_assoc.degrees[p] for p in range(na) for _ in range(nl)
            )
        else:
            self.degrees = None

    def flat(self, i, p):
        return p * self.factorL.dim + i

    def tensor(self, l, a):
        """l tensor a in dim^2 coordinates, from sparse {coordinate: value}
        vectors in dim(L)^2 and dim(A)^2 coordinates: (x_i a_p, x_j a_q)
        holds l[i, j] a[p, q].  Forms and maps share the layout, so this is
        phi tensor alpha as a form and d tensor b as a map alike."""
        nl, na, n = self.factorL.dim, self.factorA.dim, self.dim
        lnz = [((c // nl) * n + c % nl, x) for c, x in l.items()]
        out = {}
        for c, y in a.items():
            p, q = divmod(c, na)
            base = (p * n + q) * nl   # flat(0, p) * n + flat(0, q)
            for ij, x in lnz:
                out[base + ij] = x * y
        return out


def current(factor_lie, factor_assoc):
    return CurrentAlgebra(factor_lie, factor_assoc)


# ---------------------------------------------------------------------------
# bilinear forms


class BilinearForm:
    """A bilinear form on an algebra's coordinate space, with a symmetry tag.

    matrix is a tuple of rows, matrix[i][j] = phi(x_i, x_j), each entry
    stored like a structure constant: an int when it is integral, a
    Fraction otherwise.  The entries given must be ints or Fractions (a
    float raises TypeError)."""

    __slots__ = ("matrix", "symmetry")

    def __init__(self, matrix):
        matrix = tuple(tuple(_rational(x) for x in row) for row in matrix)
        if any(len(row) != len(matrix) for row in matrix):
            raise ValueError("bilinear form matrix must be square")
        self.matrix = matrix
        transpose = tuple(zip(*matrix))
        if matrix == transpose:
            self.symmetry = "symmetric"
        elif matrix == tuple(tuple(-x for x in row) for row in transpose):
            self.symmetry = "skew"
        else:
            self.symmetry = "none"

    @property
    def dim(self):
        return len(self.matrix)

    def __call__(self, i, j):
        return self.matrix[i][j]

    def as_vector(self):
        """Row-major coordinates in the n^2-dimensional form space."""
        return tuple(x for row in self.matrix for x in row)

    def is_nondegenerate(self):
        return kernel_from_rows(self.dim, self.matrix).dim == 0


def killing_form(alg):
    """kappa(x, y) = trace(ad x . ad y); symmetric and invariant by construction,
    both re-checked."""
    n = alg.dim
    ad = [alg.ad(i) for i in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = 0
            for (r, c), v in ad[i].items():
                w = ad[j].get((c, r))
                if w:
                    s += v * w
            rows[i][j] = s
            rows[j][i] = s
    form = BilinearForm(rows)
    require(form.symmetry == "symmetric", "Killing form not symmetric")
    defect = first_failure(alg, LIE_FORMS["invariant"], form.as_vector())
    require(defect is None, "Killing form not invariant at %r" % (defect,))
    return form


def residue_form(alg):
    """<t^i, t^j> = 1 iff i + j = n on tK[t]/(t^n); symmetric, invariant,
    nondegenerate, all three checked."""
    if alg.tpoly_order is None or alg.unital:
        raise ValidationError("residue form needs a non-unital truncated polynomial algebra")
    n = alg.tpoly_order
    rows = [
        [(1 if alg.degrees[i] + alg.degrees[j] == n else 0)
         for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    form = BilinearForm(rows)
    require(form.symmetry == "symmetric", "residue form not symmetric")
    require(form.is_nondegenerate(), "residue form degenerate")
    # associativity-invariance <ab, c> = <a, bc> on all basis triples
    require(first_failure(alg, ASSOC_FORMS["invariant"], form.as_vector()) is None,
            "residue form not invariant")
    return form


def product_form(form_lie, form_assoc, curr):
    """<x tensor a, y tensor b> = <x,y><a,b> on a current algebra."""
    if form_lie.dim != curr.factorL.dim or form_assoc.dim != curr.factorA.dim:
        raise ValueError("factor form dimensions do not match")
    lvec, avec = ({c: x for c, x in enumerate(form.as_vector()) if x}
                  for form in (form_lie, form_assoc))
    vec, n = curr.tensor(lvec, avec), curr.dim
    return BilinearForm([[vec.get(u * n + v, 0) for v in range(n)]
                         for u in range(n)])


# ---------------------------------------------------------------------------
# JSON serialization

# Schema: {"kind": "lie"|"assoc", "dim": n, "basis": [...],
#          "table": [{"i": i, "j": j, "terms": [{"k": k, "c": "p/q"}]}],
#          "unital": bool?, "degrees": [...]?}
# Lie files list only i < j; assoc files list both orders explicitly.


def algebra_to_dict(alg):
    if not isinstance(alg, _StructureConstants):
        raise TypeError("not an algebra: %r" % (alg,))
    assoc = alg.kind == "assoc"
    out = {"kind": alg.kind, "dim": alg.dim, "basis": list(alg.labels),
           "table": [{"i": i, "j": j,
                      "terms": [{"k": k, "c": str(c)} for k, c in terms]}
                     for (i, j), terms in sorted(
                         (alg._full if assoc else alg.table).items())]}
    if assoc:
        out["unital"] = alg.unital
        if alg.degrees is not None:
            out["degrees"] = list(alg.degrees)
    return out


# an integer or p/q, optionally signed: no exponent, so no string can ask
# for a huge power of ten
_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*\Z")


def _index(value, dim, key):
    if type(value) is not int or not 0 <= value < dim:
        raise ValidationError("%s = %r is not an integer in 0..%d" % (key, value, dim - 1))
    return value


def _coefficient(value):
    if type(value) is int:
        return value
    if isinstance(value, str) and _RATIONAL.match(value):
        try:
            return _rational(Fraction(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError("c = %r is not an integer or a string p/q with q != 0"
                          % (value,))


def _parse_entry(entry, dim):
    """(i, j, canonical terms) of one table entry; any other shape, a
    non-int index or a coefficient that is not an int or a string p/q (a
    float included) raises ValidationError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("terms"), list):
        raise ValidationError("table entry %r needs i, j and a list of terms" % (entry,))
    i, j = _index(entry.get("i"), dim, "i"), _index(entry.get("j"), dim, "j")
    terms = []
    for t in entry["terms"]:
        if not isinstance(t, dict):
            raise ValidationError("term %r is not an object with k and c" % (t,))
        terms.append((_index(t.get("k"), dim, "k"), _coefficient(t.get("c"))))
    return i, j, _canonical_terms(terms)


def algebra_from_dict(data):
    """Algebra from a JSON record; any malformed record raises ValidationError."""
    if not isinstance(data, dict):
        raise ValidationError("malformed algebra record: not an object")
    kind, dim, labels = data.get("kind"), data.get("dim"), data.get("basis")
    raw_table = data.get("table")
    if kind not in ("lie", "assoc"):
        raise ValidationError("unknown algebra kind %r" % (kind,))
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and isinstance(raw_table, list)):
        raise ValidationError("malformed algebra record: needs a basis of "
                              "strings and a table list")
    if type(dim) is not int or len(labels) != dim:
        raise ValidationError("dim does not match number of basis labels")
    # both orders of a pair may be listed and must agree: [x_j, x_i] =
    # -[x_i, x_j] on a Lie table, a_j a_i = a_i a_j on an associative one
    lie = kind == "lie"
    axiom = "anticommutativity" if lie else "commutativity"
    table = {}
    for i, j, terms in (_parse_entry(entry, dim) for entry in raw_table):
        if lie and i == j:
            if terms:
                raise ValidationError("%s fails at (%d, %d): [x, x] != 0" % (axiom, i, j),
                                      axiom=axiom, witness=(i, j))
            continue
        if lie and i > j:
            terms = tuple((k, -c) for k, c in terms)
        key = (min(i, j), max(i, j))
        if table.setdefault(key, terms) != terms:
            raise ValidationError("%s fails at (%d, %d)" % (axiom, i, j),
                                  axiom=axiom, witness=key)
    if lie:
        return LieAlgebra(labels, table)
    unital, degrees = data.get("unital", False), data.get("degrees")
    if not isinstance(unital, bool):
        raise ValidationError("unital must be true or false")
    if degrees is not None and not (
            isinstance(degrees, list) and len(degrees) == dim
            and all(type(d) is int for d in degrees)):
        raise ValidationError("degrees must be a list of dim integers")
    return AssocAlgebra(labels, table, unital=unital, degrees=degrees)


def parse_algebra_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        # JSONDecodeError, undecodable bytes, integers past the digit limit
        raise ValidationError("malformed JSON in %s: %s" % (path, exc))
    return algebra_from_dict(data)


def serialize_algebra(alg, path=None):
    text = json.dumps(algebra_to_dict(alg), indent=1, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
