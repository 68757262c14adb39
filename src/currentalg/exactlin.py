r"""Exact linear algebra over the rationals.

Everything downstream reduces to three primitives: kernels of sparse
homogeneous systems, spans of vector families, and the subspace lattice
(sum, intersection, containment, preimage) on coordinate spaces Q^N.

A subspace is stored by its reduced row-echelon form as sparse integer
rows: ``rows[p]`` is the row with pivot column p, a {column: int} dict
scaled to content (gcd) 1 with a positive pivot entry.  That form is
unique, so two subspaces are equal iff their rows are, and the one
constructor, Subspace(ambient_dim, rows), takes exactly these rows.  The
dense basis, Fraction tuples with pivot entries 1, is a view built from
the rows on each read, for callers that want dense vectors; nothing in the
package reads it (witnesses come from the rows).  Membership, sums,
intersections and preimages read the integer rows and touch only the
pivots a vector hits; a preimage takes the images of the domain's rows
(the symmetry layers of currentalg.forms are preimages of zero under
cochain's fold).
Vectors enter as sparse {column: value} dicts or dense sequences, with int
or Fraction values only: anything else raises TypeError, so a float never
passes as a rational.  A column outside the ambient space raises
ValueError; it is looked for once, in the reduced rows of a span or a
kernel, or in the residual of a membership read, where every column an
input vector holds shows up, and in the image coordinates of a preimage.
Inside the package every vector is a sparse dict; dense sequences are for
callers.

The elimination engine is one incremental Gauss-Jordan pass whose stored
rows are in that same reduced form at every step.  Every vector is read
into it in one pass over its entries (_as_int_row), which checks that each
value is exact, keeps a vector of ints as it is, scales one holding a
Fraction by the lcm of its denominators and, for a kernel, mirrors the
columns.  An incoming row is scaled once by the lcm of the leads of the
pivots it holds, has each of those rows subtracted once, as a membership
read does, and is normalized once: no stored row holds another pivot, so
nothing cascades.  A zero result is dependent and dropped; otherwise its
lowest column becomes a pivot, cleared from the stored rows a column index
names.
A kernel reads its rows once, as a stream: the condition and cochain
systems of the package are built row by row as the kernel takes them
(_RowStream counts them), and only the distinct rows are held.
A kernel is eliminated with the rightmost column of each row as its pivot,
so its free columns give the canonical basis directly (see
kernel_from_rows).  Dense matrices are plain tuples of rows of ints and
Fractions, indexed m[i][j], and only show up where the ambient dimension
is small (forms of one factor algebra, inverses); their inverses and
ranks come from the same engine.  There is no other elimination path.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

__all__ = [
    "Subspace",
    "kernel_from_rows",
    "subspace_sum",
    "subspace_intersect",
    "preimage",
    "inverse",
]

_ZERO = Fraction(0)
_EXACT = (int, Fraction)


# ---------------------------------------------------------------------------
# sparse integer elimination engine


def _exact(v):
    """v as a Fraction.  It must be an int or a Fraction: anything else, a
    float above all, raises TypeError rather than pass as an inexact
    rational."""
    if not isinstance(v, _EXACT):
        raise TypeError("exact linear algebra takes int or Fraction "
                        "entries, not %s %r" % (type(v).__name__, v))
    return Fraction(v)


def _as_int_row(vector, last=None):
    """(row, scale): vector times scale, the lcm of its denominators, as a
    {col: int} dict of its nonzero entries in the order vector holds them;
    with last given, column j is stored at last - j.  A vector of ints is
    its own row at scale 1.

    vector is a sparse dict or a dense sequence, read in one pass.  Its
    values must pass _exact: anything else, a float above all, raises
    TypeError."""
    row, scale, ints = {}, 1, True
    for j, v in (vector.items() if isinstance(vector, dict) else enumerate(vector)):
        if type(v) is not int:
            if not isinstance(v, _EXACT):
                _exact(v)   # raises
            ints = False
            scale = lcm(scale, v.denominator)
        if v:
            row[j if last is None else last - j] = v
    if ints:
        return row, 1
    return {j: v.numerator * (scale // v.denominator) for j, v in row.items()}, scale


def _normalize(row):
    """Divide a nonzero int row by its content, make the leading entry positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _reduce(row, pivots):
    """(row, m): m times row minus its projection on the reduced rows
    pivots ({pivot: row}, each zero at every other pivot), where m is the
    lcm of the leads of the pivots row holds.  row is scaled once, each of
    those pivot rows is subtracted once, and no other pivot is touched, so
    the result is zero at every pivot.  row may be consumed."""
    hits = [(p, c) for p, c in row.items() if p in pivots]
    if not hits:
        return row, 1
    m = lcm(*(pivots[p][p] for p, _ in hits))
    if m != 1:
        row = {j: m * v for j, v in row.items()}
    for p, c in hits:
        piv = pivots[p]
        f = c * (m // piv[p])
        for j, x in piv.items():
            w = row.get(j, 0) - f * x
            if w:
                row[j] = w
            else:
                del row[j]
    return row, m


def _reduced_rows(int_rows):
    """{pivot: row}, the reduced row-echelon form of the span of int rows,
    which it consumes.

    Each row is reduced once against the rows stored so far; a zero result
    is dependent and dropped.  Otherwise it is normalized and its lowest
    column j becomes a pivot: each stored row that holds j, which leads
    left of j, is reduced once against the new row, so every stored row
    stays zero at every other pivot.  holders[c] lists the pivots whose rows
    have held column c, so clearing reads only those; an entry goes stale
    when its row loses c, and is skipped."""
    pivots = {}
    holders = {}
    for row in int_rows:
        row = _reduce(row, pivots)[0]
        if not row:
            continue
        _normalize(row)
        j = min(row)
        for q in holders.pop(j, ()):
            old = pivots[q]
            if j in old:
                for c in row:
                    if c not in old:
                        holders.setdefault(c, []).append(q)
                pivots[q] = _normalize(_reduce(old, {j: row})[0])
        for c in row:
            if c != j:
                holders.setdefault(c, []).append(j)
        pivots[j] = row
    return pivots


def _dedupe_sorted(int_rows):
    """The nonzero rows, each distinct row once, sparsest first and in the
    order given among rows of equal length.  Each distinct row is held
    once, as it was given: the index maps the hash of its sorted entries
    to the distinct rows with that hash, and no key is kept."""
    seen, out = {}, []
    for r in int_rows:
        if r:
            same = seen.setdefault(hash(tuple(sorted(r.items()))), [])
            if r not in same:
                same.append(r)
                out.append(r)
    out.sort(key=len)
    return out


class _RowStream:
    """Rows taken one at a time from an iterable, read once; len is the
    number taken so far, so once a kernel has read the stream it counts the
    rows the kernel read, as the length of a list of them would."""

    __slots__ = ("_rows", "_taken")

    def __init__(self, rows):
        self._rows, self._taken = rows, 0

    def __iter__(self):
        for row in self._rows:
            self._taken += 1
            yield row

    def __len__(self):
        return self._taken


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^ambient_dim, stored by its reduced row-echelon form.

    Subspace(ambient_dim, rows) takes rows, which maps each pivot column to
    its RREF row as a {col: int} dict of content 1 with a positive pivot
    entry, and keeps them in increasing pivot order; pivots lists the pivot
    columns.  The form is canonical, so == is structural equality.  basis
    is a view of the same rows as dense Fraction tuples with pivot entries
    1, built on each read.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self.pivots = tuple(sorted(rows))
        self.rows = {p: rows[p] for p in self.pivots}

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        basis = []
        for p, row in self.rows.items():
            dense = [_ZERO] * self.ambient_dim
            for c, v in row.items():
                dense[c] = Fraction(v, row[p])
            basis.append(tuple(dense))
        return tuple(basis)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, {})

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """The span of vectors (sparse dicts or dense sequences)."""
        return _span(ambient_dim, (_as_int_row(v)[0] for v in vectors))

    def _residual(self, vector):
        """(row, den): den times the residual of vector, as an int row.

        Every row is zero at the other pivots, so the residual is
        vector - sum_p (vector[p] / rows[p][p]) rows[p] over the pivots p
        that vector holds, and no other pivot is touched.  A column of
        vector outside the ambient space is in no row, so it stays in the
        residual, whose columns alone are checked: none for a member."""
        row, den = _as_int_row(vector)
        row, m = _reduce(row, self.rows)
        _require_columns(self.ambient_dim, row)
        return row, den * m

    def reduce(self, vector):
        """The residual of vector (a sparse dict or dense sequence) after
        reduction against the basis, as a sparse {col: Fraction} dict of
        its nonzero entries in column order: empty iff vector lies in the
        subspace."""
        row, den = self._residual(vector)
        return {j: Fraction(row[j], den) for j in sorted(row)}

    def contains_vector(self, vector):
        return not self._residual(vector)[0]

    def contains(self, other):
        """other, a Subspace, lies in this one."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return all(not self._residual(row)[0] for row in other.rows.values())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(
            (p, tuple(sorted(row.items()))) for p, row in self.rows.items())))

    def __repr__(self):
        return "Subspace(dim %d in Q^%d)" % (self.dim, self.ambient_dim)


def _require_columns(ncols, columns):
    """Raise ValueError unless every column lies in range(ncols).  An entry
    of an input vector outside the ambient space lies in some reduced row
    of its span, or in its residual against a subspace, so the callers
    read those, once; a preimage reads the coordinates of the images."""
    for c in columns:
        if not 0 <= c < ncols:
            raise ValueError("column %r lies outside Q^%d" % (c, ncols))


def _span(ambient_dim, int_rows):
    """The span of nonzero-valued {col: int} rows."""
    rows = _reduced_rows(int_rows)
    # each row leads at its pivot, its lowest column
    _require_columns(ambient_dim, chain(rows, map(max, rows.values())))
    return Subspace(ambient_dim, rows)


def kernel_from_rows(ncols, rows):
    """Kernel of the homogeneous system given by sparse/dense rows.

    The workhorse for every condition space in the package.  Rows may be
    dicts {col: rational} or dense sequences, and rows any iterable, read
    once: a generator streams a system into the kernel, which holds one
    copy of each distinct row and no other.  Each row is read once into a
    mirrored int row; zero rows and rows equal to an earlier one (indexed
    by the hash of their sorted entries) are discarded, and the rest enter
    the engine sparsest first, in the order given among rows of equal
    length.  Each is reduced once against the reduced rows so far, so the
    many dependent rows of a tall system each cost one pass and are
    dropped.

    The engine runs on mirrored columns, so every reduced row p takes its
    rightmost column as pivot and holds only columns f < p besides.  For
    each free column f, e_f - sum_p (a_pf / a_pp) e_p then leads at f and
    vanishes at every other free column: together these vectors are the
    canonical basis of the kernel, with no second elimination.
    """
    last = ncols - 1
    reduced = _reduced_rows(_dedupe_sorted(_as_int_row(r, last)[0] for r in rows))
    # free column f -> (p, a_pf, a_pp) over the pivot rows p holding f
    hits = {}
    for mp, row in reduced.items():
        p, a = last - mp, row[mp]
        for mj, v in row.items():
            if mj != mp:
                hits.setdefault(last - mj, []).append((p, v, a))
    _require_columns(ncols, chain(hits, (last - mp for mp in reduced)))
    kernel = {}
    for f in range(ncols):
        if last - f in reduced:
            continue
        entries = hits.get(f, ())
        m = lcm(1, *(a for _, _, a in entries))
        vec = {f: m}
        for p, v, a in entries:
            vec[p] = -v * (m // a)
        kernel[f] = _normalize(vec)
    return Subspace(ncols, kernel)


def subspace_sum(u, v):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient mismatch")
    return _span(u.ambient_dim, [dict(r) for s in (u, v) for r in s.rows.values()])


def subspace_intersect(u, v):
    """U cap V: the preimage of V under the inclusion of U."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient mismatch")
    return preimage(u, list(u.rows.values()), v)


def preimage(domain, images, target):
    """{x in domain : f(x) in target} for a linear map f given on the rows.

    images[k] is f of the k-th row of domain.rows (in pivot order), a
    sparse dict or dense vector of the target's ambient space, read as the
    int row s_k * images[k].  The kernel of the stacked system
    sum_k c_k s_k images[k] = sum_l d_l (target row l) gives the
    coefficients c, and sum_k c_k s_k (domain row k) spans the preimage.
    """
    if len(images) != domain.dim:
        raise ValueError("one image per domain row")
    if domain.dim == 0:
        return Subspace.zero(domain.ambient_dim)
    r = domain.dim
    system, scales = {}, []
    for k, img in enumerate(images):
        row, scale = _as_int_row(img)
        scales.append(scale)
        for i, x in row.items():
            system.setdefault(i, {})[k] = x
    _require_columns(target.ambient_dim, system)
    for l, t in enumerate(target.rows.values()):
        for i, x in t.items():
            system.setdefault(i, {})[r + l] = -x
    coeffs = kernel_from_rows(r + target.dim, list(system.values()))
    domain_rows = list(domain.rows.values())
    vectors = []
    for c in coeffs.rows.values():
        w = {}
        for k, ck in c.items():
            if k < r:
                ck *= scales[k]
                for i, x in domain_rows[k].items():
                    w[i] = w.get(i, 0) + ck * x
        vectors.append({i: x for i, x in w.items() if x})
    return _span(domain.ambient_dim, vectors)


# ---------------------------------------------------------------------------
# small dense matrices: tuples of rows


def inverse(m):
    """Inverse of a square matrix, given and returned as a tuple of rows:
    the row space of [M | I] reduces to [I | M^-1] exactly when M is
    invertible; raises ValueError otherwise.  Entries must be ints or
    Fractions (TypeError otherwise)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of non-square matrix")
    aug = Subspace.from_vectors(2 * n, [
        (*row, *(1 if i == j else 0 for j in range(n))) for i, row in enumerate(m)])
    if aug.pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(row.get(n + j, 0), row[p]) for j in range(n))
                 for p, row in aug.rows.items())
