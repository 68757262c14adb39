r"""Exact linear algebra over the rationals.

Everything downstream reduces to three primitives: kernels of sparse
homogeneous systems, spans of vector families, and the subspace lattice
(sum, intersection, containment) on coordinate spaces Q^N.  A subspace is
always stored by its reduced row-echelon basis with pivot entries 1, so two
subspaces are equal iff their bases are identical tuples.

The elimination engine works on rows kept as sparse {column: int} dicts.
Fractions are cleared on entry and each row is renormalized by its content
(gcd) after every combination, which keeps the integers small without the
bookkeeping of full fraction-free elimination.  Dense matrices are plain
tuples of Fraction tuples and only show up where the ambient dimension is
small (forms of one factor algebra, determinants, inverses).
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "kernel_from_rows",
    "subspace_sum",
    "subspace_intersect",
    "determinant",
    "inverse",
    "solve",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sparse integer elimination engine


def _as_int_row(row):
    """Turn a sparse dict or dense sequence of rationals into a {col: int} dict."""
    if not isinstance(row, dict):
        row = {j: v for j, v in enumerate(row) if v}
    else:
        row = {j: v for j, v in row.items() if v}
    if not row:
        return {}
    scale = 1
    for v in row.values():
        if isinstance(v, Fraction) and v.denominator != 1:
            scale = lcm(scale, v.denominator)
    if scale == 1:
        return {j: int(v) for j, v in row.items()}
    return {j: int(v * scale) for j, v in row.items()}


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


def _eliminate(row, piv, col):
    """Combine row with pivot row to kill column col.  Both are int dicts."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    ma, mb = a // g, b // g
    out = {}
    for j, v in row.items():
        out[j] = ma * v
    for j, v in piv.items():
        w = out.get(j, 0) - mb * v
        if w:
            out[j] = w
        elif j in out:
            del out[j]
    if out:
        _normalize(out)
    return out


def _echelon(int_rows):
    """Forward elimination; returns {pivot_col: row} with rows normalized."""
    pivots = {}
    for r in int_rows:
        row = dict(r)
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                pivots[j] = _normalize(row)
                break
            row = _eliminate(row, piv, j)
    return pivots


def _back_reduce(pivots):
    """Clear entries above every pivot, in place."""
    for j in sorted(pivots, reverse=True):
        piv = pivots[j]
        for j2 in pivots:
            if j2 < j and j in pivots[j2]:
                pivots[j2] = _eliminate(pivots[j2], piv, j)
    return pivots


def _pivot_rows_to_basis(pivots, ncols):
    """Canonical RREF rows (pivot entry 1) as dense Fraction tuples, sorted."""
    basis = []
    for j in sorted(pivots):
        row = pivots[j]
        lead = row[j]
        dense = [_ZERO] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v, lead)
        basis.append(tuple(dense))
    return tuple(basis)


def _dedupe_sorted(int_rows):
    """Drop duplicate rows (after sign/content normalization), sparsest first."""
    seen = set()
    out = []
    for r in int_rows:
        if not r:
            continue
        key = tuple(sorted(r.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    out.sort(key=len)
    return out


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^ambient_dim with a canonical reduced row-echelon basis.

    Equal subspaces have identical bases, so == is structural equality.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim):
        basis = tuple(
            tuple(_ONE if i == j else _ZERO for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(ambient_dim, basis, tuple(range(ambient_dim)))

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        pivots = _echelon(_as_int_row(v) for v in vectors)
        _back_reduce(pivots)
        basis = _pivot_rows_to_basis(pivots, ambient_dim)
        return cls(ambient_dim, basis, tuple(sorted(pivots)))

    def reduce(self, vector):
        """Residual of vector after reduction against the basis (dense list)."""
        v = [Fraction(x) for x in vector]
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.ambient_dim):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def contains_vector(self, vector):
        return not any(self.reduce(vector))

    def contains(self, other):
        if isinstance(other, Subspace):
            if other.ambient_dim != self.ambient_dim:
                raise ValueError("ambient mismatch")
            return all(self.contains_vector(b) for b in other.basis)
        return self.contains_vector(other)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in Q^%d)" % (self.dim, self.ambient_dim)


def kernel_from_rows(ncols, rows):
    """Kernel of the homogeneous system given by sparse/dense rows.

    The workhorse for every condition space in the package.  Rows may be
    dicts {col: rational} or dense sequences; duplicates and zero rows are
    discarded before elimination.
    """
    int_rows = _dedupe_sorted([_as_int_row(r) for r in rows])
    pivots = _echelon(int_rows)
    _back_reduce(pivots)
    pivot_cols = sorted(pivots)
    pivot_set = set(pivot_cols)
    kernel_vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: _ONE}
        for p in pivot_cols:
            row = pivots[p]
            if f in row:
                vec[p] = -Fraction(row[f], row[p])
        kernel_vectors.append(vec)
    return Subspace.from_vectors(ncols, kernel_vectors)


def subspace_sum(u, v):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient mismatch")
    return Subspace.from_vectors(u.ambient_dim, u.basis + v.basis)


def subspace_intersect(u, v):
    """U cap V via the kernel of the stacked coefficient system."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient mismatch")
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    r = u.dim
    rows = []
    for i in range(u.ambient_dim):
        row = {}
        for k in range(r):
            if u.basis[k][i]:
                row[k] = u.basis[k][i]
        for l in range(v.dim):
            if v.basis[l][i]:
                row[r + l] = -v.basis[l][i]
        if row:
            rows.append(row)
    coeffs = kernel_from_rows(r + v.dim, rows)
    vectors = []
    for c in coeffs.basis:
        w = [_ZERO] * u.ambient_dim
        for k in range(r):
            if c[k]:
                bk = u.basis[k]
                for i in range(u.ambient_dim):
                    if bk[i]:
                        w[i] += c[k] * bk[i]
        vectors.append(w)
    return Subspace.from_vectors(u.ambient_dim, vectors)


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data):
        data = tuple(tuple(Fraction(x) for x in row) for row in data)
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        if any(len(row) != self.ncols for row in data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self):
        return Matrix(zip(*self.data)) if self.data else Matrix([])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            out = [[_ZERO] * other.ncols for _ in range(self.nrows)]
            for i, row in enumerate(self.data):
                acc = out[i]
                for k, a in enumerate(row):
                    if not a:
                        continue
                    brow = other.data[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            return Matrix(out)
        c = Fraction(other)
        return Matrix(tuple(c * x for x in row) for row in self.data)

    __rmul__ = __mul__

    def apply(self, vector):
        """Matrix times a dense vector."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for row in self.data:
            s = _ZERO
            for a, x in zip(row, vector):
                if a and x:
                    s += a * x
            out.append(s)
        return out

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.nrows, self.ncols)


def rref(m):
    """Reduced row echelon form of a dense matrix.

    Returns (R, pivots, rank) with zero rows of R moved to the bottom.
    Kept independent of the sparse engine on purpose, so the two can be
    cross-checked against each other in tests.
    """
    rows = [list(r) for r in m.data]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    lead = 0
    for j in range(ncols):
        piv = None
        for i in range(lead, nrows):
            if rows[i][j]:
                piv = i
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = 1 / rows[lead][j]
        rows[lead] = [x * inv for x in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][j]:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[lead])]
        pivots.append(j)
        lead += 1
        if lead == nrows:
            break
    return Matrix(rows), tuple(pivots), len(pivots)


def determinant(m):
    """Exact determinant via integer Bareiss elimination.

    Fraction entries are handled by clearing denominators row by row and
    dividing the integer determinant back out at the end.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    n = m.nrows
    if n == 0:
        return _ONE
    denom = 1
    rows = []
    for row in m.data:
        scale = 1
        for v in row:
            if v.denominator != 1:
                scale = lcm(scale, v.denominator)
        denom *= scale
        rows.append([int(v * scale) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return _ZERO
        pkk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri, rk = rows[i], rows[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pkk - rik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    return Fraction(sign * rows[n - 1][n - 1], denom)


def inverse(m):
    """Inverse of a small dense matrix by Gauss-Jordan; raises if singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    aug = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
           for i, row in enumerate(m.data)]
    for j in range(n):
        piv = None
        for i in range(j, n):
            if aug[i][j]:
                piv = i
                break
        if piv is None:
            raise ValueError("singular matrix")
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = 1 / aug[j][j]
        aug[j] = [x * inv for x in aug[j]]
        for i in range(n):
            if i != j and aug[i][j]:
                c = aug[i][j]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[j])]
    return Matrix(tuple(tuple(row[n:]) for row in aug))


def solve(m, rhs):
    """One solution of M x = rhs, or None if inconsistent."""
    aug = Matrix(tuple(tuple(row) + (b,) for row, b in zip(m.data, rhs)))
    r, pivots, rank = rref(aug)
    if m.ncols in pivots:
        return None
    x = [_ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.ncols]
    return x
