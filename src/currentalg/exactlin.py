r"""Exact linear algebra over the rationals.

Everything downstream reduces to three primitives: kernels of sparse
homogeneous systems, spans of vector families, and the subspace lattice
(sum, intersection, containment, preimage) on coordinate spaces Q^N.  A
subspace is always stored by its reduced row-echelon basis with pivot
entries 1, so two subspaces are equal iff their bases are identical tuples.

The elimination engine works on rows kept as sparse {column: int} dicts.
Fractions are cleared on entry and each row is renormalized by its content
(gcd) after every combination, which keeps the integers small without the
bookkeeping of full fraction-free elimination.  Dense matrices are plain
tuples of Fraction tuples and only show up where the ambient dimension is
small (forms of one factor algebra, inverses); their inverses and ranks
come from the same engine.  rref and solve are a separate dense
Gauss-Jordan path, kept as the reference the engine is tested against.
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
    "preimage",
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
    """U cap V: the preimage of V under the inclusion of U."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient mismatch")
    return preimage(u, u.basis, v)


def preimage(domain, images, target):
    """{x in domain : f(x) in target} for a linear map f given on the basis.

    images[k] is f(domain.basis[k]), a vector of the target's ambient space.
    The kernel of the stacked system sum_k c_k images[k] = sum_l d_l
    target.basis[l] gives the coefficients c, which are recombined over the
    domain basis.
    """
    if len(images) != domain.dim:
        raise ValueError("one image per domain basis vector")
    if domain.dim == 0:
        return Subspace.zero(domain.ambient_dim)
    r = domain.dim
    rows = []
    for i in range(target.ambient_dim):
        row = {}
        for k, img in enumerate(images):
            if img[i]:
                row[k] = img[i]
        for l, t in enumerate(target.basis):
            if t[i]:
                row[r + l] = -t[i]
        if row:
            rows.append(row)
    coeffs = kernel_from_rows(r + target.dim, rows)
    vectors = []
    for c in coeffs.basis:
        w = [_ZERO] * domain.ambient_dim
        for k in range(r):
            if c[k]:
                for i, x in enumerate(domain.basis[k]):
                    if x:
                        w[i] += c[k] * x
        vectors.append(w)
    return Subspace.from_vectors(domain.ambient_dim, vectors)


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


def inverse(m):
    """Inverse of a square matrix: the row space of [M | I] reduces to
    [I | M^-1] exactly when M is invertible; raises ValueError otherwise."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    aug = Subspace.from_vectors(2 * n, [
        tuple(row) + tuple(_ONE if i == j else _ZERO for j in range(n))
        for i, row in enumerate(m.data)])
    if aug.pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(tuple(row[n:] for row in aug.basis))


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
