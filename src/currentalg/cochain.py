r"""Chevalley-Eilenberg cochains of a Lie algebra with module coefficients.

C^n(L, M) = Hom(Lambda^n L, M) with the differential

    (d w)(x_0..x_n) = sum_i (-1)^i x_i . w(.. x_i-hat ..)
                    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], .. x_i-hat .. x_j-hat ..)

Every degree n >= 0 is built on demand, so H^n is available for any n.  A
degree-n cochain is coordinatized by pairs (S, m): S an increasing n-tuple
of basis indices in lexicographic rank order, m a module coordinate, flat
index rank(S) * dim(M) + m.  One rank map per degree, {S: rank(S)}, holds
that order; a row of d is keyed by its target pair (T, m), and its reader
ranks T in the map of the next degree when it needs a position.

This module owns that layout and the pair layout of the forms of one
symmetry (_pair_domain, _fold, _square, _squared): the other modules take
their cochain tuples (the domain of a CochainSpaceResult), differentials
and form pairs from here.  Rows are streams: _ce_rows builds the rows of
one target tuple at a time and skips the zero ones, _fold folds each row
as it arrives, and the kernel reads them once and holds only the distinct
ones, so no system's rows are stored whole.  With trivial coefficients
on a graded algebra whose bracket adds degrees, the complex splits by
the total weight of the tuples; one weight slice is computed from the
tuples of that weight alone.  A graded H^2
slice of currentalg.graded is such a slice in degree 2: a plain
CochainSpaceResult whose domain lists the flat pairs of one weight.
"""

from bisect import bisect_left
from itertools import combinations

from .exactlin import Subspace, _RowStream, kernel_from_rows
from .identities import add_entry, require

__all__ = [
    "LieModule",
    "trivial_module",
    "adjoint_module",
    "coadjoint_module",
    "cohomology",
    "CochainSpaceResult",
]


class LieModule:
    """A finite-dimensional L-module given by sparse action matrices.

    action[i] is {(r, c): v} meaning x_i . m_c = sum_r v m_r.  The
    representation axiom rho([x,y]) = [rho(x), rho(y)] is checked on all
    bracket pairs at construction, unless every action entry is zero: the
    zero action satisfies it trivially.  Before that, there must be one
    action matrix per basis element, with indices in range(dim).
    """

    def __init__(self, algebra, dim, action):
        if len(action) != algebra.dim or any(
                not (0 <= r < dim and 0 <= c < dim)
                for matrix in action for r, c in matrix):
            raise ValueError("a module needs one action matrix per basis "
                             "element, with indices in range(%d)" % dim)
        self.algebra = algebra
        self.dim = dim
        self.action = action
        if any(v for matrix in action for v in matrix.values()):
            self._validate()

    def _validate(self):
        # x.(y.m) - y.(x.m) - [x, y].m is (d d m)(x, y), so the axiom is
        # d^2 = 0 on C^0: one row of d^1 d^0 per bracket pair and coordinate
        d0 = {T[0] * self.dim + m: row
              for (T, m), row in _ce_rows(self.algebra, self, 0)[1]}
        for (T, _), row in _ce_rows(self.algebra, self, 1)[1]:
            composite = {}
            for c, v in row.items():
                for col, w in d0.get(c, {}).items():
                    add_entry(composite, col, v * w)
            if composite:
                raise ValueError(
                    "module action violates the representation axiom on "
                    "bracket pair (%d, %d)" % T)


def trivial_module(algebra):
    """K with the zero action."""
    return LieModule(algebra, 1, [dict() for _ in range(algebra.dim)])


def adjoint_module(algebra):
    """L acting on itself by x . y = [x, y]."""
    return LieModule(algebra, algebra.dim,
                     [algebra.ad(i) for i in range(algebra.dim)])


def coadjoint_module(algebra):
    """The dual space with (x . f)(y) = -f([x, y]): the negative transpose
    of the adjoint action."""
    action = [{(j, k): -c for (k, j), c in algebra.ad(i).items()}
              for i in range(algebra.dim)]
    return LieModule(algebra, algebra.dim, action)


def _tuples(algebra, size, weight=None):
    """Increasing size-tuples of basis indices in lexicographic order.

    With a weight, only the tuples whose degrees (algebra.degrees) add up
    to it: they are drawn degree class by degree class, so tuples of other
    weights are never enumerated.  An iterable: the combinations themselves
    without a weight, a sorted list with one.
    """
    if weight is None:
        return combinations(range(algebra.dim), size)
    classes = {}
    for i, d in enumerate(algebra.degrees):
        classes.setdefault(d, []).append(i)

    def picks(levels, left, need):
        # index sets of left elements from the classes in levels, weight need
        if not levels:
            return [()] if left == need == 0 else []
        d = levels[0]
        return [head + tail for c in range(min(left, len(classes[d])) + 1)
                for tail in picks(levels[1:], left - c, need - c * d)
                for head in combinations(classes[d], c)]

    return sorted(tuple(sorted(t)) for t in picks(sorted(classes), size, weight))


def _pair_domain(n, sign):
    """The pairs (i, j) of the forms with phi(x_j, x_i) = sign * phi(x_i, x_j)
    in rank order: i < j for skew ones (sign -1, the domain of C^2) and
    i <= j for symmetric ones."""
    s = int(sign < 0)
    return [(i, j) for i in range(n) for j in range(i + s, n)]


def _fold(rows, n, sign):
    """Sparse n^2 rows read on the forms of one symmetry as rows over the
    ranks of its pair domain (_pair_domain), one folded row per row, each
    folded as it arrives: (j, i) adds sign times its entry to (i, j), and
    the skew diagonal, off the domain, weighs 0.

    With s = 1 for skew forms and 0 for symmetric ones, the rows i' < i
    hold n - i' - s pairs each, so (i, j) has rank
    i * (2n - i - 1 - 2s) / 2 + j - s, the map _square inverts."""
    s = int(sign < 0)
    for row in rows:
        out = {}
        for col, v in row.items():
            i, j = divmod(col, n)
            if i > j:
                i, j, v = j, i, sign * v
            elif i == j and s:
                continue
            add_entry(out, i * (2 * n - i - 1 - 2 * s) // 2 + j - s, v)
        yield out


def _square(domain, n, vec, sign):
    """A form given as a sparse {rank: value} dict over the pair domain of
    its sign (_pair_domain), as a sparse n^2 vector: the one writer of both
    (i, j) and (j, i)."""
    out = {}
    for r, c in vec.items():
        i, j = domain[r]
        out[i * n + j] = c
        out[j * n + i] = sign * c
    return out


def _squared(domain, n, space, sign):
    """space, a Subspace over the pair domain of sign (_pair_domain),
    squared row by row into n^2 coordinates (_square), with no elimination.
    The ranks order the pairs as their columns i * n + j do, and the mirror
    j * n + i of a pair i < j lies past every column i' * n + j' with
    i' <= i, so the square of a canonical row leads at the column of its
    pivot pair, which no other square holds, and keeps its values: the
    squares are the canonical rows of the squared space."""
    squares = ((domain[r], _square(domain, n, row, sign))
               for r, row in space.rows.items())
    return Subspace(n * n, {i * n + j: square for (i, j), square in squares})


def _ce_rows(algebra, module, degree, weight=None):
    """Sparse rows of d: C^degree -> C^{degree+1}, on the tuples of one
    weight when weight is given (trivial coefficients only).

    Returns (ranks, rows): ranks the {degree-tuple: rank} map of the
    columns, len(ranks) * dim(M) of them, and rows a stream of
    ((T, m), {col: value}) over the rows that are not zero, in order, T the
    target (degree + 1)-tuple and m the module coordinate.  The target
    tuples are walked one at a time and the dim(M) rows of each are built
    and yielded before the next, so no row is held after its reader has
    taken it.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if weight is not None and any(module.action):
        raise ValueError("weight slices need trivial coefficients")
    dm = module.dim
    ranks = {S: r for r, S in enumerate(_tuples(algebra, degree, weight))}
    targets = _tuples(algebra, degree + 1, weight)
    acting = range(degree + 1) if any(module.action) else ()
    slots = list(combinations(range(degree + 1), 2))

    def stream():
        # the dim(M) rows of one target tuple at a time
        for T in targets:
            rows = [{} for _ in range(dm)]
            for a in acting:
                action = module.action[T[a]]
                if action:
                    s_rank = ranks[T[:a] + T[a + 1:]]
                    for (r, c), v in action.items():
                        add_entry(rows[r], s_rank * dm + c, -v if a % 2 else v)
            for a, b in slots:
                terms = algebra.bracket(T[a], T[b])
                if not terms:
                    continue
                rest = T[:a] + T[a + 1:b] + T[b + 1:]
                for k, c in terms:
                    pos = bisect_left(rest, k)
                    if pos < len(rest) and rest[pos] == k:
                        continue
                    u_rank = ranks.get(rest[:pos] + (k,) + rest[pos:])
                    require(u_rank is not None,
                            "the bracket must add the degrees of a weight slice")
                    sgn = -c if (a + b + pos) % 2 else c
                    for m in range(dm):
                        add_entry(rows[m], u_rank * dm + m, sgn)
            for m, row in enumerate(rows):
                if row:
                    yield (T, m), row

    return ranks, stream()


class CochainSpaceResult:
    """Cocycles, coboundaries and the quotient dimension in one degree;
    domain lists the degree-tuples that index the coordinates, by rank."""

    __slots__ = ("degree", "domain", "z_space", "b_space", "h_dim")

    def __init__(self, degree, domain, z_space, b_space):
        self.degree = degree
        self.domain = domain
        self.z_space = z_space
        self.b_space = b_space
        self.h_dim = z_space.dim - b_space.dim

    def __repr__(self):
        return ("%s(degree=%d, Z=%d, B=%d, H=%d)"
                % (type(self).__name__, self.degree, self.z_space.dim,
                   self.b_space.dim, self.h_dim))


def _cochain_spaces(algebra, module, degree, weight=None):
    """(domain, Z, B) in one degree, on the tuples of one weight when weight
    is given: domain lists the degree-tuples that index the coordinates,
    read off the rank map of _ce_rows.  Z is the kernel of the stream of
    d^degree rows and B the span of the columns of d^(degree-1), gathered
    from its stream: the row keyed (T, m) is coboundary coordinate
    rank(T) * dim(M) + m.  Degree 0 has no d^(-1), so its B is zero.
    Checks that every target tuple of d^(degree-1) is ranked, and B subset
    of Z."""
    ranks, rows = _ce_rows(algebra, module, degree, weight)
    ncols = len(ranks) * module.dim
    z_space = kernel_from_rows(ncols, _RowStream(row for _, row in rows))
    cols = {}
    if degree:
        for (T, m), row in _ce_rows(algebra, module, degree - 1, weight)[1]:
            require(T in ranks, "degree %d cochains do not chain up" % degree)
            for c, v in row.items():
                cols.setdefault(c, {})[ranks[T] * module.dim + m] = v
    b_space = Subspace.from_vectors(ncols, list(cols.values()))
    require(z_space.contains(b_space), "coboundaries must be cocycles")
    return list(ranks), z_space, b_space


def cohomology(algebra, module, degree):
    """H^degree(L, M) via exact kernels; checks B subset of Z.  module must
    be a module of algebra."""
    if module.algebra != algebra:
        raise ValueError("the module is a module of another algebra")
    return CochainSpaceResult(degree, *_cochain_spaces(algebra, module, degree))
