r"""Chevalley-Eilenberg cochains of a Lie algebra with module coefficients.

C^n(L, M) = Hom(Lambda^n L, M) with the differential

    (d w)(x_0..x_n) = sum_i (-1)^i x_i . w(.. x_i-hat ..)
                    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], .. x_i-hat .. x_j-hat ..)

Degrees 0 through 3 are materialized, which is enough for H^0..H^3 and for
the d^2 = 0 cross-checks the tests run.  A degree-n cochain is coordinatized
by pairs (S, m): S an increasing n-tuple of basis indices in lexicographic
rank order, m a module coordinate, flat index rank(S) * dim(M) + m.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb

from .exactlin import Matrix, Subspace, kernel_from_rows
from .identities import add_entry, require

__all__ = [
    "LieModule",
    "trivial_module",
    "adjoint_module",
    "coadjoint_module",
    "cochain_dim",
    "ce_differential",
    "cohomology",
    "CochainSpaceResult",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LieModule:
    """A finite-dimensional L-module given by sparse action matrices.

    action[i] is {(r, c): v} meaning x_i . m_c = sum_r v m_r.  The
    representation axiom rho([x,y]) = [rho(x), rho(y)] is checked on all
    bracket pairs at construction.
    """

    def __init__(self, algebra, dim, action, name, validate=True):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.name = name
        if validate:
            self._validate()

    def _mat_mul(self, a, b):
        out = {}
        for (r, m), va in a.items():
            for (m2, c), vb in b.items():
                if m == m2:
                    add_entry(out, (r, c), va * vb)
        return out

    def _validate(self):
        L = self.algebra
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                lhs = {}
                for k, c in L.bracket(i, j):
                    for pos, v in self.action[k].items():
                        add_entry(lhs, pos, c * v)
                rhs = self._mat_mul(self.action[i], self.action[j])
                for pos, v in self._mat_mul(self.action[j], self.action[i]).items():
                    add_entry(rhs, pos, -v)
                if lhs != rhs:
                    raise ValueError(
                        "module action violates the representation axiom on "
                        "bracket pair (%d, %d)" % (i, j))

    def _key(self):
        return (self.algebra, self.dim, self.name,
                tuple(tuple(sorted(a.items())) for a in self.action))

    def __eq__(self, other):
        return isinstance(other, LieModule) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def trivial_module(algebra, dim=1):
    """K^dim with the zero action."""
    return LieModule(algebra, dim, [dict() for _ in range(algebra.dim)],
                     "trivial:%d" % dim, validate=False)


def adjoint_module(algebra):
    """L acting on itself by x . y = [x, y]."""
    action = []
    for i in range(algebra.dim):
        m = {}
        for j in range(algebra.dim):
            for k, c in algebra.bracket(i, j):
                m[(k, j)] = m.get((k, j), _ZERO) + c
        action.append({p: v for p, v in m.items() if v})
    return LieModule(algebra, algebra.dim, action, "adjoint")


def coadjoint_module(algebra):
    """The dual space with (x . f)(y) = -f([x, y])."""
    action = []
    for i in range(algebra.dim):
        m = {}
        for r in range(algebra.dim):
            for k, c in algebra.bracket(i, r):
                m[(r, k)] = m.get((r, k), _ZERO) - c
        action.append({p: v for p, v in m.items() if v})
    return LieModule(algebra, algebra.dim, action, "coadjoint")


def cochain_dim(algebra, module, degree):
    return comb(algebra.dim, degree) * module.dim


def _tuple_ranks(n, degree):
    return {tup: r for r, tup in enumerate(combinations(range(n), degree))}


def _ce_rows(algebra, module, degree):
    """Sparse rows of d: C^degree -> C^{degree+1}.

    Returns (nrows, ncols, rows) with rows[r] = {col: value}.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = algebra.dim
    dm = module.dim
    in_ranks = _tuple_ranks(n, degree)
    nrows = comb(n, degree + 1) * dm
    ncols = comb(n, degree) * dm
    rows = [dict() for _ in range(nrows)]
    for t_rank, T in enumerate(combinations(range(n), degree + 1)):
        for a in range(degree + 1):
            S = T[:a] + T[a + 1:]
            s_rank = in_ranks[S]
            sgn = -_ONE if a % 2 else _ONE
            for (r, c), v in module.action[T[a]].items():
                add_entry(rows[t_rank * dm + r], s_rank * dm + c, sgn * v)
        for a in range(degree + 1):
            for b in range(a + 1, degree + 1):
                terms = algebra.bracket(T[a], T[b])
                if not terms:
                    continue
                rest = T[:a] + T[a + 1:b] + T[b + 1:]
                base_sgn = _ONE if (a + b) % 2 == 0 else -_ONE
                for k, c in terms:
                    pos = bisect_left(rest, k)
                    if pos < len(rest) and rest[pos] == k:
                        continue
                    U = rest[:pos] + (k,) + rest[pos:]
                    sgn = base_sgn * c * (-_ONE if pos % 2 else _ONE)
                    u_rank = in_ranks[U]
                    for m in range(dm):
                        add_entry(rows[t_rank * dm + m], u_rank * dm + m, sgn)
    return nrows, ncols, rows


def ce_differential(algebra, module, degree):
    """The differential C^degree -> C^{degree+1} as a dense matrix."""
    nrows, ncols, rows = _ce_rows(algebra, module, degree)
    data = [[_ZERO] * ncols for _ in range(nrows)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            data[r][c] = v
    return Matrix(data)


class CochainSpaceResult:
    """Cocycles, coboundaries and the quotient dimension in one degree."""

    __slots__ = ("degree", "z_space", "b_space", "h_dim")

    def __init__(self, degree, z_space, b_space):
        self.degree = degree
        self.z_space = z_space
        self.b_space = b_space
        self.h_dim = z_space.dim - b_space.dim

    def __repr__(self):
        return ("CochainSpaceResult(degree=%d, Z=%d, B=%d, H=%d)"
                % (self.degree, self.z_space.dim, self.b_space.dim, self.h_dim))


def cohomology(algebra, module, degree):
    """H^degree(L, M) via exact kernels; checks B subset of Z."""
    _, ncols, rows = _ce_rows(algebra, module, degree)
    z_space = kernel_from_rows(ncols, rows)
    if degree == 0:
        b_space = Subspace.zero(ncols)
    else:
        nprev_rows, _, prev = _ce_rows(algebra, module, degree - 1)
        require(nprev_rows == ncols, "degree %d cochains do not chain up" % degree)
        cols = {}
        for r, row in enumerate(prev):
            for c, v in row.items():
                cols.setdefault(c, {})[r] = v
        b_space = Subspace.from_vectors(ncols, list(cols.values()))
    require(z_space.contains(b_space), "coboundaries must be cocycles")
    return CochainSpaceResult(degree, z_space, b_space)
