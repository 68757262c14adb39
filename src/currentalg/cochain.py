r"""Chevalley-Eilenberg cochains of a Lie algebra with module coefficients.

C^n(L, M) = Hom(Lambda^n L, M) with the differential

    (d w)(x_0..x_n) = sum_i (-1)^i x_i . w(.. x_i-hat ..)
                    + sum_{i<j} (-1)^{i+j} w([x_i, x_j], .. x_i-hat .. x_j-hat ..)

Degrees 0 through 3 are materialized, which is enough for H^0..H^3 and for
the d^2 = 0 cross-checks the tests run.  A degree-n cochain is coordinatized
by pairs (S, m): S an increasing n-tuple of basis indices in lexicographic
rank order, m a module coordinate, flat index rank(S) * dim(M) + m.

This module owns that layout: the other modules take their cochain
tuples, differentials and the pair-to-n^2 skew transport from here.  With
trivial coefficients on a graded algebra whose bracket adds degrees, the
complex splits by the total weight of the tuples; one weight slice (the
graded H^2 of currentalg.graded) is computed from the tuples of that
weight alone.
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

    def _validate(self):
        # x.(y.m) - y.(x.m) - [x, y].m is (d d m)(x, y), so the axiom is
        # d^2 = 0 on C^0: one row of d^1 d^0 per bracket pair and coordinate
        _, d0 = _ce_rows(self.algebra, self, 0)
        _, d1 = _ce_rows(self.algebra, self, 1)
        for r, row in enumerate(d1):
            composite = {}
            for c, v in row.items():
                for col, w in d0[c].items():
                    add_entry(composite, col, v * w)
            if composite:
                raise ValueError(
                    "module action violates the representation axiom on "
                    "bracket pair (%d, %d)" % _tuples(self.algebra, 2)[r // self.dim])

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


def _adjoint_action(algebra):
    """ad x_i as {(k, j): c} for [x_i, x_j] = sum_k c x_k."""
    n = algebra.dim
    return [{(k, j): c for j in range(n) for k, c in algebra.bracket(i, j)}
            for i in range(n)]


def adjoint_module(algebra):
    """L acting on itself by x . y = [x, y]."""
    return LieModule(algebra, algebra.dim, _adjoint_action(algebra), "adjoint")


def coadjoint_module(algebra):
    """The dual space with (x . f)(y) = -f([x, y]): the negative transpose
    of the adjoint action."""
    action = [{(j, k): -c for (k, j), c in ad.items()}
              for ad in _adjoint_action(algebra)]
    return LieModule(algebra, algebra.dim, action, "coadjoint")


def cochain_dim(algebra, module, degree):
    return comb(algebra.dim, degree) * module.dim


def _tuples(algebra, size, weight=None):
    """Increasing size-tuples of basis indices in lexicographic order.

    With a weight, only the tuples whose degrees (algebra.degrees) add up
    to it: they are drawn degree class by degree class, so tuples of other
    weights are never enumerated.
    """
    if weight is None:
        return list(combinations(range(algebra.dim), size))
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


def _skew_square(n, vec):
    """A 2-cochain with one-dimensional coefficients, given in alternating
    pair coordinates, as a skew n^2 vector: (i, j) at i * n + j."""
    out = [_ZERO] * (n * n)
    for (i, j), c in zip(combinations(range(n), 2), vec):
        if c:
            out[i * n + j] = c
            out[j * n + i] = -c
    return out


def _ce_rows(algebra, module, degree, weight=None):
    """Sparse rows of d: C^degree -> C^{degree+1}, on the tuples of one
    weight when weight is given (trivial coefficients only).

    Returns (domain, rows): domain the degree-tuples that index the
    columns, len(domain) * dim(M) of them, and rows[r] = {col: value}.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if weight is not None and any(module.action):
        raise ValueError("weight slices need trivial coefficients")
    dm = module.dim
    domain = _tuples(algebra, degree, weight)
    in_ranks = {S: r for r, S in enumerate(domain)}
    targets = _tuples(algebra, degree + 1, weight)
    rows = [dict() for _ in range(len(targets) * dm)]
    for t_rank, T in enumerate(targets):
        for a in range(degree + 1):
            action = module.action[T[a]]
            if action:
                s_rank = in_ranks[T[:a] + T[a + 1:]]
                for (r, c), v in action.items():
                    add_entry(rows[t_rank * dm + r], s_rank * dm + c,
                              -v if a % 2 else v)
        for a in range(degree + 1):
            for b in range(a + 1, degree + 1):
                terms = algebra.bracket(T[a], T[b])
                if not terms:
                    continue
                rest = T[:a] + T[a + 1:b] + T[b + 1:]
                for k, c in terms:
                    pos = bisect_left(rest, k)
                    if pos < len(rest) and rest[pos] == k:
                        continue
                    u_rank = in_ranks.get(rest[:pos] + (k,) + rest[pos:])
                    require(u_rank is not None,
                            "the bracket must add the degrees of a weight slice")
                    sgn = -c if (a + b + pos) % 2 else c
                    for m in range(dm):
                        add_entry(rows[t_rank * dm + m], u_rank * dm + m, sgn)
    return domain, rows


def ce_differential(algebra, module, degree):
    """The differential C^degree -> C^{degree+1} as a dense matrix."""
    domain, rows = _ce_rows(algebra, module, degree)
    ncols = len(domain) * module.dim
    return Matrix([[row.get(c, _ZERO) for c in range(ncols)] for row in rows])


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


def _cochain_spaces(algebra, module, degree, weight=None):
    """(domain, Z, B) in one degree, on the tuples of one weight when weight
    is given: domain lists the degree-tuples that index the coordinates.
    Checks B subset of Z."""
    domain, rows = _ce_rows(algebra, module, degree, weight)
    ncols = len(domain) * module.dim
    z_space = kernel_from_rows(ncols, rows)
    if degree == 0:
        b_space = Subspace.zero(ncols)
    else:
        _, prev = _ce_rows(algebra, module, degree - 1, weight)
        require(len(prev) == ncols, "degree %d cochains do not chain up" % degree)
        cols = {}
        for r, row in enumerate(prev):
            for c, v in row.items():
                cols.setdefault(c, {})[r] = v
        b_space = Subspace.from_vectors(ncols, list(cols.values()))
    require(z_space.contains(b_space), "coboundaries must be cocycles")
    return domain, z_space, b_space


def cohomology(algebra, module, degree):
    """H^degree(L, M) via exact kernels; checks B subset of Z."""
    _, z_space, b_space = _cochain_spaces(algebra, module, degree)
    return CochainSpaceResult(degree, z_space, b_space)
