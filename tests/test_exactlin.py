"""Exact linear algebra kernel, cross-checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from currentalg.exactlin import (
    Matrix,
    Subspace,
    inverse,
    kernel_from_rows,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)

# Small rationals keep the sympy oracle fast while still exercising
# denominator clearing in the elimination engine.
fracs = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_n).flatmap(
            lambda m: st.lists(
                st.lists(fracs, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(Matrix)
        )
    )


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(fracs, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(Matrix)
    )


def to_sympy(m):
    return sympy.Matrix(m.nrows, m.ncols, lambda i, j: sympy.Rational(m[i, j]))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent_and_rank(m):
    r, pivots, rank = rref(m)
    r2, pivots2, rank2 = rref(r)
    assert (r2, pivots2, rank2) == (r, pivots, rank)
    assert rank == to_sympy(m).rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilated_and_dim(m):
    ker = kernel_from_rows(m.ncols, m.data)
    assert ker.dim == m.ncols - to_sympy(m).rank()
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_matches_sympy_nullspace(m):
    ker = kernel_from_rows(m.ncols, m.data)
    null = to_sympy(m).nullspace()
    oracle = Subspace.from_vectors(
        m.ncols, [[Fraction(int(x.p), int(x.q)) for x in col] for col in null]
    )
    assert ker == oracle


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_sparse_and_dense_kernels_agree(m):
    dense = kernel_from_rows(m.ncols, m.data)
    sparse_rows = [
        {j: v for j, v in enumerate(row) if v} for row in m.data
    ]
    assert kernel_from_rows(m.ncols, sparse_rows) == dense
    assert Subspace.from_vectors(m.ncols, m.data) == Subspace.from_vectors(m.ncols, sparse_rows)


@settings(max_examples=40, deadline=None)
@given(square_matrices(max_n=4))
def test_inverse_and_solve(m):
    if rref(m)[2] < m.nrows:
        return
    assert m * inverse(m) == Matrix.identity(m.nrows)
    rhs = [Fraction(i + 1) for i in range(m.nrows)]
    x = solve(m, rhs)
    assert x is not None
    assert list(m.apply(x)) == rhs


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 2], [2, 4]])
    assert solve(m, [Fraction(1), Fraction(3)]) is None
    assert solve(m, [Fraction(1), Fraction(2)]) is not None


vec_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=0, max_size=4),
        st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=0, max_size=4),
    )
)


@settings(max_examples=60, deadline=None)
@given(vec_lists)
def test_subspace_dimension_formula(data):
    n, us, vs = data
    u = Subspace.from_vectors(n, us)
    v = Subspace.from_vectors(n, vs)
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v)
    assert u.contains(i) and v.contains(i)
    for w in i.basis:
        assert u.contains_vector(w) and v.contains_vector(w)


@settings(max_examples=60, deadline=None)
@given(vec_lists, st.randoms(use_true_random=False))
def test_canonical_basis_is_spanning_set_invariant(data, rng):
    n, us, _ = data
    u = Subspace.from_vectors(n, us)
    # Same span, different presentation: shuffle, rescale, add combinations.
    vecs = [list(v) for v in us]
    rng.shuffle(vecs)
    vecs = [[3 * x for x in v] for v in vecs]
    if len(vecs) >= 2:
        vecs.append([a + b for a, b in zip(vecs[0], vecs[1])])
    u2 = Subspace.from_vectors(n, vecs)
    assert u == u2
    assert hash(u) == hash(u2)


def test_subspace_trivial_cases():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z) and not z.contains(f)
    assert subspace_sum(z, f) == f
    assert subspace_intersect(z, f) == z


def test_inverse_frozen_values():
    # Hilbert 3x3 (det 1/2160): an integer inverse.
    h = Matrix([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
    assert inverse(h) == Matrix([[9, -36, 30], [-36, 192, -180], [30, -180, 180]])
    # det 4: inverse = adjugate / 4.
    m = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert inverse(m) == Matrix([[3, -2, 1], [-2, 4, -2], [1, -2, 3]]) * Fraction(1, 4)
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))
