"""Exact linear algebra kernel, cross-checked against sympy."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from currentalg.exactlin import (
    Matrix,
    Subspace,
    inverse,
    kernel_from_rows,
    preimage,
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


# --- floats are not rationals ------------------------------------------------


@pytest.mark.parametrize("call", [
    # was span{(1, -1)}: 1.5 truncated to 1
    lambda: kernel_from_rows(2, [[1.5, 1]]),
    # was ZeroDivisionError: 0.5 truncated to a zero pivot
    lambda: kernel_from_rows(2, [[0.5, 1]]),
    lambda: kernel_from_rows(2, [{0: 0.5, 1: 1}]),
    # was an exact residual of Fraction(1.5)
    lambda: Subspace.from_vectors(2, [[0, 1]]).reduce([1.5, 1]),
    lambda: Subspace.from_vectors(2, [[0, 1]]).contains_vector({0: 1.5}),
    lambda: Subspace.from_vectors(2, [[1, 0.0]]),
    lambda: preimage(Subspace.full(2), [[1, 0], [0, 0.5]], Subspace.zero(2)),
])
def test_floats_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_the_exact_twins_of_the_float_cases():
    half = Fraction(1, 2)
    assert kernel_from_rows(2, [[Fraction(3, 2), 1]]).basis == ((1, Fraction(-3, 2)),)
    assert kernel_from_rows(2, [[half, 1]]).basis == ((1, -half),)
    space = Subspace.from_vectors(2, [[0, 1]])
    assert space.reduce([Fraction(3, 2), 1]) == {0: Fraction(3, 2)}
    assert space.reduce({1: 7}) == {}


# --- sparse systems past the dense strategies' sizes --------------------------


@st.composite
def sparse_systems(draw, max_rows=12, max_cols=30):
    """(ncols, rows): up to max_rows sparse int/Fraction rows on a subset of
    the columns (the rest untouched), with explicit zeros, duplicate rows
    and zero rows mixed in and the order shuffled."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    used = draw(st.lists(st.integers(min_value=0, max_value=ncols - 1),
                         min_size=1, max_size=ncols, unique=True))
    entry = st.one_of(st.integers(min_value=-9, max_value=9), fracs)
    rows = draw(st.lists(st.dictionaries(st.sampled_from(used), entry,
                                         min_size=1, max_size=6),
                         max_size=max_rows))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [{}] * draw(st.integers(min_value=0, max_value=2))
    return ncols, draw(st.permutations(rows))


def dense(ncols, row):
    return [row.get(j, 0) for j in range(ncols)]


def sympy_kernel(ncols, rows):
    m = sympy.Matrix([dense(ncols, r) for r in rows] + [[0] * ncols])
    return Subspace.from_vectors(ncols, [
        [Fraction(int(x.p), int(x.q)) for x in col] for col in m.nullspace()])


def assert_canonical(space):
    """Integer rows of content 1 with a positive pivot entry, zero at every
    other pivot, and the dense basis their pivot-1 scaling."""
    assert tuple(space.rows) == space.pivots == tuple(sorted(space.pivots))
    for p, row in space.rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        assert not set(row) & (set(space.pivots) - {p})
    assert space.basis == tuple(
        tuple(Fraction(row.get(j, 0), row[p]) for j in range(space.ambient_dim))
        for p, row in space.rows.items())


@settings(max_examples=40, deadline=None)
@given(sparse_systems())
def test_sparse_kernel_matches_sympy_nullspace(system):
    ncols, rows = system
    ker = kernel_from_rows(ncols, rows)
    assert_canonical(ker)
    assert ker == sympy_kernel(ncols, rows)
    assert kernel_from_rows(ncols, [dense(ncols, r) for r in rows]) == ker


@settings(max_examples=40, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_sparse_spans_are_canonical_in_every_presentation(system, rng):
    ncols, rows = system
    span = Subspace.from_vectors(ncols, rows)
    assert_canonical(span)
    # the same span: shuffled, each vector rescaled, one sum added
    vecs = [dense(ncols, r) for r in rows]
    rng.shuffle(vecs)
    vecs = [[f * x for x in v] for v, f in zip(vecs, (
        Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in vecs))]
    if len(vecs) >= 2:
        vecs.append([a + b for a, b in zip(vecs[0], vecs[1])])
    for other in (vecs, [{j: x for j, x in enumerate(v) if x} for v in vecs]):
        again = Subspace.from_vectors(ncols, other)
        assert again == span and hash(again) == hash(span)
        assert again.basis == span.basis and again.pivots == span.pivots
    half = len(rows) // 2
    u, v = (Subspace.from_vectors(ncols, part) for part in (rows[:half], rows[half:]))
    s, i = subspace_sum(u, v), subspace_intersect(u, v)
    assert s == span and s.dim + i.dim == u.dim + v.dim
    assert u.contains(i) and v.contains(i)


@settings(max_examples=40, deadline=None)
@given(sparse_systems(), sparse_systems(max_rows=4))
def test_reduce_reads_dict_and_dense_input_alike(system, probes):
    ncols, rows = system
    span = Subspace.from_vectors(ncols, rows)
    _, extra = probes
    vectors = rows + [{j % ncols: x for j, x in r.items()} for r in extra]
    vectors.append({j: 1 for j in range(ncols)})
    for vec in vectors:
        residual = span.reduce(vec)
        assert span.reduce(dense(ncols, vec)) == residual
        assert span.contains_vector(vec) == span.contains_vector(dense(ncols, vec))
        assert span.contains_vector(vec) == (not residual)
        # the residual is vec minus a member of the span, zero at the pivots
        assert not set(residual) & set(span.pivots)
        assert all(x for x in residual.values())
        assert span.contains_vector(
            [vec.get(j, 0) - residual.get(j, 0) for j in range(ncols)])
