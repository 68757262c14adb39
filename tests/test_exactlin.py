"""Exact linear algebra kernel, cross-checked against sympy."""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from currentalg.exactlin import (
    Subspace,
    _RowStream,
    _as_int_row,
    _reduced_rows,
    inverse,
    kernel_from_rows,
    preimage,
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
    """Dense matrices as lists of rows."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_n).flatmap(
            lambda m: st.lists(
                st.lists(fracs, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(fracs, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def to_sympy(m):
    return sympy.Matrix(len(m), len(m[0]), lambda i, j: sympy.Rational(m[i][j]))


def from_sympy(col):
    return [Fraction(int(x.p), int(x.q)) for x in col]


def apply(m, vector):
    """Matrix times a dense vector."""
    return [sum(a * x for a, x in zip(row, vector)) for row in m]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilated_and_dim(m):
    ncols = len(m[0])
    ker = kernel_from_rows(ncols, m)
    assert ker.dim == ncols - to_sympy(m).rank()
    for v in ker.basis:
        assert all(x == 0 for x in apply(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_matches_sympy_nullspace(m):
    ker = kernel_from_rows(len(m[0]), m)
    null = to_sympy(m).nullspace()
    oracle = Subspace.from_vectors(len(m[0]), [from_sympy(col) for col in null])
    assert ker == oracle


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_sparse_and_dense_kernels_agree(m):
    ncols = len(m[0])
    dense = kernel_from_rows(ncols, m)
    sparse_rows = [
        {j: v for j, v in enumerate(row) if v} for row in m
    ]
    assert kernel_from_rows(ncols, sparse_rows) == dense
    assert Subspace.from_vectors(ncols, m) == Subspace.from_vectors(ncols, sparse_rows)


@settings(max_examples=40, deadline=None)
@given(square_matrices(max_n=4))
def test_inverse_is_two_sided(m):
    n = len(m)
    if to_sympy(m).rank() < n:
        with pytest.raises(ValueError):
            inverse(m)
        return
    inv = inverse(m)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert all(type(x) is Fraction for row in inv for x in row)
    assert tuple(tuple(apply(m, col)) for col in zip(*inv)) == tuple(zip(*identity))
    assert tuple(tuple(apply(inv, col)) for col in zip(*m)) == tuple(zip(*identity))
    assert inv == tuple(tuple(from_sympy(row)) for row in to_sympy(m).inv().tolist())


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
    f = kernel_from_rows(3, [])
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z) and not z.contains(f)
    assert subspace_sum(z, f) == f
    assert subspace_intersect(z, f) == z
    assert (repr(z), repr(f)) == ("Subspace(dim 0 in Q^3)", "Subspace(dim 3 in Q^3)")


def test_inverse_frozen_values():
    # Hilbert 3x3 (det 1/2160): an integer inverse.
    h = tuple(tuple(Fraction(1, i + j + 1) for j in range(3)) for i in range(3))
    assert inverse(h) == ((9, -36, 30), (-36, 192, -180), (30, -180, 180))
    # det 4: inverse = adjugate / 4.
    m = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    assert inverse(m) == tuple(tuple(Fraction(x, 4) for x in row)
                               for row in ((3, -2, 1), (-2, 4, -2), (1, -2, 3)))
    with pytest.raises(ValueError):
        inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        inverse(((1, 2),))


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
    lambda: preimage(kernel_from_rows(2, []), [[1, 0], [0, 0.5]], Subspace.zero(2)),
    # was the inverse of 3602879701896397/36028797018963968
    lambda: inverse(((0.1, 0), (0, 1))),
    # a float after int entries: the all-int shortcut checks every entry
    lambda: kernel_from_rows(2, [{0: 1, 1: 0.5}]),
    lambda: Subspace.from_vectors(2, [[1, 2.0]]),
    lambda: Subspace.from_vectors(2, [[0, 1]]).reduce({0: 1, 1: 1.0}),
    lambda: preimage(kernel_from_rows(2, []), [[1, 0], [0, 3.0]], Subspace.zero(2)),
])
def test_floats_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    # was a dimension-2 "kernel" of Q^2 whose rows held column 2
    lambda: kernel_from_rows(2, [[1, 2, 3]]),
    # was all of Q^2
    lambda: kernel_from_rows(2, [{5: 1}]),
    # was a subspace holding column 2
    lambda: Subspace.from_vectors(2, [[1, 2, 3]]),
    lambda: kernel_from_rows(2, [{-1: 1}]),
    lambda: kernel_from_rows(2, [{0: 1, -1: 1}]),
    lambda: Subspace.from_vectors(2, [{-1: 1, 1: 1}]),
    # membership reads: was {5: Fraction(1, 1)}, {-1: 1} and False
    lambda: Subspace.from_vectors(2, [[1, 0]]).reduce({5: 1}),
    lambda: Subspace.from_vectors(2, [[1, 0]]).reduce({-1: 1}),
    lambda: Subspace.from_vectors(2, [[1, 0]]).contains_vector([1, 0, 0, 7]),
    # was a dimension-0 preimage of an image outside Q^2
    lambda: preimage(Subspace.from_vectors(2, [[1, 0]]), [{9: 1}], Subspace.zero(2)),
])
def test_an_entry_outside_the_ambient_space_raises_value_error(call):
    with pytest.raises(ValueError, match=r"outside Q\^2"):
        call()



@pytest.mark.parametrize("call", [
    lambda: Subspace.zero(2).contains(Subspace.zero(3)),
    lambda: subspace_sum(Subspace.zero(2), Subspace.zero(3)),
    lambda: subspace_intersect(Subspace.zero(3), Subspace.zero(2)),
])
def test_spaces_of_different_ambients_raise_value_error(call):
    with pytest.raises(ValueError, match="ambient mismatch"):
        call()


def test_the_exact_twins_of_the_float_cases():
    half = Fraction(1, 2)
    assert kernel_from_rows(2, [[Fraction(3, 2), 1]]).basis == ((1, Fraction(-3, 2)),)
    assert kernel_from_rows(2, [[half, 1]]).basis == ((1, -half),)
    space = Subspace.from_vectors(2, [[0, 1]])
    assert space.reduce([Fraction(3, 2), 1]) == {0: Fraction(3, 2)}
    assert space.reduce({1: 7}) == {}
    assert inverse(((Fraction(1, 10), 0), (0, 1))) == ((10, 0), (0, 1))
    assert kernel_from_rows(2, [{0: 1, 1: half}]).basis == ((1, -2),)
    assert Subspace.from_vectors(2, [[1, 2]]).rows == {0: {0: 1, 1: 2}}
    assert space.reduce({0: 1, 1: 1}) == {0: 1}
    assert preimage(kernel_from_rows(2, []), [[1, 0], [0, 3]], Subspace.zero(2)).dim == 0


def test_preimage_reads_images_with_different_denominators():
    # f(e0) = 1/2 and f(e1) = 1: the kernel of f is spanned by 2 e0 - e1
    half = Fraction(1, 2)
    assert preimage(kernel_from_rows(2, []), [[half], [1]], Subspace.zero(1)).rows == {0: {0: 2, 1: -1}}
    assert preimage(kernel_from_rows(2, []), [{0: 1}, {0: half}], Subspace.zero(1)).rows == {0: {0: 1, 1: -2}}


# --- preimage against sympy ---------------------------------------------------


@st.composite
def preimage_problems(draw):
    """(n, f, us, ts): a map f from Q^n to Q^m as m rows, a spanning list
    us of the domain (maybe dependent or empty) and one ts of the target."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(0), st.just(0), fracs)
    f = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    us = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    ts = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=3))
    return n, f, us, ts


@settings(max_examples=80, deadline=None)
@given(preimage_problems())
def test_preimage_matches_sympy(problem):
    n, f, us, ts = problem
    m = len(f)
    domain = Subspace.from_vectors(n, us)
    target = Subspace.from_vectors(m, ts)
    # images of the domain's rows, dense and as sparse dicts
    images = [apply(f, [row.get(j, 0) for j in range(n)]) for row in domain.rows.values()]
    got = preimage(domain, images, target)
    sparse = [{i: x for i, x in enumerate(img) if x} for img in images]
    assert preimage(domain, sparse, target) == got
    # sympy: the coefficients (c, e) with f(sum_k c_k u_k) + sum_l e_l t_l = 0
    cols = [apply(f, u) for u in us] + [list(t) for t in ts]
    expected = []
    if cols:
        system = sympy.Matrix(m, len(cols), lambda i, j: sympy.Rational(cols[j][i]))
        for null in system.nullspace():
            c = from_sympy(null)
            expected.append([sum(c[k] * u[j] for k, u in enumerate(us)) for j in range(n)])
    assert got == Subspace.from_vectors(n, expected)
    assert domain.contains(got)
    with pytest.raises(ValueError):
        preimage(domain, images + [[0] * m], target)


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


# --- tall systems: many more rows than columns, most of them dependent --------


def plain(x):
    """x as an int when it is integral, so rows mix int and Fraction entries."""
    return x.numerator if x.denominator == 1 else x


@st.composite
def tall_systems(draw, max_cols=8):
    """(ncols, rows): 3 to 6 times as many dense rows as columns, each an
    integer combination of a few generators of rank at least ncols - 2, with
    the generators themselves, duplicate and zero rows mixed in and the
    order shuffled."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rank = draw(st.integers(min_value=max(0, ncols - 2), max_value=ncols))
    entry = st.one_of(st.integers(min_value=-9, max_value=9), fracs)
    gens = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=rank, max_size=rank))
    coeffs = st.lists(st.integers(min_value=-3, max_value=3),
                      min_size=rank, max_size=rank)
    nrows = draw(st.integers(min_value=3 * ncols, max_value=6 * ncols))
    rows = [[plain(sum((c * g[j] for c, g in zip(cs, gens)), Fraction(0)))
             for j in range(ncols)]
            for cs in draw(st.lists(coeffs, min_size=nrows, max_size=nrows))]
    rows += gens
    rows += draw(st.lists(st.sampled_from(rows), max_size=ncols))
    rows += [[0] * ncols] * draw(st.integers(min_value=0, max_value=2))
    return ncols, draw(st.permutations(rows))


def sympy_canonical_rows(vectors):
    """{pivot: row}: sympy's RREF of the span of dense vectors, each row
    scaled to integers of content 1 (the pivot entry stays positive)."""
    if not vectors:
        return {}
    reduced, pivots = to_sympy(vectors).rref()
    out = {}
    for i, p in enumerate(pivots):
        row = {j: Fraction(x) for j, x in enumerate(from_sympy(reduced.row(i))) if x}
        den = lcm(*(x.denominator for x in row.values()))
        ints = {j: int(x * den) for j, x in row.items()}
        g = gcd(*ints.values())
        out[p] = {j: x // g for j, x in ints.items()}
    return out


def assert_reduced(pivots):
    """The engine's invariant: each stored row leads at its pivot with a
    positive int entry, has content 1 and is zero at every other pivot."""
    for p, row in pivots.items():
        assert min(row) == p and row[p] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        assert not set(row) & (set(pivots) - {p})


@settings(max_examples=30, deadline=None)
@given(tall_systems())
def test_tall_kernel_is_sympys_nullspace_in_canonical_form(system):
    ncols, rows = system
    ker = kernel_from_rows(ncols, rows)
    assert_canonical(ker)
    null = [from_sympy(col) for col in to_sympy(rows).nullspace()]
    assert ker.rows == sympy_canonical_rows(null)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert kernel_from_rows(ncols, sparse) == ker


@settings(max_examples=30, deadline=None)
@given(tall_systems(), st.randoms(use_true_random=False))
def test_tall_spans_are_sympys_row_space_in_every_presentation(system, rng):
    ncols, rows = system
    span = Subspace.from_vectors(ncols, rows)
    assert_canonical(span)
    assert span.rows == sympy_canonical_rows(rows)
    # the same span: shuffled, each row rescaled, as dense and sparse vectors
    vecs = list(rows)
    rng.shuffle(vecs)
    vecs = [[plain(f * x) for x in v] for v, f in zip(vecs, (
        Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in vecs))]
    for other in (vecs, [{j: x for j, x in enumerate(v) if x} for v in vecs]):
        assert Subspace.from_vectors(ncols, other) == span
    third = len(vecs) // 3
    parts = (Subspace.from_vectors(ncols, vecs[:third]),
             Subspace.from_vectors(ncols, vecs[third:]))
    assert subspace_sum(*parts) == span


@settings(max_examples=30, deadline=None)
@given(tall_systems(max_cols=6))
def test_every_step_of_the_engine_keeps_its_rows_reduced(system):
    # the engine's state after k rows is its result on the first k rows
    ncols, rows = system
    int_rows = [_as_int_row(r)[0] for r in rows]
    for k in range(len(int_rows) + 1):
        assert_reduced(_reduced_rows([dict(r) for r in int_rows[:k]]))


def test_a_new_pivot_is_cleared_from_the_rows_that_hold_it():
    # rows 1, 2 and 3 each take a pivot in a column that earlier rows hold,
    # so it is cleared from them; row 0 gains column 2 while column 1 is
    # cleared from it, and must then be found through the column index when
    # column 2 becomes a pivot.  Row 3 meets pivots of leads 6 and 3, whose
    # lcm scales it once.
    rows = [{0: 2, 1: 1}, {1: 3, 2: 1}, {2: 1, 3: 1}, {0: 1, 1: 1}]
    states = [
        {0: {0: 2, 1: 1}},
        {0: {0: 6, 2: -1}, 1: {1: 3, 2: 1}},
        {0: {0: 6, 3: 1}, 1: {1: 3, 3: -1}, 2: {2: 1, 3: 1}},
        {p: {p: 1} for p in range(4)},
    ]
    for k, state in enumerate(states, 1):
        assert _reduced_rows([dict(r) for r in rows[:k]]) == state
        assert_reduced(state)
    assert kernel_from_rows(4, rows[:3]) == Subspace.from_vectors(4, [[1, -2, 6, -6]])
    assert Subspace.from_vectors(4, rows[:3]).reduce({3: 1}) == {3: Fraction(1)}


def test_a_kernel_reads_a_one_shot_stream_once():
    rows = [{0: 1, 1: -1}, {1: 2, 2: Fraction(1, 3)}, {}, {1: -1, 0: 1}, [0, 0, 0, 1]]
    taken = []

    def once():
        for row in rows:
            taken.append(row)
            yield row

    assert kernel_from_rows(4, once()) == kernel_from_rows(4, rows)
    assert taken == rows
    stream = _RowStream(iter(rows))
    assert kernel_from_rows(4, stream) == kernel_from_rows(4, rows)
    assert len(stream) == len(rows)
    # a float in a row that the stream builds late still raises
    with pytest.raises(TypeError):
        kernel_from_rows(2, ({0: 1} if k else {1: 0.5} for k in (1, 0)))
