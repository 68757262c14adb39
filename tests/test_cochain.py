"""Chevalley-Eilenberg complex: d^2 = 0, frozen cohomology dimensions, and
the pair fold of forms of one symmetry."""

from itertools import combinations
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from currentalg.algebras import (
    assoc_truncated_poly,
    current,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
)
from currentalg.cochain import (
    LieModule,
    _ce_rows,
    _cochain_spaces,
    _fold,
    _pair_domain,
    _square,
    _tuples,
    adjoint_module,
    coadjoint_module,
    cohomology,
    trivial_module,
)
from currentalg.exactlin import Subspace
from currentalg.identities import add_entry


def algebras():
    return [("sl2", lie_sl2()), ("sl3", lie_sl(3)), ("heis3", lie_heisenberg3())]


def modules(g):
    return {"trivial": trivial_module(g), "adjoint": adjoint_module(g),
            "coadjoint": coadjoint_module(g)}


def _listed(stream, targets, dim):
    """The rows of a _ce_rows stream as a list of sparse rows, the row keyed
    (T, m) at rank(T) * dim + m, T ranked among the lexicographic targets:
    the zero rows the stream skips put back."""
    rank = {T: r for r, T in enumerate(targets)}
    out = [{} for _ in range(len(rank) * dim)]
    for (T, m), row in stream:
        assert row, (T, m)
        out[rank[T] * dim + m] = row
    return out


def _composite(outer, inner):
    """The sparse rows of the product of two sparse row matrices."""
    out = []
    for row in outer:
        acc = {}
        for c, v in row.items():
            for col, w in inner[c].items():
                add_entry(acc, col, v * w)
        out.append(acc)
    return out


def test_differential_squares_to_zero():
    for _, g in algebras():
        for mod in modules(g).values():
            for n in (0, 1, 2):
                _, d_n = _ce_rows(g, mod, n)
                ranks, d_next = _ce_rows(g, mod, n + 1)
                # each row of d_n is keyed by a coordinate (T, m) of C^{n+1},
                # d_next's domain, in rank order
                d_n = list(d_n)
                assert all(T in ranks and 0 <= m < mod.dim for (T, m), _ in d_n)
                keys = [(ranks[T], m) for (T, m), _ in d_n]
                assert keys == sorted(set(keys))
                d_n = _listed(d_n, combinations(range(g.dim), n + 1), mod.dim)
                d_next = _listed(d_next, combinations(range(g.dim), n + 2), mod.dim)
                assert not any(_composite(d_next, d_n))


def test_cochain_dims_are_binomial():
    g = lie_sl(3)
    mod = adjoint_module(g)
    for degree, dim in ((0, 8), (1, 64), (2, 28 * 8), (3, 56 * 8)):
        ranks, _ = _ce_rows(g, mod, degree)
        assert len(ranks) * mod.dim == dim, degree


# (Z, B, H) per degree 0..3, computed once and pinned.  The semisimple rows
# follow the Whitehead lemmas; heis3 rows were cross-checked against an
# independent nullspace/rank computation.
FROZEN = {
    ("sl2", "trivial"): [(1, 0, 1), (0, 0, 0), (3, 3, 0), (1, 0, 1)],
    ("sl2", "adjoint"): [(0, 0, 0), (3, 3, 0), (6, 6, 0), (3, 3, 0)],
    ("sl2", "coadjoint"): [(0, 0, 0), (3, 3, 0), (6, 6, 0), (3, 3, 0)],
    ("sl3", "trivial"): [(1, 0, 1), (0, 0, 0), (8, 8, 0), (21, 20, 1)],
    ("sl3", "adjoint"): [(0, 0, 0), (8, 8, 0), (56, 56, 0), (168, 168, 0)],
    ("sl3", "coadjoint"): [(0, 0, 0), (8, 8, 0), (56, 56, 0), (168, 168, 0)],
    ("heis3", "trivial"): [(1, 0, 1), (2, 0, 2), (3, 1, 2), (1, 0, 1)],
    ("heis3", "adjoint"): [(1, 0, 1), (6, 2, 4), (8, 3, 5), (3, 1, 2)],
    ("heis3", "coadjoint"): [(2, 0, 2), (6, 1, 5), (7, 3, 4), (3, 2, 1)],
}


def test_frozen_cohomology_dimensions():
    for name, g in algebras():
        for mod_name, mod in modules(g).items():
            expected = FROZEN[(name, mod_name)]
            for degree in (0, 1, 2, 3):
                r = cohomology(g, mod, degree)
                got = (r.z_space.dim, r.b_space.dim, r.h_dim)
                assert got == tuple(expected[degree]), (name, mod_name, degree)
                assert r.z_space.contains(r.b_space)


def test_coboundaries_are_cocycles_in_all_cases():
    g = lie_heisenberg3()
    mod = coadjoint_module(g)
    for degree in (1, 2):
        ranks, d_prev = _ce_rows(g, mod, degree - 1)
        d_prev = _listed(d_prev, combinations(range(g.dim), degree), mod.dim)
        _, d_here = _ce_rows(g, mod, degree)
        d_here = [row for _, row in d_here]
        for col in range(len(ranks) * mod.dim):
            image = {r: row[col] for r, row in enumerate(d_prev) if col in row}
            assert all(sum(v * image.get(c, 0) for c, v in row.items()) == 0
                       for row in d_here)


def test_representation_axiom_is_enforced():
    g = lie_sl2()
    # Flip one sign in the adjoint action of e-.
    action = [dict(a) for a in adjoint_module(g).action]
    key = next(iter(action[0]))
    action[0][key] = -action[0][key]
    with pytest.raises(ValueError, match=r"bracket pair \(0, 2\)"):
        LieModule(g, g.dim, action)


def test_a_coboundary_row_outside_the_domain_raises_under_optimize(run_optimized):
    # one extra row of d^0 keyed by (3,), a 1-tuple outside the domain of
    # C^1 on sl2
    code = (
        "from currentalg import cochain\n"
        "from currentalg.algebras import lie_sl2\n"
        "from currentalg.identities import InvariantError\n"
        "ce_rows = cochain._ce_rows\n"
        "def stray(algebra, module, degree, weight=None):\n"
        "    ranks, rows = ce_rows(algebra, module, degree, weight)\n"
        "    def more():\n"
        "        yield from rows\n"
        "        if degree == 0:\n"
        "            yield ((algebra.dim,), 0), {0: 1}\n"
        "    return ranks, more()\n"
        "cochain._ce_rows = stray\n"
        "g = lie_sl2()\n"
        "try:\n"
        "    cochain.cohomology(g, cochain.trivial_module(g), 1)\n"
        "except InvariantError as exc:\n"
        "    if str(exc) != 'degree 1 cochains do not chain up':\n"
        "        raise SystemExit(3)\n"
        "    raise SystemExit(7)\n"
    )
    run_optimized(code)


def test_a_module_of_another_algebra_is_refused():
    sl2, sl3 = lie_sl2(), lie_sl(3)
    # were an IndexError and an InvariantError, the exit code of a defect
    with pytest.raises(ValueError, match="another algebra"):
        cohomology(sl3, adjoint_module(sl2), 1)
    with pytest.raises(ValueError, match="another algebra"):
        cohomology(sl2, adjoint_module(sl3), 1)
    # one action matrix per basis element, with indices in range(dim)
    for action in ([{}], [{(5, 0): 1}, {}, {}], [{(0, -1): 1}, {}, {}]):
        with pytest.raises(ValueError, match="one action matrix per basis"):
            LieModule(sl2, 2, action)
    # an equal algebra built again is the same algebra
    assert cohomology(lie_sl2(), adjoint_module(sl2), 1).h_dim == 0


def test_the_axiom_is_checked_exactly_when_some_action_entry_is_nonzero(monkeypatch):
    checked = []
    monkeypatch.setattr(LieModule, "_validate", lambda self: checked.append(self))
    g = lie_sl2()
    trivial_module(g)
    LieModule(g, 2, [dict() for _ in range(g.dim)])
    LieModule(g, 1, [{(0, 0): 0} for _ in range(g.dim)])
    assert checked == []
    validated = [adjoint_module(g), coadjoint_module(g)]
    assert len(checked) == 2
    assert all(got is module for got, module in zip(checked, validated))


def test_trivial_module_zero_degree_is_invariants():
    # H^0 = M^L: all of K for the zero action, zero for a faithful simple
    # action.
    g = lie_sl2()
    assert cohomology(g, trivial_module(g), 0).h_dim == 1
    assert cohomology(g, adjoint_module(g), 0).h_dim == 0
    h = lie_heisenberg3()
    assert cohomology(h, adjoint_module(h), 0).h_dim == 1


def test_weight_slices_add_up_to_the_whole_complex():
    # With trivial coefficients the differential keeps the total weight of a
    # tuple, so the weight slices of Z and B, put back into the coordinates
    # of the whole complex, add up to its Z and B.
    for g, order in ((lie_sl2(), 4), (lie_heisenberg3(), 3)):
        curr = current(g, assoc_truncated_poly(order))
        module = trivial_module(curr)
        for degree in (1, 2, 3):
            whole = cohomology(curr, module, degree)
            all_tuples = list(combinations(range(curr.dim), degree))
            rank = {S: r for r, S in enumerate(all_tuples)}
            z_vecs, b_vecs, z_dim, b_dim = [], [], 0, 0
            for weight in range(degree * (order - 1) + 1):
                tuples, z, b = _cochain_spaces(curr, module, degree, weight)
                assert tuples == _tuples(curr, degree, weight) == [
                    S for S in all_tuples
                    if sum(curr.degrees[i] for i in S) == weight]
                z_dim, b_dim = z_dim + z.dim, b_dim + b.dim
                for vecs, space in ((z_vecs, z), (b_vecs, b)):
                    vecs.extend({rank[S]: c for S, c in zip(tuples, v) if c}
                                for v in space.basis)
            ncols = len(all_tuples)
            assert Subspace.from_vectors(ncols, z_vecs) == whole.z_space
            assert Subspace.from_vectors(ncols, b_vecs) == whole.b_space
            assert (z_dim, b_dim) == (whole.z_space.dim, whole.b_space.dim)
    with pytest.raises(ValueError):
        _cochain_spaces(curr, adjoint_module(curr), 2, 3)


def test_a_cohomology_result_carries_its_cochain_domain():
    for g in (lie_sl2(), lie_heisenberg3(), current(lie_sl2(), assoc_truncated_poly(3))):
        for module in (trivial_module(g), adjoint_module(g)):
            for degree in range(4):
                res = cohomology(g, module, degree)
                assert res.domain == list(_tuples(g, degree))
                assert len(res.domain) * module.dim == res.z_space.ambient_dim
    res = cohomology(lie_sl2(), adjoint_module(lie_sl2()), 1)
    assert repr(res) == "CochainSpaceResult(degree=1, Z=3, B=3, H=0)"


def _folded(rows, n, sign):
    """(domain, folded rows) of one symmetry, as lists."""
    return _pair_domain(n, sign), list(_fold(rows, n, sign))


def _fold_by_square(rows, n, sign):
    """The fold through a map from each column to its (rank, sign), read
    off the _square of every rank: the reference for the closed-form ranks
    of _fold over the pairs of _pair_domain."""
    domain = [(i, j) for i in range(n) for j in range(i + (sign < 0), n)]
    slot = {col: (r, s) for r in range(len(domain))
            for col, s in _square(domain, n, {r: 1}, sign).items()}
    folded = [{} for _ in rows]
    for row, out in zip(rows, folded):
        for col, v in row.items():
            r, s = slot.get(col, (0, 0))
            add_entry(out, r, s * v)
    return domain, folded


_fold_cases = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from((1, -1)),
    st.lists(st.dictionaries(st.integers(0, n * n - 1),
                             st.integers(-3, 3).filter(bool), max_size=2 * n),
             max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_fold_cases)
def test_fold_ranks_are_the_ranks_square_writes(case):
    n, sign, rows = case
    assert _folded(rows, n, sign) == _fold_by_square(rows, n, sign)


def test_fold_of_one_basis_element_and_of_no_rows():
    for sign in (1, -1):
        for rows in ([], [{}], [{0: 5}, {}]):
            assert _folded(rows, 1, sign) == _fold_by_square(rows, 1, sign)
        assert _folded([], 4, sign) == _fold_by_square([], 4, sign)
    # the skew diagonal weighs 0, the symmetric one 1
    assert _folded([{0: 5}], 1, -1) == ([], [{}])
    assert _folded([{0: 5}], 1, 1) == ([(0, 0)], [{0: 5}])
    # phi(x_1, x_0) folds onto (0, 1) with the sign
    assert _folded([{2: 3}], 2, -1) == ([(0, 1)], [{0: -3}])
    assert _folded([{2: 3, 1: 3}], 2, 1) == ([(0, 0), (0, 1), (1, 1)], [{1: 6}])


def test_the_cochain_kernel_reads_its_rows_as_a_stream():
    # the rows of d^2 and d^1 stream into the elimination and only the
    # distinct ones are held: 3.5 MB of heap at the peak when every row
    # was built before the elimination, 1.5 MB streamed
    curr = current(lie_sl(3), assoc_truncated_poly(3))
    module = adjoint_module(curr)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = cohomology(curr, module, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (res.z_space.dim, res.b_space.dim, res.h_dim) == (513, 183, 330)
    assert peak < 2.5e6, peak
