"""Chevalley-Eilenberg complex: d^2 = 0 and frozen cohomology dimensions."""

from itertools import combinations

import pytest

from currentalg.algebras import (
    assoc_truncated_poly,
    current,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
)
from currentalg.cochain import (
    LieModule,
    _cochain_spaces,
    _tuples,
    adjoint_module,
    ce_differential,
    coadjoint_module,
    cochain_dim,
    cohomology,
    trivial_module,
)
from currentalg.exactlin import Subspace


def algebras():
    return [("sl2", lie_sl2()), ("sl3", lie_sl(3)), ("heis3", lie_heisenberg3())]


def modules(g):
    return [trivial_module(g), adjoint_module(g), coadjoint_module(g)]


def test_differential_squares_to_zero():
    for _, g in algebras():
        for mod in modules(g):
            for n in (0, 1, 2):
                if cochain_dim(g, mod, n + 2) == 0:
                    continue  # composite lands in the zero space
                d_n = ce_differential(g, mod, n)
                d_next = ce_differential(g, mod, n + 1)
                assert (d_next * d_n).is_zero()


def test_cochain_dims_are_binomial():
    g = lie_sl(3)
    mod = adjoint_module(g)
    assert cochain_dim(g, mod, 0) == 8
    assert cochain_dim(g, mod, 1) == 64
    assert cochain_dim(g, mod, 2) == 28 * 8
    assert cochain_dim(g, mod, 3) == 56 * 8


# (Z, B, H) per degree 0..3, computed once and pinned.  The semisimple rows
# follow the Whitehead lemmas; heis3 rows were cross-checked against an
# independent nullspace/rank computation.
FROZEN = {
    ("sl2", "trivial:1"): [(1, 0, 1), (0, 0, 0), (3, 3, 0), (1, 0, 1)],
    ("sl2", "adjoint"): [(0, 0, 0), (3, 3, 0), (6, 6, 0), (3, 3, 0)],
    ("sl2", "coadjoint"): [(0, 0, 0), (3, 3, 0), (6, 6, 0), (3, 3, 0)],
    ("sl3", "trivial:1"): [(1, 0, 1), (0, 0, 0), (8, 8, 0), (21, 20, 1)],
    ("sl3", "adjoint"): [(0, 0, 0), (8, 8, 0), (56, 56, 0), (168, 168, 0)],
    ("sl3", "coadjoint"): [(0, 0, 0), (8, 8, 0), (56, 56, 0), (168, 168, 0)],
    ("heis3", "trivial:1"): [(1, 0, 1), (2, 0, 2), (3, 1, 2), (1, 0, 1)],
    ("heis3", "adjoint"): [(1, 0, 1), (6, 2, 4), (8, 3, 5), (3, 1, 2)],
    ("heis3", "coadjoint"): [(2, 0, 2), (6, 1, 5), (7, 3, 4), (3, 2, 1)],
}


def test_frozen_cohomology_dimensions():
    for name, g in algebras():
        for mod in modules(g):
            expected = FROZEN[(name, mod.name)]
            for degree in (0, 1, 2, 3):
                r = cohomology(g, mod, degree)
                got = (r.z_space.dim, r.b_space.dim, r.h_dim)
                assert got == tuple(expected[degree]), (name, mod.name, degree)
                assert r.z_space.contains(r.b_space)


def test_coboundaries_are_cocycles_in_all_cases():
    g = lie_heisenberg3()
    mod = coadjoint_module(g)
    for degree in (1, 2):
        d_prev = ce_differential(g, mod, degree - 1)
        d_here = ce_differential(g, mod, degree)
        for col in range(d_prev.ncols):
            image = [d_prev[(r, col)] for r in range(d_prev.nrows)]
            assert all(x == 0 for x in d_here.apply(image))


def test_representation_axiom_is_enforced():
    g = lie_sl2()
    # Flip one sign in the adjoint action of e-.
    action = [dict(a) for a in adjoint_module(g).action]
    key = next(iter(action[0]))
    action[0][key] = -action[0][key]
    with pytest.raises(ValueError):
        LieModule(g, g.dim, action, "broken")


def test_trivial_module_zero_degree_is_invariants():
    # H^0 = M^L: full for abelian action, zero for a faithful simple action.
    g = lie_sl2()
    assert cohomology(g, trivial_module(g, dim=3), 0).h_dim == 3
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
