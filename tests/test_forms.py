"""Form condition spaces and the two tensor-decomposition verdicts."""

from fractions import Fraction
import json

import pytest

from currentalg import identities
from currentalg.algebras import (
    algebra_from_dict,
    assoc_truncated_poly,
    build_assoc,
    build_lie,
    current,
    killing_form,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
)
from currentalg.derivations import verify_der_decomposition
from currentalg.exactlin import Subspace, kernel_from_rows, subspace_intersect
from currentalg.forms import (
    condition_space,
    decomposable_span,
    FORMS_DECOMPOSABLE_TYPES,
    H2_DECOMPOSABLE_TYPES,
    hc1_space,
    invariant_symmetric_forms,
    verify_forms_decomposition,
    verify_h2_decomposition,
)
from currentalg.forms import (
    _FORM,
    _family,
    _generator_witness,
    _h2_via_cochain,
    _residual_witness,
    _symmetry_layer,
)
from test_derivations import rebased


def subtyped_span(curr, decomposable_types, symmetry):
    """The span of every sub-typed generator of decomposable_span."""
    _, gens, _, _ = decomposable_span(curr, decomposable_types, symmetry)
    return Subspace.from_vectors(curr.dim ** 2,
                                 [g for vecs in gens.values() for g in vecs])


# (condition, symmetry) -> dim on sl2, solved once and pinned; the sympy
# nullspace oracle for the same systems gave identical numbers.
SL2_CONDITION_DIMS = {
    ("jacobi_sum_zero", "symmetric"): 5,
    ("jacobi_sum_zero", "skew"): 3,
    ("jacobi_sum_zero", "any"): 8,
    ("cyclic", "symmetric"): 1,
    ("cyclic", "skew"): 0,
    ("cyclic", "any"): 1,
    ("radical", "symmetric"): 0,
    ("radical", "skew"): 0,
    ("radical", "any"): 0,
    ("invariant", "symmetric"): 1,
    ("invariant", "skew"): 0,
    ("invariant", "any"): 1,
    ("none", "symmetric"): 6,
    ("none", "skew"): 3,
    ("none", "any"): 9,
}


def test_sl2_condition_dims():
    sl2 = lie_sl2()
    for (cond, sym), dim in SL2_CONDITION_DIMS.items():
        assert condition_space(sl2, cond, sym).dim == dim, (cond, sym)


def test_heis3_condition_dims():
    h = lie_heisenberg3()
    # [L,L] = span(z), so the radical condition only kills the z row.
    assert condition_space(h, "radical", "any").dim == 6
    assert condition_space(h, "cyclic", "skew").dim == 1
    assert condition_space(h, "jacobi_sum_zero", "symmetric").dim == 5


def test_assoc_condition_dims():
    t4 = assoc_truncated_poly(4)
    assert condition_space(t4, "radical", "any").dim == 3
    assert condition_space(t4, "cyclic", "symmetric").dim == 3
    assert condition_space(t4, "jacobi_sum_zero", "skew").dim == 0
    assert condition_space(t4, "invariant", "any").dim == 3


def test_invariant_symmetric_forms_of_simple_algebras():
    # One-dimensional, spanned by the Killing form.
    for g in (lie_sl2(), lie_sl(3)):
        space = invariant_symmetric_forms(g)
        assert space.dim == 1
        assert space.contains_vector(killing_form(g).as_vector())


def test_hc1_vanishes_on_truncated_polynomials():
    for name in ("tpoly1:2", "tpoly1:3", "tpoly:3", "tpoly:4"):
        assert hc1_space(build_assoc(name)).dim == 0


def test_condition_space_rejects_unknown_tags():
    with pytest.raises(ValueError):
        condition_space(lie_sl2(), "bogus", "any")
    with pytest.raises(ValueError):
        condition_space(lie_sl2(), "cyclic", "hermitian")


def test_condition_lookups_keep_their_messages():
    from currentalg.derivations import map_condition_space
    sl2, tpoly = lie_sl2(), assoc_truncated_poly(3)
    cases = [
        (lambda: condition_space(sl2, "cyclic", "hermitian"), ValueError,
         "unknown symmetry 'hermitian'"),
        (lambda: condition_space(sl2, "bogus"), ValueError,
         "unknown form condition 'bogus'"),
        (lambda: condition_space("sl2", "cyclic"), TypeError,
         "not an algebra: 'sl2'"),
        (lambda: map_condition_space(tpoly, ("derivation", "centroid")), ValueError,
         "unknown map condition 'centroid'"),
        (lambda: map_condition_space(None, ("derivation",)), TypeError,
         "not an algebra: None"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message
    # the symmetry is checked before the algebra, the algebra before the name
    with pytest.raises(ValueError, match="unknown symmetry"):
        condition_space(None, "bogus", "hermitian")
    with pytest.raises(TypeError):
        condition_space(None, "bogus")


def test_cocycle_routes_agree():
    # Z^2 via the form condition system and via the cochain complex.
    for L, A in ((lie_sl2(), assoc_truncated_poly(3)),
                 (lie_heisenberg3(), assoc_truncated_poly(3))):
        curr = current(L, A)
        z_form = condition_space(curr, "jacobi_sum_zero", "skew")
        z_cochain, b_cochain = _h2_via_cochain(curr)
        assert z_form == z_cochain
        assert z_cochain.contains(b_cochain)


# Frozen verify_h2 grid values: (Z2 dim, per-type dims).
H2_FROZEN = {
    ("sl2", "tpoly:2"): (3, {"ia": 3, "ib": 0, "iia": 0, "iib": 0,
                             "iiia": 0, "iiib": 0, "iva": 3, "ivb": 0}),
    ("sl2", "tpoly:3"): (11, {"ia": 6, "ib": 5, "iia": 0, "iib": 0,
                              "iiia": 0, "iiib": 0, "iva": 3, "ivb": 0}),
    ("heis3", "tpoly:3"): (12, {"ia": 6, "ib": 5, "iia": 1, "iib": 0,
                                "iiia": 3, "iiib": 3, "iva": 3, "ivb": 0}),
    ("abelian:4", "zero:2"): (28, {"ia": 18, "ib": 10, "iia": 18, "iib": 10,
                                   "iiia": 18, "iiib": 10, "iva": 18, "ivb": 10}),
}


def test_verify_h2_frozen_cases():
    for (ln, an), (z2, types) in H2_FROZEN.items():
        r = verify_h2_decomposition(ln, an)
        assert r["theorem"] == "h2" and r["L"] == ln and r["A"] == an
        assert r["span_in_Z"] and r["Z_in_span"]
        assert r["dims"]["Z2"] == z2
        assert r["dims"]["span"] == z2
        assert r["dims"]["types"] == types
        assert "witness" not in r


def test_verify_h2_beyond_subtyped_span():
    # The sub-typed pieces alone miss part of Z^2 here; the symmetry-free
    # span still covers it, which is what the verdict certifies.
    r = verify_h2_decomposition("heis3", "tpoly:4")
    assert r["span_in_Z"] and r["Z_in_span"]
    assert r["dims"]["Z2"] == r["dims"]["span"] == 25
    curr = current(lie_heisenberg3(), assoc_truncated_poly(4))
    assert subtyped_span(curr, H2_DECOMPOSABLE_TYPES, "skew").dim == 23


def _table(kind, basis, products):
    """A JSON algebra record; products maps (i, j) to one term (k, c)."""
    return {"kind": kind, "dim": len(basis), "basis": basis,
            "table": [{"i": i, "j": j, "terms": [{"k": k, "c": c}]}
                      for (i, j), (k, c) in products.items()]}


# sl2 and tK[t]/(t^4) on rescaled bases, so the structure constants mix
# ints and Fractions: [E, H] = -2E, [E, F] = (2/3)H, [H, F] = -2F, and
# a a = (1/2)b, a b = (3/5)c (listed in both orders)
RATIONAL_SL2 = _table("lie", ["E", "H", "F"],
                      {(0, 1): (0, -2), (0, 2): (1, "2/3"), (1, 2): (2, -2)})
RATIONAL_TPOLY4 = _table("assoc", ["a", "b", "c"],
                         {(0, 0): (1, "1/2"), (0, 1): (2, "3/5"), (1, 0): (2, "3/5")})


@pytest.mark.parametrize("verify", [verify_h2_decomposition, verify_forms_decomposition,
                                    verify_der_decomposition])
def test_rational_twins_give_the_catalog_verdicts(verify):
    twin = verify(algebra_from_dict(RATIONAL_SL2), algebra_from_dict(RATIONAL_TPOLY4))
    catalog = verify("sl2", "tpoly:4")
    for report in (twin, catalog):
        del report["L"], report["A"]
    assert twin == catalog


@pytest.mark.parametrize("verify", [verify_h2_decomposition, verify_forms_decomposition,
                                    verify_der_decomposition])
def test_a_report_names_a_descriptor_by_itself_and_an_object_by_its_dim(verify):
    names = {(r["L"], r["A"]) for r in (
        verify("sl2", "tpoly:3"), verify(lie_sl2(), assoc_truncated_poly(3)),
        verify(lie_sl2(), "tpoly:3"), verify("sl2", assoc_truncated_poly(3)))}
    assert names == {("sl2", "tpoly:3"), ("lie(dim 3)", "assoc(dim 2)"),
                     ("lie(dim 3)", "tpoly:3"), ("sl2", "assoc(dim 2)")}


FORMS_FROZEN = {
    ("sl2", "tpoly:3"): 7,
    ("sl2", "tpoly1:3"): 3,
    ("heis3", "tpoly:3"): 15,
    ("heis3", "tpoly:4"): 28,
    ("abelian:4", "tpoly:2"): 10,
}


def test_verify_forms_frozen_cases():
    for (ln, an), bdim in FORMS_FROZEN.items():
        r = verify_forms_decomposition(ln, an)
        assert r["theorem"] == "forms"
        assert r["span_in_Z"] and r["Z_in_span"], (ln, an)
        assert r["dims"]["Z2"] == r["dims"]["span"] == bdim, (ln, an)


def test_mixed_symmetry_form_needs_two_types():
    # Symmetric invariant form on heis3 tensor tK[t]/(t^3) that no sum of
    # definite-symmetry type products reaches: phi(x t^2, z t) = 1 = its
    # mirror.  It must lie in the symmetry-free span but outside the span
    # of the sub-typed generators.
    L, A = lie_heisenberg3(), assoc_truncated_poly(3)
    curr = current(L, A)
    n = curr.dim
    u, v = curr.flat(0, 1), curr.flat(2, 0)
    phi = [Fraction(0)] * (n * n)
    phi[u * n + v] = Fraction(1)
    phi[v * n + u] = Fraction(1)
    assert invariant_symmetric_forms(curr).contains_vector(phi)
    _, _, full, layer = decomposable_span(curr, FORMS_DECOMPOSABLE_TYPES,
                                          "symmetric")
    assert full.contains_vector(phi) and layer.contains_vector(phi)
    subtyped = subtyped_span(curr, FORMS_DECOMPOSABLE_TYPES, "symmetric")
    assert not subtyped.contains_vector(phi)


def test_decomposable_span_layers():
    L, A = lie_sl2(), assoc_truncated_poly(3)
    curr = current(L, A)
    per_type, gens, full, skew_layer = decomposable_span(
        curr, H2_DECOMPOSABLE_TYPES, "skew")
    assert full.contains(skew_layer)
    z = condition_space(curr, "jacobi_sum_zero", "skew")
    assert skew_layer == z
    assert skew_layer.contains(subtyped_span(curr, H2_DECOMPOSABLE_TYPES, "skew"))
    assert per_type.keys() == gens.keys()
    assert all(per_type[label] == Subspace.from_vectors(curr.dim ** 2, vecs)
               for label, vecs in gens.items())


@pytest.mark.parametrize("L, A", [("sl2", "tpoly:3"), ("heis3", "tpoly:3")])
@pytest.mark.parametrize("types, symmetry", [(H2_DECOMPOSABLE_TYPES, "skew"),
                                             (FORMS_DECOMPOSABLE_TYPES, "symmetric")])
def test_subtyped_families_are_the_symmetric_solves(L, A, types, symmetry):
    # each sub-type pairs factor spaces solved with a pinned symmetry: the
    # L factor with the overall symmetry and A symmetric ("a"), or the other
    # L symmetry and A skew ("b")
    curr = current(build_lie(L), build_assoc(A))
    per_type, gens, _, _ = decomposable_span(curr, types, symmetry)
    other = {"symmetric": "skew", "skew": "symmetric"}[symmetry]
    expected = {}
    for label, cond_l, cond_a in types:
        for suffix, sym_l, sym_a in (("a", symmetry, "symmetric"),
                                     ("b", other, "skew")):
            expected[label + suffix] = _family(curr, [(
                condition_space(curr.factorL, cond_l, sym_l),
                condition_space(curr.factorA, cond_a, sym_a))])
    assert list(per_type) == list(gens) == list(expected)
    for label, (vecs, span) in expected.items():
        assert gens[label] == vecs and per_type[label] == span, label


LAYER_ALGEBRAS = {
    "sl2": lie_sl2,
    "sl3": lambda: lie_sl(3),
    "heis3": lie_heisenberg3,
    "abelian:4": lambda: build_lie("abelian:4"),
    "tpoly:3": lambda: build_assoc("tpoly:3"),
    "tpoly1:3": lambda: build_assoc("tpoly1:3"),
    "zero:2": lambda: build_assoc("zero:2"),
    # heis3 in a basis with rational change-of-basis entries
    "heis3 rebased": lambda: rebased(lie_heisenberg3(), [
        [1, Fraction(1, 2), 0], [Fraction(-2, 3), 1, 1], [0, Fraction(3, 4), 2]]),
    "sl2*tpoly:3": lambda: current(lie_sl2(), assoc_truncated_poly(3)),
}


# current algebras whose full span of decomposable_span, for the h2 and the
# forms types, is layered too
FULL_SPAN_PAIRS = {"sl2*tpoly:3 full": ("sl2", "tpoly:3"),
                   "heis3*tpoly:3 full": ("heis3", "tpoly:3"),
                   "abelian:4*zero:2 full": ("abelian:4", "zero:2")}


def _layer_inputs(name):
    """(algebra, {key: (space, its symmetric and skew solves or None)})."""
    if name in LAYER_ALGEBRAS:
        alg = LAYER_ALGEBRAS[name]()
        return alg, {cond: (condition_space(alg, cond), {
            sym: condition_space(alg, cond, sym) for sym in ("symmetric", "skew")})
            for cond in ("cyclic", "jacobi_sum_zero", "radical", "none")}
    lie, assoc = FULL_SPAN_PAIRS[name]
    alg = current(build_lie(lie), build_assoc(assoc))
    return alg, {kind: (decomposable_span(alg, types, sym)[2], None)
                 for kind, types, sym in (("h2", H2_DECOMPOSABLE_TYPES, "skew"),
                                          ("forms", FORMS_DECOMPOSABLE_TYPES,
                                           "symmetric"))}


@pytest.mark.parametrize("name", sorted(LAYER_ALGEBRAS) + sorted(FULL_SPAN_PAIRS))
def test_symmetry_layers_are_the_symmetric_solves(name):
    # the layer of each sign, the kernel of the fold on the space, is the
    # meet with the forms of that symmetry and, on a condition space, the
    # condition solved with that symmetry
    alg, inputs = _layer_inputs(name)
    for sym, sign in (("symmetric", 1), ("skew", -1)):
        sym_space = condition_space(alg, "none", sym)
        for key, (space, solves) in inputs.items():
            layer = _symmetry_layer(space, alg.dim, sign)
            assert layer == subspace_intersect(space, sym_space), (key, sym)
            if solves is not None:
                assert layer == solves[sym], (key, sym)


# each symmetry as rows over all n^2 unknowns, f(x, y) - f(y, x) = 0 or
# f(x, y) + f(y, x) = 0, and the sign of phi(x_j, x_i) against phi(x_i, x_j)
SQUARE_SYMMETRIES = {
    "symmetric": (identities._identity("x<y", "f(x,y) - f(y,x)"), 1),
    "skew": (identities._identity("x<=y", "f(x,y) + f(y,x)"), -1),
}


@pytest.mark.parametrize("name", sorted(LAYER_ALGEBRAS))
def test_pair_solves_equal_the_square_solves(name):
    # a symmetric or skew space solved over its pairs must be the kernel of
    # the condition plus symmetry rows over n^2 unknowns, and every basis
    # row must be sign times its own transpose, entry for entry
    alg = LAYER_ALGEBRAS[name]()
    n = alg.dim
    for sym, (symmetry, sign) in SQUARE_SYMMETRIES.items():
        for cond in ("jacobi_sum_zero", "cyclic", "radical", "invariant", "none"):
            idents = identities.conditions(alg, "form", (cond,)) + [symmetry]
            space = condition_space(alg, cond, sym)
            assert space == kernel_from_rows(n * n, identities.rows(alg, idents)), (cond, sym)
            for row in space.rows.values():
                assert row == {c % n * n + c // n: sign * v for c, v in row.items()}


def test_planted_wrong_layer_raises_under_optimize(run_optimized):
    # a layer that skips the fold (the whole condition space) or that
    # ignores the condition (the layer of the whole ambient space, the
    # forms of one symmetry) must not pass
    code = (
        "from math import isqrt\n"
        "from currentalg import forms\n"
        "from currentalg.exactlin import kernel_from_rows\n"
        "from currentalg.identities import InvariantError\n"
        "real = forms.preimage\n"
        "def ignores_condition(space, images, target):\n"
        "    n = isqrt(space.ambient_dim)\n"
        "    # a symmetric layer folds with sign -1, onto the pairs i < j\n"
        "    sign = -1 if target.ambient_dim == n * (n - 1) // 2 else 1\n"
        "    units = [{c: 1} for c in range(n * n)]\n"
        "    return real(kernel_from_rows(n * n, []), forms._fold(units, n, sign)[1],\n"
        "                target)\n"
        "for wrong in (lambda space, images, target: space, ignores_condition):\n"
        "    forms.preimage = wrong\n"
        "    try:\n"
        "        forms.verify_h2_decomposition('sl2', 'tpoly:2')\n"
        "    except InvariantError as exc:\n"
        "        if str(exc) != ('symmetry layer escapes its condition '\n"
        "                        'or symmetry space'):\n"
        "            raise SystemExit(3)\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
        "raise SystemExit(7)\n"
    )
    run_optimized(code)


def test_witness_reporting_helpers():
    labels = ("a", "b")
    target = Subspace.from_vectors(4, [[1, 0, 0, 0]])
    inside = [{0: Fraction(2)}]
    outside = [{1: Fraction(1)}]
    w = _generator_witness(target, {"t": inside}, labels, _FORM,
                           "generator_outside_target")
    ok = w is None
    assert ok and w is None
    w = _generator_witness(target, {"t": outside}, labels, _FORM,
                           "generator_outside_target")
    ok = w is None
    assert not ok
    assert w["direction"] == "generator_outside_target" and w["type"] == "t"
    assert w["form"] == {"phi(a,b)": "1"}
    w = _residual_witness(target, Subspace.from_vectors(4, outside), labels, _FORM,
                          "target_not_in_span")
    ok = w is None
    assert not ok and w["direction"] == "target_not_in_span"
    assert w["form"] == {"phi(a,a)": "1"}


def test_witnesses_read_sparse_vectors_in_coordinate_order():
    curr = current(lie_sl2(), assoc_truncated_poly(3))
    n, labels = curr.dim, curr.labels
    target = condition_space(curr, "jacobi_sum_zero", "skew")
    inside = {j: x for j, x in enumerate(target.basis[0]) if x}
    # symmetric in the pair (x_0, x_1), so no 2-cocycle
    outside = {1 * n + 4: Fraction(-3), 0 * n + 1: Fraction(1, 2),
               1 * n + 0: Fraction(1, 2)}
    # each vector as given and with its keys in reverse coordinate order
    vectors = [(vec, dict(sorted(vec.items(), reverse=True)))
               for vec in (inside, outside)]
    witnesses = []
    for form in (0, 1):
        gens = {"t": [pair[form] for pair in vectors]}
        span = Subspace.from_vectors(n * n, [vectors[1][form]])
        witnesses.append((
            _generator_witness(target, gens, labels, _FORM, "generator_outside_target"),
            _residual_witness(span, target, labels, _FORM, "span_element_not_cocycle")))
    assert witnesses[0] == witnesses[1]
    assert json.dumps(witnesses[0]) == json.dumps(witnesses[1])
    generator, residual = witnesses[0]
    phi = "phi({0},{1})".format
    assert generator["form"] == {phi(labels[0], labels[1]): "1/2",
                                 phi(labels[1], labels[0]): "1/2",
                                 phi(labels[1], labels[4]): "-3"}
    # the basis vector of the span has pivot entry 1
    assert residual["form"] == {phi(labels[0], labels[1]): "1",
                                phi(labels[1], labels[0]): "1",
                                phi(labels[1], labels[4]): "-6"}
    assert residual["residual"]


def test_every_subtyped_generator_is_a_cocycle():
    curr = current(lie_sl2(), assoc_truncated_poly(3))
    z = condition_space(curr, "jacobi_sum_zero", "skew")
    _, gens, _, _ = decomposable_span(curr, H2_DECOMPOSABLE_TYPES, "skew")
    for label, vecs in gens.items():
        for g in vecs:
            assert z.contains_vector(g), label


def test_cocycle_route_mismatch_raises_under_optimize(run_optimized):
    code = (
        "from currentalg import forms\n"
        "from currentalg.identities import InvariantError\n"
        "route = forms._h2_via_cochain\n"
        "def wrong(curr):\n"
        "    z, b = route(curr)\n"
        "    return b, b\n"
        "forms._h2_via_cochain = wrong\n"
        "try:\n"
        "    forms.verify_h2_decomposition('sl2', 'tpoly:2')\n"
        "except InvariantError as exc:\n"
        "    if str(exc) != 'cocycle routes disagree':\n"
        "        raise SystemExit(3)\n"
        "    raise SystemExit(7)\n"
    )
    run_optimized(code)
