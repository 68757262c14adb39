"""Form condition spaces and the two tensor-decomposition verdicts."""

from fractions import Fraction
import json

import pytest
from hypothesis import given, settings, strategies as st

from currentalg import forms, identities
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
from currentalg.derivations import (
    DER_TYPE_TABLE,
    derivation_space,
    map_condition_space,
    verify_der_decomposition,
)
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
    _MAP,
    _basis_vector,
    _entries,
    _family,
    _generator_witness,
    _h2_via_cochain,
    _residual_witness,
    _symmetry_layer,
)
from test_derivations import rebased


def subtyped_span(curr, decomposable_types, symmetry):
    """The span of every sub-typed generator of decomposable_span."""
    per_type, _, _ = decomposable_span(curr, decomposable_types, symmetry)
    return Subspace.from_vectors(curr.dim ** 2, [
        row for pair in per_type.values() for _, row in _family(curr, [pair])[0]])


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
    _, full, layer = decomposable_span(curr, FORMS_DECOMPOSABLE_TYPES,
                                       "symmetric")
    assert full.contains_vector(phi) and layer.contains_vector(phi)
    subtyped = subtyped_span(curr, FORMS_DECOMPOSABLE_TYPES, "symmetric")
    assert not subtyped.contains_vector(phi)


def test_decomposable_span_layers():
    L, A = lie_sl2(), assoc_truncated_poly(3)
    curr = current(L, A)
    per_type, full, skew_layer = decomposable_span(
        curr, H2_DECOMPOSABLE_TYPES, "skew")
    assert full.contains(skew_layer)
    z = condition_space(curr, "jacobi_sum_zero", "skew")
    assert skew_layer == z
    assert skew_layer.contains(subtyped_span(curr, H2_DECOMPOSABLE_TYPES, "skew"))
    # each sub-type's family spans its generators with no elimination
    for label, pair in per_type.items():
        gens, span = _family(curr, [pair])
        assert span == Subspace.from_vectors(
            curr.dim ** 2, [row for _, row in gens]), label


# every catalog pair of the verdict-grid benchmark workload
VERDICT_GRID = ([(kind, lie, assoc) for lie in ("sl2", "heis3", "abelian:4")
                 for assoc in ("tpoly:2", "tpoly:3", "tpoly1:3", "zero:2")
                 for kind in ("h2", "forms")] + [("forms", "sl3", "tpoly:3")])
KIND_TYPES = {"h2": (H2_DECOMPOSABLE_TYPES, "skew"),
              "forms": (FORMS_DECOMPOSABLE_TYPES, "symmetric")}


@pytest.mark.parametrize("kind, L, A", VERDICT_GRID)
def test_a_subtype_dimension_is_the_product_of_its_layers(kind, L, A):
    # a one-pair family has one canonical row per pair of factor rows, with
    # distinct pivots, so the report reads its dimension off the factors
    curr = current(build_lie(L), build_assoc(A))
    per_type, _, _ = decomposable_span(curr, *KIND_TYPES[kind])
    for label, (s_l, s_a) in per_type.items():
        assert s_l.dim * s_a.dim == _family(curr, [(s_l, s_a)])[1].dim, label


def test_the_verdicts_build_one_span_and_seek_witnesses_on_failure(monkeypatch):
    calls = []

    def spy(helper):
        def wrapped(*args):
            calls.append(helper.__name__)
            return helper(*args)
        return wrapped

    curr = current(lie_heisenberg3(), assoc_truncated_poly(3))
    # the sub-typed span misses the mixed-symmetry form of
    # test_mixed_symmetry_form_needs_two_types, which the layer holds
    subtyped = subtyped_span(curr, FORMS_DECOMPOSABLE_TYPES, "symmetric")
    for name in ("_family", "_generator_witness", "_residual_witness"):
        monkeypatch.setattr(forms, name, spy(getattr(forms, name)))
    assert verify_forms_decomposition("heis3", "tpoly:3")["span_in_Z"]
    assert calls == ["_family"]
    calls.clear()
    # the second _family is the envelope of the coboundaries
    r = verify_h2_decomposition("heis3", "tpoly:3")
    assert r["span_in_Z"] and r["Z_in_span"] and "witness" not in r
    assert calls == ["_family", "_family"]
    # a target that holds every sub-typed generator but not the whole
    # layer: the generator scan finds nothing, the residual scan the witness
    calls.clear()
    monkeypatch.setattr(forms, "invariant_symmetric_forms", lambda curr: subtyped)
    r = verify_forms_decomposition("heis3", "tpoly:3")
    assert (r["span_in_Z"], r["Z_in_span"]) == (False, True)
    assert r["witness"]["direction"] == "span_element_not_invariant"
    assert calls == ["_family"] * 7 + ["_generator_witness", "_residual_witness"]
    # a target outside the span: one residual scan, no generators
    calls.clear()
    monkeypatch.setattr(forms, "FORMS_DECOMPOSABLE_TYPES", tuple(
        t for t in FORMS_DECOMPOSABLE_TYPES if t[0] != "iii"))
    monkeypatch.setattr(forms, "invariant_symmetric_forms", invariant_symmetric_forms)
    r = verify_forms_decomposition("heis3", "tpoly:3")
    assert r["witness"]["direction"] == "target_not_in_span"
    assert calls == ["_family", "_residual_witness"]


def _subtyped_pairs(curr, types, symmetry):
    """{sub-type: (S_L, S_A)}: each sub-type pairs factor spaces solved with
    a pinned symmetry, the L factor with the overall symmetry and A
    symmetric ("a"), or the other L symmetry and A skew ("b")."""
    other = {"symmetric": "skew", "skew": "symmetric"}[symmetry]
    return {label + suffix: (condition_space(curr.factorL, cond_l, sym_l),
                             condition_space(curr.factorA, cond_a, sym_a))
            for label, cond_l, cond_a in types
            for suffix, sym_l, sym_a in (("a", symmetry, "symmetric"),
                                         ("b", other, "skew"))}


@pytest.mark.parametrize("L, A", [("sl2", "tpoly:3"), ("heis3", "tpoly:3")])
@pytest.mark.parametrize("types, symmetry", [(H2_DECOMPOSABLE_TYPES, "skew"),
                                             (FORMS_DECOMPOSABLE_TYPES, "symmetric")])
def test_subtyped_families_are_the_symmetric_solves(L, A, types, symmetry):
    curr = current(build_lie(L), build_assoc(A))
    per_type, _, _ = decomposable_span(curr, types, symmetry)
    expected = _subtyped_pairs(curr, types, symmetry)
    assert list(per_type) == list(expected)
    assert per_type == expected


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
    return alg, {kind: (decomposable_span(alg, types, sym)[1], None)
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
        "    return real(kernel_from_rows(n * n, []), list(forms._fold(units, n, sign)),\n"
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
    # generators are (pivot, integer row) pairs
    inside = [(0, {0: 2})]
    outside = [(1, {1: 1})]
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
    w = _residual_witness(target, Subspace.from_vectors(4, [outside[0][1]]), labels,
                          _FORM, "target_not_in_span")
    ok = w is None
    assert not ok and w["direction"] == "target_not_in_span"
    assert w["form"] == {"phi(a,a)": "1"}


def test_witnesses_read_sparse_vectors_in_coordinate_order():
    curr = current(lie_sl2(), assoc_truncated_poly(3))
    n, labels = curr.dim, curr.labels
    target = condition_space(curr, "jacobi_sum_zero", "skew")
    inside = target.pivots[0], target.rows[target.pivots[0]]
    # symmetric in the pair (x_0, x_1), so no 2-cocycle; pivot 0 * n + 1
    outside = 1, {1 * n + 4: -6, 0 * n + 1: 1, 1 * n + 0: 1}
    # each generator as given and with its keys in reverse coordinate order
    vectors = [((p, row), (p, dict(sorted(row.items(), reverse=True))))
               for p, row in (inside, outside)]
    witnesses = []
    for form in (0, 1):
        gens = {"t": [pair[form] for pair in vectors]}
        span = Subspace.from_vectors(n * n, [vectors[1][form][1]])
        witnesses.append((
            _generator_witness(target, gens, labels, _FORM, "generator_outside_target"),
            _residual_witness(span, target, labels, _FORM, "span_element_not_cocycle")))
    assert witnesses[0] == witnesses[1]
    assert json.dumps(witnesses[0]) == json.dumps(witnesses[1])
    generator, residual = witnesses[0]
    phi = "phi({0},{1})".format
    # a generator and a basis vector of the span are read with pivot entry 1
    for witness in (generator, residual):
        assert witness["form"] == {phi(labels[0], labels[1]): "1",
                                   phi(labels[1], labels[0]): "1",
                                   phi(labels[1], labels[4]): "-6"}
    assert residual["residual"]


def test_every_subtyped_generator_is_a_cocycle():
    curr = current(lie_sl2(), assoc_truncated_poly(3))
    z = condition_space(curr, "jacobi_sum_zero", "skew")
    per_type, _, _ = decomposable_span(curr, H2_DECOMPOSABLE_TYPES, "skew")
    for label, pair in per_type.items():
        for _, row in _family(curr, [pair])[0]:
            assert z.contains_vector(row), label


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


# --- tensor families from canonical integer rows ------------------------------
#
# The tensor of canonical rows of S_L and S_A is the canonical row of
# S_L tensor S_A: the families are read off the factor rows with no
# elimination.  The Fraction generators below are how the families were
# built before, as tensors of the pivot-1 vectors of the factor rows.

GRID = [(lie, assoc) for lie in ("sl2", "heis3", "abelian:4")
        for assoc in ("tpoly:2", "tpoly:3", "tpoly1:3", "zero:2")]


def _fraction_generators(curr, factor_pairs):
    gens = []
    for sl, sa in factor_pairs:
        avecs = [_basis_vector(p, row) for p, row in sa.rows.items()]
        for p, row in sl.rows.items():
            lv = _basis_vector(p, row)
            gens.extend(curr.tensor(lv, av) for av in avecs)
    return gens


def _fraction_witness(target, families, labels, kind):
    """The first Fraction generator outside target, as the verdicts read it
    before: {label: generators} in order."""
    key, fmt = kind
    for label, gens in families.items():
        for g in gens:
            if not target.contains_vector(g):
                return {"direction": "planted", "type": label,
                        key: _entries(fmt, labels, g)}
    return None


def _assert_family_is_the_fraction_span(curr, factor_pairs):
    gens, span = _family(curr, factor_pairs)
    old = _fraction_generators(curr, factor_pairs)
    assert [_basis_vector(p, row) for p, row in gens] == old
    assert span == Subspace.from_vectors(curr.dim ** 2, old)


@st.composite
def random_factor_pairs(draw):
    """A current algebra of the grid and one to three pairs (S_L, S_A) of
    random integer subspaces of its factors' n^2 coordinates."""
    lie, assoc = draw(st.sampled_from(GRID))
    curr = current(build_lie(lie), build_assoc(assoc))

    def space(d):
        vecs = draw(st.lists(st.dictionaries(st.integers(0, d - 1), st.integers(-3, 3),
                                             max_size=4), max_size=4))
        return Subspace.from_vectors(d, vecs)

    return curr, [(space(curr.factorL.dim ** 2), space(curr.factorA.dim ** 2))
                  for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(random_factor_pairs())
def test_tensor_rows_span_the_fraction_generators(case):
    curr, pairs = case
    for chosen in (pairs[:1], pairs):
        _assert_family_is_the_fraction_span(curr, chosen)


@pytest.mark.parametrize("L, A", GRID)
def test_tensor_rows_of_the_grid_factors_span_the_fraction_generators(L, A):
    curr = current(build_lie(L), build_assoc(A))
    for types, symmetry in ((H2_DECOMPOSABLE_TYPES, "skew"),
                            (FORMS_DECOMPOSABLE_TYPES, "symmetric")):
        pairs = [(condition_space(curr.factorL, cond_l), condition_space(curr.factorA, cond_a))
                 for _, cond_l, cond_a in types]
        for pair in pairs + list(_subtyped_pairs(curr, types, symmetry).values()):
            _assert_family_is_the_fraction_span(curr, [pair])
        _assert_family_is_the_fraction_span(curr, pairs)


@pytest.mark.parametrize("L, A", [("sl2", "tpoly:3"), ("heis3", "tpoly:3"),
                                  ("abelian:4", "zero:2")])
def test_planted_targets_give_the_witness_of_the_fraction_generators(L, A):
    curr = current(build_lie(L), build_assoc(A))
    n2 = curr.dim ** 2
    cases = []
    for types, symmetry, target in (
            (H2_DECOMPOSABLE_TYPES, "skew", condition_space(curr, "jacobi_sum_zero", "skew")),
            (FORMS_DECOMPOSABLE_TYPES, "symmetric", invariant_symmetric_forms(curr))):
        pairs = {label: [pair] for label, pair in _subtyped_pairs(curr, types, symmetry).items()}
        cases.append((target, pairs, _FORM))
    pairs = {label: [(map_condition_space(curr.factorL, conds_l),
                      map_condition_space(curr.factorA, conds_a))]
             for label, conds_l, conds_a in DER_TYPE_TABLE}
    cases.append((derivation_space(curr), pairs, _MAP))
    for target, pairs, kind in cases:
        gens = {label: _family(curr, chosen)[0] for label, chosen in pairs.items()}
        old = {label: _fraction_generators(curr, chosen) for label, chosen in pairs.items()}
        last = target.pivots[-1]
        for planted in (Subspace.zero(n2),
                        Subspace(n2, {p: row for p, row in target.rows.items() if p != last})):
            witness = _generator_witness(planted, gens, curr.labels, kind, "planted")
            assert witness == _fraction_witness(planted, old, curr.labels, kind)
        assert _generator_witness(Subspace.zero(n2), gens, curr.labels, kind, "planted")
