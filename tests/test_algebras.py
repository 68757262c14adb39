"""Structure-constant algebras: catalog, validation, serialization, forms."""

from fractions import Fraction
import json
from itertools import combinations, product as cartesian

import pytest
from hypothesis import given, settings, strategies as st

from currentalg.algebras import (
    AssocAlgebra,
    LieAlgebra,
    ValidationError,
    algebra_from_dict,
    algebra_to_dict,
    assoc_truncated_poly,
    assoc_zero_mult,
    build_assoc,
    build_lie,
    current,
    killing_form,
    lie_abelian,
    lie_direct_sum,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
    parse_algebra_file,
    product_form,
    residue_form,
    serialize_algebra,
)
from currentalg import algebras
from currentalg.algebras import BilinearForm, _StructureConstants
from currentalg.cli import main
from currentalg.identities import InvariantError
from currentalg.derivations import antiderivation_space
from currentalg.graded import graded_form_dims, graded_h2
from currentalg.exactlin import Subspace


def test_sl2_weight_basis_table():
    sl2 = lie_sl2()
    assert sl2.labels == ("e-", "h", "e+")
    assert sl2.bracket(0, 1) == ((0, Fraction(1)),)
    assert sl2.bracket(0, 2) == ((1, Fraction(1)),)
    assert sl2.bracket(1, 2) == ((2, Fraction(1)),)
    assert sl2.bracket(1, 0) == ((0, Fraction(-1)),)
    assert sl2.bracket(0, 0) == ()
    assert sl2.table
    # ad h: e- -> -e-, e+ -> e+, as {(k, j): c} for [h, x_j] = c x_k
    assert sl2.ad(1) == {(0, 0): -1, (2, 2): 1}


def _mirrors(alg):
    """mul(j, i) is -mul(i, j) on a Lie table and mul(i, j) on an
    associative one, for every ordered basis pair."""
    sign = -1 if isinstance(alg, LieAlgebra) else 1
    return all(alg.mul(j, i) == tuple((k, sign * c) for k, c in alg.mul(i, j))
               for i in range(alg.dim) for j in range(alg.dim))


def test_lie_and_associative_tables_never_compare_equal():
    labels, table = ("x", "y", "z"), {(0, 1): ((2, 1),)}
    lie, assoc = LieAlgebra(labels, table), AssocAlgebra(labels, table)
    assert lie.table == assoc.table
    assert lie.mul(1, 0) == ((2, -1),) and assoc.mul(1, 0) == ((2, 1),)
    assert lie != assoc and assoc != lie
    assert LieAlgebra(("a",), {}) != AssocAlgebra(("a",), {})
    assert lie == LieAlgebra(labels, table) and assoc == AssocAlgebra(labels, table)
    assert len({lie, assoc, LieAlgebra(labels, table), AssocAlgebra(labels, table)}) == 2


def test_sl_n_catalog():
    for n in (2, 3, 4):
        g = lie_sl(n)
        assert g.dim == n * n - 1
        assert g.sl_summands == (n,)
    sl3 = lie_sl(3)
    assert sl3.labels == ("e21", "e31", "e32", "h1", "h2", "e12", "e13", "e23")
    assert repr(lie_sl2()) == "LieAlgebra(dim 3: e-, h, e+)"
    with pytest.raises(ValueError):
        lie_sl(1)


def test_heisenberg_and_abelian():
    h = lie_heisenberg3()
    assert h.labels == ("x", "y", "z")
    assert h.bracket(0, 1) == ((2, Fraction(1)),)
    ab = lie_abelian(4)
    assert not ab.table


def test_direct_sum():
    s = lie_direct_sum([lie_sl2(), lie_sl(3)])
    assert s.dim == 11
    assert s.labels[:3] == ("e-.0", "h.0", "e+.0")
    assert s.sl_summands == (2, 3)
    # Summands commute with each other.
    assert s.bracket(0, 5) == ()
    assert s.bracket(0, 1) == ((0, Fraction(1)),)
    # Summand list collapses once a non-sl part appears.
    assert lie_direct_sum([lie_sl2(), lie_heisenberg3()]).sl_summands is None


def test_truncated_polynomial_algebras():
    a4 = assoc_truncated_poly(4)
    assert a4.labels == ("t", "t^2", "t^3")
    assert a4.degrees == (1, 2, 3)
    assert a4.tpoly_order == 4
    assert a4.product(0, 1) == ((2, Fraction(1)),)
    assert a4.product(1, 2) == ()
    assert repr(a4) == "AssocAlgebra(dim 3: t, t^2, t^3)"

    u = assoc_truncated_poly(3, unital=True)
    assert u.labels == ("1", "t", "t^2")
    assert u.unital and u.degrees == (0, 1, 2)
    assert u.unit == (Fraction(1), Fraction(0), Fraction(0))

    z = assoc_zero_mult(2)
    assert z.product(0, 1) == ()


def test_jacobi_violation_carries_witness():
    with pytest.raises(ValidationError) as exc:
        LieAlgebra(
            ("x", "y", "z"),
            {(0, 1): ((2, Fraction(1)),),
             (0, 2): ((1, Fraction(1)),),
             (1, 2): ((1, Fraction(1)),)},
        )
    assert exc.value.axiom == "jacobi"
    assert exc.value.witness == (0, 1, 2)


def test_associativity_violation_carries_witness():
    with pytest.raises(ValidationError) as exc:
        AssocAlgebra(("a", "b"), {(0, 0): ((1, Fraction(1)),),
                                  (0, 1): ((0, Fraction(1)),)})
    assert exc.value.axiom == "associativity"
    assert exc.value.witness == (0, 0, 1)


# tables whose first failing triple has exactly one term with a nonzero
# product: the walk must reach it through that term alone.  The Lie ones
# fail on that triple only.
_ONE_LIVE_TERM = [
    # [[a, b], d] = [c, d] = e
    (LieAlgebra, {(0, 1): [(2, 1)], (2, 3): [(4, 1)]},
     "Jacobi identity fails on (a, b, d)", (0, 1, 3)),
    # [[b, c], a] = [d, a] = -e
    (LieAlgebra, {(1, 2): [(3, 1)], (0, 3): [(4, 1)]},
     "Jacobi identity fails on (a, b, c)", (0, 1, 2)),
    # [[c, a], b] = [-d, b] = e
    (LieAlgebra, {(0, 2): [(3, 1)], (1, 3): [(4, 1)]},
     "Jacobi identity fails on (a, b, c)", (0, 1, 2)),
    # (ab)d = cd = e
    (AssocAlgebra, {(0, 1): [(2, 1)], (2, 3): [(4, 1)]},
     "associativity fails on (a, b, d)", (0, 1, 3)),
    # (bc)a = da = e
    (AssocAlgebra, {(1, 2): [(3, 1)], (0, 3): [(4, 1)]},
     "associativity fails on (a, b, c)", (0, 1, 2)),
]


@pytest.mark.parametrize("cls, table, message, witness", _ONE_LIVE_TERM,
                         ids=["jacobi-first", "jacobi-second", "jacobi-third",
                              "assoc-first", "assoc-second"])
def test_a_failing_triple_with_one_live_term_is_found(cls, table, message, witness):
    with pytest.raises(ValidationError) as exc:
        cls(("a", "b", "c", "d", "e"), table)
    assert (str(exc.value), exc.value.witness) == (message, witness)


def _first_axiom_failure(alg):
    """The first failing triple of the axiom over every triple, in
    lexicographic order: the reference the sparse walk must agree with."""
    axiom, name, order, terms = alg._AXIOM
    n = range(alg.dim)
    for t in (combinations(n, 3) if order == "x<y<z" else cartesian(n, repeat=3)):
        acc = {}
        for sign, a, b, c in terms:
            for m, x in alg.mul(t[a], t[b]):
                for k, y in alg.mul(m, t[c]):
                    acc[k] = acc.get(k, 0) + sign * x * y
        if any(acc.values()):
            return t
    return None


def _unchecked(kind, labels, table):
    """The table stored as kind stores it, its axiom not checked."""
    alg = object.__new__(kind)
    _StructureConstants.__init__(alg, labels, table)
    return alg


@st.composite
def sparse_tables(draw):
    kind = draw(st.sampled_from([LieAlgebra, AssocAlgebra]))
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + (kind is LieAlgebra), n)]
    keys = draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True))
    coefficient = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)])
    table = {key: draw(st.lists(st.tuples(st.integers(0, n - 1), coefficient),
                                min_size=1, max_size=3)) for key in keys}
    return kind, tuple("x%d" % i for i in range(n)), table


@settings(max_examples=200, deadline=None)
@given(sparse_tables())
def test_the_axiom_walk_fails_where_the_full_walk_does(case):
    kind, labels, table = case
    witness = _first_axiom_failure(_unchecked(kind, labels, table))
    if witness is None:
        kind(labels, table)
        return
    with pytest.raises(ValidationError) as exc:
        kind(labels, table)
    assert exc.value.witness == witness
    assert str(exc.value) == "%s fails on (%s)" % (
        kind._AXIOM[1], ", ".join(labels[i] for i in witness))


def test_json_degrees_must_be_a_grading():
    record = algebra_to_dict(assoc_truncated_poly(3))
    assert algebra_from_dict(record).degrees == (1, 2)
    record["degrees"] = [1, 7]
    with pytest.raises(ValidationError) as exc:
        algebra_from_dict(record)
    assert exc.value.axiom == "grading"
    assert exc.value.witness == (0, 0, 1)
    # a zero product constrains nothing
    record["degrees"] = [5, 7]
    record["table"] = []
    assert algebra_from_dict(record).degrees == (5, 7)


def test_unital_flag_requires_identity():
    with pytest.raises(ValidationError) as exc:
        AssocAlgebra(("a",), {}, unital=True)
    assert exc.value.axiom == "unital"


def test_json_round_trip(tmp_path):
    for alg in (lie_sl2(), lie_sl(3), lie_heisenberg3(),
                current(lie_sl2(), assoc_truncated_poly(3)),
                assoc_truncated_poly(4), assoc_truncated_poly(3, unital=True)):
        back = algebra_from_dict(algebra_to_dict(alg))
        assert back.labels == alg.labels
        assert back.table == alg.table
        assert _mirrors(alg) and _mirrors(back)
        if isinstance(alg, AssocAlgebra):
            assert back.unital == alg.unital
            assert back.degrees == alg.degrees
        path = tmp_path / "alg.json"
        serialize_algebra(alg, str(path))
        back2 = parse_algebra_file(str(path))
        assert back2.table == alg.table


def test_from_dict_accepts_consistent_mirror_entries():
    d = algebra_to_dict(lie_sl2())
    d["table"].append({"i": 1, "j": 0, "terms": [{"k": 0, "c": "-1"}]})
    assert algebra_from_dict(d).bracket(0, 1) == ((0, Fraction(1)),)
    # an empty diagonal bracket [x, x] = 0 is allowed and changes nothing
    d = algebra_to_dict(lie_sl2())
    d["table"].append({"i": 0, "j": 0, "terms": []})
    assert algebra_from_dict(d) == lie_sl2()


def test_from_dict_rejects_inconsistent_mirror():
    d = algebra_to_dict(lie_sl2())
    d["table"].append({"i": 1, "j": 0, "terms": [{"k": 0, "c": "1"}]})
    with pytest.raises(ValidationError) as exc:
        algebra_from_dict(d)
    assert exc.value.axiom == "anticommutativity"
    assert exc.value.witness == (0, 1)


def test_from_dict_rejects_nonzero_diagonal_bracket():
    d = algebra_to_dict(lie_sl2())
    d["table"].append({"i": 2, "j": 2, "terms": [{"k": 0, "c": "1"}]})
    with pytest.raises(ValidationError) as exc:
        algebra_from_dict(d)
    assert exc.value.axiom == "anticommutativity"


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        parse_algebra_file(str(path))
    path.write_text('{"kind": "lie", "dim": 2}')
    with pytest.raises(ValidationError):
        parse_algebra_file(str(path))


def test_build_descriptors():
    assert build_lie("sl2").labels == ("e-", "h", "e+")
    assert build_lie("sl4").dim == 15
    assert build_lie("abelian:3").dim == 3
    assert build_lie("heis3").labels == ("x", "y", "z")
    assert build_lie("sum:sl2+sl3").sl_summands == (2, 3)
    assert build_assoc("tpoly:4").tpoly_order == 4
    assert build_assoc("tpoly1:3").unital
    assert build_assoc("zero:2").dim == 2
    with pytest.raises(ValueError):
        build_lie("e8")
    with pytest.raises(ValueError):
        build_assoc("tpoly:1")


def test_build_from_file(tmp_path):
    path = tmp_path / "sl2.json"
    serialize_algebra(lie_sl2(), str(path))
    assert build_lie(str(path)).table == lie_sl2().table
    path = tmp_path / "tpoly3.json"
    serialize_algebra(build_assoc("tpoly:3"), str(path))
    assert build_assoc(str(path)) == build_assoc("tpoly:3")


def test_current_algebra_structure():
    c = current(lie_sl2(), assoc_truncated_poly(3))
    assert c.dim == 6
    assert c.labels[:4] == ("e-*t", "h*t", "e+*t", "e-*t^2")
    assert c.degrees == (1, 1, 1, 2, 2, 2)
    for w in range(c.dim):
        p, i = divmod(w, c.factorL.dim)
        assert c.flat(i, p) == w
    # [e- t, e+ t] = h t^2 and degree-4 products truncate to zero.
    assert c.bracket(c.flat(0, 0), c.flat(2, 0)) == ((c.flat(1, 1), Fraction(1)),)
    assert c.bracket(c.flat(0, 1), c.flat(2, 1)) == ()
    # Degree blocks sum to zero bracket against an annihilated layer:
    # [c, c] is the t^2 layer.
    products = [dict(terms) for terms in c.table.values()]
    assert Subspace.from_vectors(c.dim, products).pivots == (3, 4, 5)


def test_killing_form_values():
    k2 = killing_form(lie_sl2())
    assert k2.matrix == ((0, 0, -2), (0, 2, 0), (-2, 0, 0))
    assert k2.symmetry == "symmetric" and k2.is_nondegenerate()
    sl3 = lie_sl(3)
    k3 = killing_form(sl3)
    assert k3.is_nondegenerate()
    h1, h2 = sl3.labels.index("h1"), sl3.labels.index("h2")
    assert (k3(h1, h1), k3(h1, h2), k3(h2, h2)) == (12, -6, 12)
    assert k3(sl3.labels.index("e21"), sl3.labels.index("e12")) == 6
    # Nilpotent algebras have vanishing Killing form.
    assert not any(any(row) for row in killing_form(lie_heisenberg3()).matrix)


def test_residue_form():
    r = residue_form(assoc_truncated_poly(4))
    assert r.matrix == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert r.is_nondegenerate()
    with pytest.raises(ValueError):
        residue_form(assoc_truncated_poly(3, unital=True))


def test_product_form():
    L, A = lie_sl2(), assoc_truncated_poly(3)
    c = current(L, A)
    pf = product_form(killing_form(L), residue_form(A), c)
    assert pf.symmetry == "symmetric" and pf.is_nondegenerate()
    assert pf(c.flat(1, 0), c.flat(1, 1)) == 2
    assert pf(c.flat(1, 0), c.flat(1, 0)) == 0


@pytest.mark.parametrize("call, error, message", [
    (lambda: LieAlgebra(("x", "y"), {(1, 0): ((0, 1),)}), ValueError,
     r"lie table keys must satisfy 0 <= i < j < dim"),
    (lambda: LieAlgebra(("x", "y"), {(0, 0): ((0, 1),)}), ValueError,
     r"lie table keys must satisfy 0 <= i < j < dim"),
    (lambda: AssocAlgebra(("a",), {(0, 1): ((0, 1),)}), ValueError,
     r"assoc table keys must satisfy 0 <= i <= j < dim"),
    (lambda: AssocAlgebra(("a", "b"), {}, degrees=(1,)), ValueError,
     r"degree tags must match dim"),
    (lambda: product_form(killing_form(lie_sl2()), residue_form(assoc_truncated_poly(3)),
                          current(lie_sl2(), assoc_truncated_poly(4))), ValueError,
     r"factor form dimensions do not match"),
    (lambda: product_form(killing_form(lie_sl(3)), residue_form(assoc_truncated_poly(3)),
                          current(lie_sl2(), assoc_truncated_poly(3))), ValueError,
     r"factor form dimensions do not match"),
    (lambda: algebra_to_dict({"kind": "lie", "dim": 0}), TypeError, r"not an algebra"),
    (lambda: graded_h2("sl2", 1), ValueError, r"pair degrees start at 2"),
    (lambda: graded_form_dims("radical", "any", 3), ValueError,
     r"unknown graded form condition 'radical'"),
    # explicit ids keep the graded_h2 case's id free of a numeric suffix
    pytest.param(lambda: graded_form_dims("cyclic", "any", 1), ValueError,
                 r"pair degrees start at 2", id="graded_form_dims(degree 1)"),
    pytest.param(lambda: graded_form_dims("cyclic", "skew", 0), ValueError,
                 r"pair degrees start at 2", id="graded_form_dims(degree 0)"),
    pytest.param(lambda: graded_form_dims("jacobi_sum_zero", "any", -1), ValueError,
                 r"pair degrees start at 2", id="graded_form_dims(degree -1)"),
    (lambda: antiderivation_space(build_assoc("tpoly:3")), TypeError,
     r"antiderivations are a Lie algebra notion here"),
])
def test_malformed_library_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _looped_product_form(form_lie, form_assoc, curr):
    """<x_i a_p, x_j a_q> = <x_i, x_j><a_p, a_q> by a loop over every
    quadruple (p, i, q, j), the construction that curr.tensor replaces."""
    nl, na = curr.factorL.dim, curr.factorA.dim
    rows = [[0] * curr.dim for _ in range(curr.dim)]
    for p in range(na):
        for i in range(nl):
            for q in range(na):
                aval = form_assoc(p, q)
                for j in range(nl):
                    lval = form_lie(i, j)
                    if aval and lval:
                        rows[curr.flat(i, p)][curr.flat(j, q)] = lval * aval
    return BilinearForm(rows)


@pytest.mark.parametrize("lie", ["sl2", "sl3"])
@pytest.mark.parametrize("assoc", ["tpoly:3", "tpoly:4"])
def test_product_form_equals_the_quadruple_loop(lie, assoc):
    L, A = build_lie(lie), build_assoc(assoc)
    curr = current(L, A)
    forms = killing_form(L), residue_form(A), curr
    got, want = product_form(*forms), _looped_product_form(*forms)
    assert got.matrix == want.matrix and got.symmetry == want.symmetry
    assert [type(x) for x in got.as_vector()] == [type(x) for x in want.as_vector()]


def test_bilinear_form_symmetry_autodetect():
    assert BilinearForm([[0, 1], [-1, 0]]).symmetry == "skew"
    assert BilinearForm([[1, 0], [0, 0]]).symmetry == "symmetric"
    assert not BilinearForm([[1, 0], [0, 0]]).is_nondegenerate()


def test_bilinear_form_rejects_floats_and_its_exact_twin_passes():
    # 0.1 used to become 3602879701896397/36028797018963968, tagged symmetric
    for matrix in ([[0.1, 0], [0, 1]], [[1, 0.0], [0.0, 1]], ((0, 0.5), (-0.5, 0))):
        with pytest.raises(TypeError):
            BilinearForm(matrix)
    form = BilinearForm([[Fraction(1, 10), 0], [0, Fraction(2, 2)]])
    assert form.matrix == ((Fraction(1, 10), 0), (0, 1))
    assert form(0, 0) == Fraction(1, 10) and type(form(0, 0)) is Fraction
    # integral entries are stored as ints, like structure constants
    assert type(form(0, 1)) is int and type(form(1, 1)) is int
    assert form.symmetry == "symmetric" and form.is_nondegenerate()
    assert form.as_vector() == (Fraction(1, 10), 0, 0, 1)
    assert BilinearForm(((0, Fraction(1, 2)), (Fraction(-1, 2), 0))).symmetry == "skew"
    with pytest.raises(ValueError):
        BilinearForm([[1, 0]])


def test_forms_of_integral_tables_store_ints():
    sl3, tpoly = lie_sl(3), assoc_truncated_poly(3)
    forms = (killing_form(sl3), residue_form(tpoly),
             product_form(killing_form(lie_sl2()), residue_form(tpoly),
                          current(lie_sl2(), tpoly)))
    for form in forms:
        assert all(type(x) is int for x in form.as_vector())
        assert any(form.as_vector())


def test_structure_constants_reject_floats_and_store_integral_fractions_as_ints():
    # 0.1 used to be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        LieAlgebra(("x", "y", "z"), {(0, 1): ((2, 0.1),)})
    with pytest.raises(TypeError):
        AssocAlgebra(("a", "b"), {(0, 0): ((1, 1.0),)})
    alg = LieAlgebra(("x", "y", "z"), {(0, 1): ((2, Fraction(4, 2)),)})
    assert alg.bracket(1, 0) == ((2, -2),) and type(alg.bracket(1, 0)[0][1]) is int


def test_unit_that_is_not_a_basis_vector():
    # K + K with idempotents e1, e2 (e1 e2 = 0): the unit is e1 + e2
    kk = AssocAlgebra(("e1", "e2"), {(0, 0): ((0, 1),), (1, 1): ((1, 1),)}, unital=True)
    assert kk.unit == (Fraction(1), Fraction(1))
    # the same algebra in the basis f1 = e1, f2 = e1 + e2: unit f2
    kk2 = AssocAlgebra(("f1", "f2"), {(0, 0): ((0, 1),), (0, 1): ((0, 1),),
                                      (1, 1): ((1, 1),)}, unital=True)
    assert kk2.unit == (Fraction(0), Fraction(1))
    # K on f = 2e, so f f = 2f: the unit f/2 has a denominator
    assert AssocAlgebra(("f",), {(0, 0): ((0, 2),)}, unital=True).unit == (Fraction(1, 2),)


def test_idempotent_with_annihilator_is_not_unital():
    # e^2 = e and z A = 0: e acts as a unit on e but kills z
    labels, table = ("e", "z"), {(0, 0): ((0, 1),)}
    assert AssocAlgebra(labels, table).unit is None
    with pytest.raises(ValidationError) as exc:
        AssocAlgebra(labels, table, unital=True)
    assert exc.value.axiom == "unital"


def test_a_wrong_unit_from_the_kernel_is_a_defect(monkeypatch, capsys):
    # the unit of tpoly1:3 is its first basis vector; a kernel row reading
    # u = e0 + e1 must fail the exact re-check as a defect (exit 3), not as
    # "no two-sided identity found", which blames the input (exit 2)
    def wrong_unit(ncols, rows):
        return Subspace(ncols, {0: {0: 1, 1: 1, ncols - 1: 1}})

    monkeypatch.setattr(algebras, "kernel_from_rows", wrong_unit)
    with pytest.raises(InvariantError, match="the unit read off the kernel fails"):
        build_assoc("tpoly1:3")
    assert main(["algebra", "validate", "--A", "tpoly1:3"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal invariant failed: the unit read off the kernel fails")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.sampled_from(["1", "-1", "1/2", "1/0", "0.1", "x", "lie", "assoc", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["i", "j", "k", "c", "terms"]), inner, max_size=5),
    max_leaves=8)

# records shaped like an algebra file, with any JSON value in any field
indices = st.integers(0, 2) | json_values
entries = st.fixed_dictionaries(
    {"i": indices, "j": indices,
     "terms": st.lists(st.fixed_dictionaries({"k": indices, "c": json_values}),
                       max_size=2)})
records = st.fixed_dictionaries(
    {"kind": st.sampled_from(["lie", "assoc"]) | json_values,
     "dim": st.integers(0, 3) | json_values,
     "basis": st.sampled_from([[], ["a"], ["a", "b"], ["a", "b", "c"], ["a", "a"]])
     | json_values,
     "table": st.lists(entries | json_values, max_size=4)},
    optional={"unital": json_values, "degrees": json_values})


@settings(max_examples=150, deadline=None)
@given(json_values | records)
def test_any_json_value_gives_an_algebra_or_a_validation_error(data):
    try:
        alg = algebra_from_dict(data)
    except ValidationError:
        return
    assert isinstance(alg, (LieAlgebra, AssocAlgebra))
    assert _mirrors(alg)
    assert algebra_from_dict(algebra_to_dict(alg)) == alg


# --- one owner per layout: the flat basis of L tensor A, the support masks ----


def _probed_current_table(L, A):
    """The table of L tensor A from the product of every flat pair u < v,
    the construction that reading the factors' stored products replaces."""
    nl, n = L.dim, L.dim * A.dim
    table = {}
    for u in range(n):
        i, p = u % nl, u // nl
        for v in range(u + 1, n):
            j, q = v % nl, v // nl
            acc = {}
            for k, c in L.bracket(i, j):
                for r, d in A.product(p, q):
                    acc[r * nl + k] = acc.get(r * nl + k, 0) + c * d
            terms = tuple(sorted((w, c) for w, c in acc.items() if c))
            if terms:
                table[(u, v)] = terms
    return table


def _factor_pairs():
    from test_forms import RATIONAL_SL2, RATIONAL_TPOLY4
    catalog = [(build_lie(lie), build_assoc(assoc))
               for lie in ("sl2", "sl3", "heis3", "abelian:3", "sum:sl2+sl2")
               for assoc in ["tpoly:%d" % k for k in range(2, 6)]
               + ["tpoly1:%d" % k for k in range(2, 5)] + ["zero:2"]]
    twin_l, twin_a = algebra_from_dict(RATIONAL_SL2), algebra_from_dict(RATIONAL_TPOLY4)
    return catalog + [(twin_l, twin_a), (twin_l, build_assoc("tpoly:4")),
                      (build_lie("sl2"), twin_a)]


def test_the_current_table_is_the_table_of_every_flat_pair():
    for L, A in _factor_pairs():
        curr = current(L, A)
        want = _probed_current_table(L, A)
        assert list(curr.table.items()) == list(want.items()), (L, A)
        assert _mirrors(curr)


def _probed_support(alg):
    return [sum(1 << j for j in range(alg.dim) if alg.mul(i, j))
            for i in range(alg.dim)]


def test_support_masks_are_the_nonzero_products(tmp_path):
    algs = [build_lie(s) for s in ("sl2", "sl3", "sl4", "heis3", "abelian:3",
                                   "sum:sl2+sl3")]
    algs += [build_assoc(s) for s in ("tpoly:2", "tpoly:5", "tpoly1:4", "zero:2")]
    algs.append(current(lie_sl2(), assoc_truncated_poly(4)))
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({
        "kind": "assoc", "dim": 3, "basis": ["a", "b", "c"], "unital": False,
        "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1/2"}]},
                  {"i": 0, "j": 1, "terms": [{"k": 2, "c": "-3"}]},
                  {"i": 1, "j": 0, "terms": [{"k": 2, "c": "-3"}]}]}))
    algs.append(parse_algebra_file(str(path)))
    for alg in algs:
        assert alg.support == _probed_support(alg), alg
    assert algs[-1].support == [0b011, 0b001, 0]
