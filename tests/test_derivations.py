"""Derivation spaces, lambda pencils, the map sequence, the loop derivation."""

from fractions import Fraction
import hashlib
import inspect
from math import comb
import time

import pytest
import sympy

from currentalg import identities as ids

from currentalg.algebras import (
    BilinearForm,
    algebra_from_dict,
    assoc_truncated_poly,
    build_assoc,
    build_lie,
    current,
    killing_form,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
    product_form,
    residue_form,
)
from currentalg import derivations
from currentalg.derivations import (
    LoopDerivation,
    _blocks,
    _projections,
    antiderivation_space,
    derivation_space,
    inner_derivations,
    lambda_candidates,
    map_condition_space,
    sequence_maps,
    sl2_loop_derivation,
    verify_der_decomposition,
)
from currentalg.exactlin import Subspace
from currentalg.forms import condition_space
from currentalg.modp import PRIMES, rational_roots


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def from_sympy(m):
    """A sympy matrix's entries, row-major, as Fractions."""
    return [Fraction(int(x.p), int(x.q)) for x in m]


def rebased(alg, new_basis):
    """alg in the basis y_a = sum_i new_basis[a][i] x_i, read back through
    algebra_from_dict."""
    n = alg.dim
    cols = [[Fraction(c) for c in y] for y in new_basis]
    to_new = to_sympy([[cols[a][i] for a in range(n)] for i in range(n)]).inv()
    table = []
    for a in range(n):
        for b in range(a + 1, n):
            product = [Fraction(0)] * n
            for i, x in enumerate(cols[a]):
                for j, y in enumerate(cols[b]):
                    for k, c in alg.mul(i, j):
                        product[k] += x * y * c
            coords = from_sympy(to_new * to_sympy([product]).T)
            terms = [{"k": k, "c": str(c)} for k, c in enumerate(coords) if c]
            if terms:
                table.append({"i": a, "j": b, "terms": terms})
    return algebra_from_dict({"kind": "lie", "dim": n,
                              "basis": ["y%d" % a for a in range(n)],
                              "table": table})


def test_semisimple_derivations_are_inner():
    for g in (lie_sl2(), lie_sl(3)):
        der = derivation_space(g)
        inner = inner_derivations(g)
        assert der.dim == g.dim
        assert der == inner


def test_heisenberg_has_outer_derivations():
    h = lie_heisenberg3()
    assert derivation_space(h).dim == 6
    assert inner_derivations(h).dim == 2
    assert derivation_space(h).contains(inner_derivations(h))


def test_antiderivation_dims():
    # D[x,y] = -[Dx,y] - [x,Dy]; 5-dimensional on sl2, zero on sl3.
    assert antiderivation_space(lie_sl2()).dim == 5
    assert antiderivation_space(lie_sl(3)).dim == 0


def test_map_conditions_and_pencils_reject_unknown_names():
    with pytest.raises(ValueError):
        map_condition_space(lie_sl2(), ("module_map",))
    with pytest.raises(ValueError):
        map_condition_space(assoc_truncated_poly(3), ("centroid",))
    with pytest.raises(ValueError):
        lambda_candidates(lie_sl2(), "bogus")


def test_assoc_map_condition_dims():
    t3, t4 = assoc_truncated_poly(3), assoc_truncated_poly(4)
    assert map_condition_space(t3, ("module_map",)).dim == 3
    assert map_condition_space(t4, ("module_map",)).dim == 5
    assert map_condition_space(t4, ("derivation",)).dim == 3


def test_killing_transport_splits_by_symmetry():
    # kappa(D(x), y) = phi(x, y) carries symmetric sum-zero forms onto
    # antiderivations and skew ones (the 2-cocycles) onto derivations.
    for g in (lie_sl2(), lie_sl(3)):
        n = g.dim
        kappa_inv = to_sympy(killing_form(g).matrix).inv()

        def transport(space):
            # the map D = kappa^-1 phi^T, row-major
            vecs = [from_sympy(kappa_inv * to_sympy([b[i * n:(i + 1) * n]
                                                     for i in range(n)]).T)
                    for b in space.basis]
            return Subspace.from_vectors(n * n, vecs)

        sym = condition_space(g, "jacobi_sum_zero", "symmetric")
        skew = condition_space(g, "jacobi_sum_zero", "skew")
        assert transport(sym) == antiderivation_space(g)
        assert transport(skew) == derivation_space(g)


def test_sl2_pencil_roots():
    pc = lambda_candidates(lie_sl2(), "lie_both")
    got = {str(lam): pc.solution_at(lam).dim for lam in pc.lambdas}
    assert got == {"-1": 5, "1": 3, "1/2": 1}
    assert not pc.degenerate and pc.residual_degree == 0
    assert repr(pc) == ("PencilCandidates(lie_both, {'-1': 5, '1/2': 1, '1': 3}, "
                        "degenerate=False)")
    # lambda = 1 is the ordinary derivation pencil value.
    assert pc.solution_at(Fraction(1)) == derivation_space(lie_sl2())
    assert pc.solution_at(Fraction(-1)) == antiderivation_space(lie_sl2())
    # off-root values solve only trivially
    assert pc.solution_at(Fraction(7)).dim == 0


SL2_LIE_BOTH = {Fraction(-1): 5, Fraction(1): 3, Fraction(1, 2): 1}


@pytest.mark.parametrize("new_basis, primes", [
    # a structure constant with denominator PRIMES[0]: [y0, y2] = h / p
    ([[Fraction(1, PRIMES[0]), 0, 0], [0, 1, 0], [0, 0, 1]], PRIMES[1:3]),
    # a basis with 1/2 entries
    ([[Fraction(1, 2), 0, Fraction(1, 2)], [0, Fraction(1, 2), 0],
      [Fraction(-1, 2), 0, Fraction(1, 2)]], PRIMES[:2]),
])
def test_sl2_pencil_in_rational_bases(new_basis, primes):
    assert lambda_candidates(lie_sl2(), "lie_both").primes == PRIMES[:2]
    pc = lambda_candidates(rebased(lie_sl2(), new_basis), "lie_both")
    assert pc.primes == primes
    assert pc.lambdas == SL2_LIE_BOTH
    assert not pc.degenerate and pc.residual_degree == 0


def test_pencil_search_needs_two_usable_primes():
    denominator = 1
    for q in PRIMES[:-1]:
        denominator *= q
    scaled = rebased(lie_sl2(), [[Fraction(1, denominator), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="search primes"):
        lambda_candidates(scaled, "lie_both")


def test_lie_left_pencil_is_basis_independent():
    # [D x, x] = lam^-1 D [x, x] = 0 is part of the identity, so the type ii
    # family of heis3 (D(L) central with D([L, L]) = 0 at lam = 1 and 1/2)
    # does not depend on the basis
    unimodular = [[1, 1, 0], [0, 1, 0], [1, 2, 1]]
    catalog, changed = lie_heisenberg3(), rebased(lie_heisenberg3(), unimodular)
    for alg in (catalog, changed):
        pc = lambda_candidates(alg, "lie_left")
        assert pc.degenerate
        assert pc.lambdas == {Fraction(1): 3, Fraction(1, 2): 3}
    reports = [verify_der_decomposition(alg, assoc_truncated_poly(3))
               for alg in (catalog, changed)]
    for r in reports:
        assert r["equal"] and r["types"]["ii"] == 11
    assert reports[0]["lambda"]["ii"] == reports[1]["lambda"]["ii"]


def test_sl3_pencil_has_no_antiderivation_root():
    pc = lambda_candidates(lie_sl(3), "lie_both")
    got = {str(lam): pc.solution_at(lam).dim for lam in pc.lambdas}
    assert got == {"1": 8, "1/2": 1}


def _pencil_blocks(alg, kind):
    rows = ids.pencil_rows(alg, ids.PENCILS[kind])
    return rows, _blocks(rows, alg.dim ** 2)


# (blocks, columns of the largest block) of both pencil kinds
BLOCK_SHAPES = {"sl3": (19, 10), "sl4": (55, 21), "sum:sl2+sl2": (28, 3),
                "tpoly1:4": (7, 4)}


@pytest.mark.parametrize("desc", sorted(BLOCK_SHAPES))
def test_pencil_blocks_partition_the_columns(desc):
    assoc = desc.startswith("tpoly")
    alg = build_assoc(desc) if assoc else build_lie(desc)
    for kind in (("assoc_left", "assoc_both") if assoc
                 else ("lie_both", "lie_left")):
        rows, blocks = _pencil_blocks(alg, kind)
        assert (len(blocks), max(len(cols) for cols, _ in blocks)) == BLOCK_SHAPES[desc]
        owner = {}
        for b, (cols, _) in enumerate(blocks):
            for col in cols:
                assert col not in owner
                owner[col] = b
        assert sorted(owner) == list(range(alg.dim ** 2))
        placed = 0
        for b, (_, block_rows) in enumerate(blocks):
            for row in block_rows:
                assert {owner[col] for part in row for col in part} == {b}
            placed += len(block_rows)
        assert placed == sum(1 for row in rows if any(row))


@pytest.mark.parametrize("alg, kind", [(lie_sl2(), "lie_both"),
                                       (build_assoc("tpoly1:4"), "assoc_both")])
def test_roots_are_searched_on_the_product_of_the_block_gcds(monkeypatch, alg, kind):
    searched = []

    def recording(poly, p, confirm, rng):
        searched.append(poly)
        return rational_roots(poly, p, confirm, rng)

    monkeypatch.setattr(derivations, "_pencil_cache", {})
    monkeypatch.setattr(derivations, "rational_roots", recording)
    lambda_candidates(alg, kind)
    # the same projections, their determinants and gcds taken by sympy
    x = sympy.Symbol("x")
    blocks, _ = _projections(ids.pencil_rows(alg, ids.PENCILS[kind]), alg.dim ** 2)
    product = sympy.Poly(1, x, domain="QQ")
    for projections in blocks:
        block_gcd = sympy.Poly(0, x, domain="QQ")
        for cmat, lmat in projections:
            pencil = (sympy.Matrix(cmat) + x * sympy.Matrix(lmat)).to_DM()
            block_gcd = block_gcd.gcd(sympy.Poly(pencil.domain.to_sympy(pencil.det()), x))
        product *= block_gcd.monic()
    p = PRIMES[0]
    expected = [int(sympy.numer(c)) * pow(int(sympy.denom(c)), -1, p) % p
                for c in reversed(product.all_coeffs())]
    assert searched == [expected]
    assert product.degree() >= 3


def test_projections_are_the_recorded_draws():
    # the search draws from fixed seeds, so its projections are a function
    # of the pencil rows alone: these are the draws of seeds 3, 10 and 17
    # that every golden pencil was found with
    digest = hashlib.sha256()
    for alg, kind in ((lie_sl2(), "lie_both"), (build_lie("sum:sl2+sl2"), "lie_left"),
                      (build_assoc("tpoly1:4"), "assoc_both")):
        rows = ids.pencil_rows(alg, ids.PENCILS[kind])
        digest.update(repr(_projections(rows, alg.dim ** 2)).encode())
    assert digest.hexdigest()[:16] == "ec565979391351f3"


def test_the_pencil_search_takes_no_seed():
    for fn in (lambda_candidates, _projections, verify_der_decomposition):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__


def test_a_block_whose_projections_all_vanish_stops_the_search(monkeypatch):
    # the documented failure mode: the product of the block gcds is zero,
    # so no root is searched and only the forced values are solved
    def first_block_lost(rows, n2):
        blocks, scale = _projections(rows, n2)
        k = len(blocks[0][0][0])
        zero = [[0] * k for _ in range(k)]
        return [[(zero, zero)] * 3] + blocks[1:], scale

    monkeypatch.setattr(derivations, "_pencil_cache", {})
    monkeypatch.setattr(derivations, "_projections", first_block_lost)
    pc = lambda_candidates(lie_sl2(), "lie_both")
    assert pc.lambdas == {Fraction(1): 3, Fraction(1, 2): 1}
    assert not pc.degenerate and pc.residual_degree == 0


def test_a_dense_basis_is_one_block():
    dense = rebased(lie_sl2(), [[1, 1, 1], [1, 2, 3], [1, 3, 6]])
    for kind in ("lie_both", "lie_left"):
        _, blocks = _pencil_blocks(dense, kind)
        assert [len(cols) for cols, _ in blocks] == [9]
    assert lambda_candidates(dense, "lie_both").lambdas == SL2_LIE_BOTH


def test_sl3_in_a_dense_basis_is_one_block_within_budget():
    # the Pascal basis y_a = sum_i C(a + i, i) x_i joins every column, so
    # the pencil is one block of 64, and its exact kernels are tall and
    # dense (224 rows each)
    dense = rebased(lie_sl(3), [[comb(a + i, i) for i in range(8)] for a in range(8)])
    _, blocks = _pencil_blocks(dense, "lie_both")
    assert [len(cols) for cols, _ in blocks] == [64]
    start = time.perf_counter()
    pc = lambda_candidates(dense, "lie_both")
    elapsed = time.perf_counter() - start
    assert pc.lambdas == {Fraction(1): 8, Fraction(1, 2): 1}
    assert not pc.degenerate and pc.residual_degree == 0
    assert elapsed < 4, "dense sl3 pencil over budget: %.1fs" % elapsed


def test_sl4_pencil_gives_the_derivations_and_the_scalars():
    # Filippov: a nonzero delta-derivation of a simple Lie algebra of
    # characteristic 0 has delta = 1 (a derivation, here 15 = dim sl4) or
    # delta = 1/2 (a scalar multiple of the identity)
    pc = lambda_candidates(lie_sl(4), "lie_both")
    assert pc.lambdas == {Fraction(1): 15, Fraction(1, 2): 1}
    assert not pc.degenerate and pc.residual_degree == 0


def test_planted_wrong_hessenberg_step_raises_under_optimize(run_optimized):
    # a Hessenberg reduction that skips the column update of the
    # similarity, or that does nothing, gives a wrong block polynomial,
    # which the check against a direct determinant must catch
    code = (
        "from currentalg import derivations, modp\n"
        "from currentalg.algebras import lie_sl\n"
        "from currentalg.identities import InvariantError\n"
        "def rows_only(a, p):\n"
        "    a = [list(r) for r in a]\n"
        "    for m in range(1, len(a) - 1):\n"
        "        piv = a[m]\n"
        "        if piv[m - 1]:\n"
        "            inv = pow(piv[m - 1], -1, p)\n"
        "            for i in range(m + 1, len(a)):\n"
        "                u = a[i][m - 1] * inv % p\n"
        "                a[i] = [(x - u * y) % p for x, y in zip(a[i], piv)]\n"
        "    return a\n"
        "for wrong in (rows_only, lambda a, p: a):\n"
        "    modp._hessenberg = wrong\n"
        "    derivations._pencil_cache.clear()\n"
        "    try:\n"
        "        derivations.lambda_candidates(lie_sl(3), 'lie_both')\n"
        "    except InvariantError as exc:\n"
        "        if str(exc) != ('block determinant polynomial disagrees '\n"
        "                        'with its determinant at the probe'):\n"
        "            raise SystemExit(3)\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
        "raise SystemExit(7)\n"
    )
    run_optimized(code)


def test_degenerate_assoc_pencil():
    # beta(ab) = mu beta(a) b on tK[t]/(t^3) has a 2-dim solution space for
    # every mu, so root enumeration is meaningless and the flag must say so.
    pc = lambda_candidates(assoc_truncated_poly(3), "assoc_left")
    assert pc.degenerate
    assert pc.solution_at(Fraction(1)).dim == 2
    assert pc.solution_at(Fraction(5, 3)).dim == 2


def test_pencil_results_are_memoized():
    a = lambda_candidates(lie_sl2(), "lie_both")
    b = lambda_candidates(lie_sl2(), "lie_both")
    assert a is b


DER_FROZEN = {
    ("sl2", "tpoly:2"): (9, 0),
    ("sl2", "tpoly:3"): (18, 3),
    ("sl2", "tpoly:4"): (22, 6),
}


def test_verify_der_frozen_cases():
    for (ln, an), (der_dim, inner_dim) in DER_FROZEN.items():
        r = verify_der_decomposition(ln, an)
        assert r["theorem"] == "der"
        assert r["equal"], (ln, an)
        assert r["der_dim"] == r["span_dim"] == der_dim
        assert r["types"]["inner"] == inner_dim
        assert "witness" not in r
        fam_i = r["lambda"]["i"]
        assert set(fam_i["values"]) >= {"1"}


def test_the_verdict_builds_one_current_algebra_and_seeks_witnesses_on_failure(
        monkeypatch):
    built, sought = [], []

    def counted(L, A):
        built.append((L, A))
        return current(L, A)

    def spy(witness):
        def wrapped(*args):
            sought.append(witness.__name__)
            return witness(*args)
        return wrapped

    monkeypatch.setattr(derivations, "current", counted)
    for name in ("_generator_witness", "_residual_witness"):
        monkeypatch.setattr(derivations, name, spy(getattr(derivations, name)))
    assert verify_der_decomposition("sl2", "tpoly:3")["equal"]
    assert (len(built), sought) == (1, [])
    # without type vii the span misses two derivations: every generator is
    # one, so the residual witness follows the generator scan
    built.clear()
    monkeypatch.setattr(derivations, "DER_TYPE_TABLE", tuple(
        t for t in derivations.DER_TYPE_TABLE if t[0] != "vii"))
    r = verify_der_decomposition("heis3", "tpoly:3")
    assert not r["equal"] and r["witness"]["direction"] == "derivation_outside_span"
    assert (len(built), sought) == (1, ["_generator_witness", "_residual_witness"])


def test_verify_der_report_lambda_block():
    r = verify_der_decomposition("sl2", "tpoly:3")
    assert r["lambda"]["i"]["values"]["-1"] == [5, 2]
    assert r["lambda"]["ii"]["values"]["1"] == [1, 2]
    assert r["lambda"]["i"]["residual_degree"] == 0


def test_sequence_dual_and_form_modes_agree_on_sl2():
    dual = sequence_maps("sl2")
    form = sequence_maps(lie_sl2(), form=killing_form(lie_sl2()))
    for r in (dual, form):
        assert r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
        assert r["v_after_u_zero"] and r["w_after_v_in_B3"]
        assert r["exact_at_H1"] and r["exact_at_B"] and r["u_injective"]
        assert r["verdict"]
    assert dual["mode"] == "dual" and form["mode"] == "form"


def test_sequence_rejects_unusable_forms():
    with pytest.raises(ValueError, match="symmetric"):
        sequence_maps("sl2", form=BilinearForm([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="^transport needs a nondegenerate form$"):
        sequence_maps("sl2", form=BilinearForm([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    # symmetric and nondegenerate, but not invariant: an input fault, not a
    # failed check of u
    for matrix in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [[0, 0, 1], [0, 3, 0], [1, 0, 0]]):
        with pytest.raises(ValueError, match="^transport needs an invariant form$"):
            sequence_maps("sl2", form=BilinearForm(matrix))
    # a form on a space of another dimension than L
    for n in (2, 4):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError, match="does not match dim L = 3"):
            sequence_maps("sl2", form=BilinearForm(identity))
    # the Killing form is passed as a form, not by name
    with pytest.raises(ValueError, match="'dual' or a BilinearForm"):
        sequence_maps("sl2", form="killing")


def test_a_transported_form_is_eliminated_once(monkeypatch):
    # the inverse of the form is the one elimination of its matrix; its
    # failure is the nondegeneracy check
    def refused(self):
        raise AssertionError("is_nondegenerate eliminates the form a second time")

    monkeypatch.setattr(BilinearForm, "is_nondegenerate", refused)
    assert sequence_maps("sl3", form=killing_form(lie_sl(3)))["verdict"]
    with pytest.raises(ValueError, match="^transport needs a nondegenerate form$"):
        sequence_maps("heis3", form=killing_form(lie_heisenberg3()))


def test_sequence_rejects_float_forms_and_its_exact_twin_passes():
    # half the Killing form of sl2, once in floats and once exactly
    with pytest.raises(TypeError):
        sequence_maps("sl2", form=BilinearForm([[0, 0, -1.0], [0, 1.0, 0], [-1.0, 0, 0]]))
    with pytest.raises(TypeError):
        sequence_maps("sl2", form=BilinearForm([[0, 0, -0.5], [0, 0.5, 0], [-0.5, 0, 0]]))
    half = Fraction(1, 2)
    r = sequence_maps("sl2", form=BilinearForm([[0, 0, -half], [0, half, 0], [-half, 0, 0]]))
    assert r["mode"] == "form" and r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
    assert r["verdict"]


def test_sequence_sl3():
    r = sequence_maps("sl3")
    assert r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
    assert r["verdict"]


def test_sequence_with_product_form_on_current_algebra():
    L = current(lie_sl2(), assoc_truncated_poly(3))
    pf = product_form(killing_form(lie_sl2()), residue_form(assoc_truncated_poly(3)), L)
    r = sequence_maps(L, form=pf)
    assert r["dims"] == {"H2": 8, "H1": 15, "B": 7, "H3": 12}
    assert r["verdict"]


def test_loop_derivation_identity_and_values():
    ld = sl2_loop_derivation(4)
    assert ld.derivation_defect() is None
    c, m = ld.algebra, ld.matrix
    n = c.dim

    def image(lbl_idx, deg_idx):
        col = c.flat(lbl_idx, deg_idx)
        return {c.labels[r]: m[r][col] for r in range(n) if m[r][col]}

    assert image(1, 0) == {"h*t": 1}
    assert image(2, 0) == {"e+*t": 1, "e+*t^2": 1}
    assert image(0, 0) == {"e-*t": 1, "e-*t^2": -1}
    assert image(1, 1) == {"h*t^2": 2}


def test_loop_derivation_is_not_decomposable():
    ld = sl2_loop_derivation(6)
    assert ld.derivation_defect() is None
    witness = ld.nondecomposability_witness()
    assert witness is not None
    (r1, r2), (c1, c2), minor = witness
    assert minor != 0
    # recompute the minor from the flattening to confirm the witness
    f = ld.flattening()
    assert f[r1][c1] * f[r2][c2] - f[r1][c2] * f[r2][c1] == minor


def test_a_decomposable_map_has_no_witness():
    # the identity of sl2 tensor tK[t]/(t^3) is id tensor id: its flattening
    # has rank 1, so no 2x2 minor is nonzero
    curr = current(lie_sl2(), assoc_truncated_poly(3))
    identity = tuple(tuple(Fraction(int(r == c)) for c in range(curr.dim))
                     for r in range(curr.dim))
    assert LoopDerivation(curr, identity).nondecomposability_witness() is None


def test_loop_derivation_needs_depth():
    with pytest.raises(ValueError):
        sl2_loop_derivation(2)
