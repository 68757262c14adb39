"""Derivation spaces, lambda pencils, the map sequence, the loop derivation."""

from fractions import Fraction

import pytest

from currentalg.algebras import (
    algebra_from_dict,
    assoc_truncated_poly,
    current,
    killing_form,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
    product_form,
    residue_form,
)
from currentalg.derivations import (
    antiderivation_space,
    derivation_space,
    form_to_map,
    inner_derivations,
    lambda_candidates,
    map_condition_space,
    sequence_maps,
    sl2_loop_derivation,
    verify_der_decomposition,
)
from currentalg.exactlin import Matrix, Subspace, inverse
from currentalg.forms import condition_space
from currentalg.modp import PRIMES


def rebased(alg, new_basis):
    """alg in the basis y_a = sum_i new_basis[a][i] x_i, read back through
    algebra_from_dict."""
    n = alg.dim
    cols = [[Fraction(c) for c in y] for y in new_basis]
    to_new = inverse(Matrix([[cols[a][i] for a in range(n)] for i in range(n)]))
    table = []
    for a in range(n):
        for b in range(a + 1, n):
            coords = to_new.apply(alg.bracket_vectors(cols[a], cols[b]))
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
        assert der.space == inner


def test_heisenberg_has_outer_derivations():
    h = lie_heisenberg3()
    assert derivation_space(h).dim == 6
    assert inner_derivations(h).dim == 2
    assert derivation_space(h).space.contains(inner_derivations(h))


def test_antiderivation_dims():
    # D[x,y] = -[Dx,y] - [x,Dy]; 5-dimensional on sl2, zero on sl3.
    assert antiderivation_space(lie_sl2()).dim == 5
    assert antiderivation_space(lie_sl(3)).dim == 0


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
        kappa = killing_form(g)

        def transport(space):
            vecs = []
            for b in space.basis:
                m = form_to_map(kappa, Matrix([b[i * n:(i + 1) * n] for i in range(n)]))
                vecs.append([m[(i, j)] for i in range(n) for j in range(n)])
            return Subspace.from_vectors(n * n, vecs)

        sym = condition_space(g, "jacobi_sum_zero", "symmetric").space
        skew = condition_space(g, "jacobi_sum_zero", "skew").space
        assert transport(sym) == antiderivation_space(g).space
        assert transport(skew) == derivation_space(g).space


def test_sl2_pencil_roots():
    pc = lambda_candidates(lie_sl2(), "lie_both", 0)
    got = {str(lam): pc.solution_at(lam).dim for lam in pc.lambdas}
    assert got == {"-1": 5, "1": 3, "1/2": 1}
    assert not pc.degenerate and pc.residual_degree == 0
    # lambda = 1 is the ordinary derivation pencil value.
    assert pc.solution_at(Fraction(1)) == derivation_space(lie_sl2()).space
    assert pc.solution_at(Fraction(-1)) == antiderivation_space(lie_sl2()).space
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
    assert lambda_candidates(lie_sl2(), "lie_both", 0).primes == PRIMES[:2]
    pc = lambda_candidates(rebased(lie_sl2(), new_basis), "lie_both", 0)
    assert pc.primes == primes
    assert pc.lambdas == SL2_LIE_BOTH
    assert not pc.degenerate and pc.residual_degree == 0


def test_pencil_search_needs_two_usable_primes():
    denominator = 1
    for q in PRIMES[:-1]:
        denominator *= q
    scaled = rebased(lie_sl2(), [[Fraction(1, denominator), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ArithmeticError):
        lambda_candidates(scaled, "lie_both", 0)


def test_lie_left_pencil_is_basis_independent():
    # [D x, x] = lam^-1 D [x, x] = 0 is part of the identity, so the type ii
    # family of heis3 (D(L) central with D([L, L]) = 0 at lam = 1 and 1/2)
    # does not depend on the basis
    unimodular = [[1, 1, 0], [0, 1, 0], [1, 2, 1]]
    catalog, changed = lie_heisenberg3(), rebased(lie_heisenberg3(), unimodular)
    for alg in (catalog, changed):
        pc = lambda_candidates(alg, "lie_left", 0)
        assert pc.degenerate
        assert pc.lambdas == {Fraction(1): 3, Fraction(1, 2): 3}
    reports = [verify_der_decomposition(alg, assoc_truncated_poly(3))
               for alg in (catalog, changed)]
    for r in reports:
        assert r["equal"] and r["types"]["ii"] == 11
    assert reports[0]["lambda"]["ii"] == reports[1]["lambda"]["ii"]


def test_sl3_pencil_has_no_antiderivation_root():
    pc = lambda_candidates(lie_sl(3), "lie_both", 0)
    got = {str(lam): pc.solution_at(lam).dim for lam in pc.lambdas}
    assert got == {"1": 8, "1/2": 1}


def test_degenerate_assoc_pencil():
    # beta(ab) = mu beta(a) b on tK[t]/(t^3) has a 2-dim solution space for
    # every mu, so root enumeration is meaningless and the flag must say so.
    pc = lambda_candidates(assoc_truncated_poly(3), "assoc_left", 0)
    assert pc.degenerate
    assert pc.solution_at(Fraction(1)).dim == 2
    assert pc.solution_at(Fraction(5, 3)).dim == 2


def test_pencil_results_are_memoized():
    a = lambda_candidates(lie_sl2(), "lie_both", 0)
    b = lambda_candidates(lie_sl2(), "lie_both", 0)
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


def test_verify_der_report_lambda_block():
    r = verify_der_decomposition("sl2", "tpoly:3")
    assert r["lambda"]["i"]["values"]["-1"] == [5, 2]
    assert r["lambda"]["ii"]["values"]["1"] == [1, 2]
    assert r["lambda"]["i"]["residual_degree"] == 0


def test_sequence_dual_and_form_modes_agree_on_sl2():
    dual = sequence_maps("sl2")
    form = sequence_maps(lie_sl2(), form=killing_form(lie_sl2()), lname="sl2")
    for r in (dual, form):
        assert r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
        assert r["v_after_u_zero"] and r["w_after_v_in_B3"]
        assert r["exact_at_H1"] and r["exact_at_B"] and r["u_injective"]
        assert r["verdict"]
    assert dual["mode"] == "dual" and form["mode"] == "form"


def test_sequence_sl3():
    r = sequence_maps("sl3")
    assert r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
    assert r["verdict"]


def test_sequence_with_product_form_on_current_algebra():
    L = current(lie_sl2(), assoc_truncated_poly(3))
    pf = product_form(killing_form(lie_sl2()), residue_form(assoc_truncated_poly(3)), L)
    r = sequence_maps(L, form=pf, lname="sl2*tpoly:3")
    assert r["dims"] == {"H2": 8, "H1": 15, "B": 7, "H3": 12}
    assert r["verdict"]


def test_loop_derivation_identity_and_values():
    ld = sl2_loop_derivation(4)
    assert ld.derivation_defect() is None
    c, m = ld.algebra, ld.matrix
    n = c.dim

    def image(lbl_idx, deg_idx):
        col = c.flat(lbl_idx, deg_idx)
        return {c.labels[r]: m[(r, col)] for r in range(n) if m[(r, col)]}

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
    assert f[(r1, c1)] * f[(r2, c2)] - f[(r1, c2)] * f[(r2, c1)] == minor


def test_loop_derivation_needs_depth():
    with pytest.raises(ValueError):
        sl2_loop_derivation(2)
