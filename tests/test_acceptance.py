"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line
(bypassing capture so the line shows up in a plain pytest run), and
enforces the runtime budget.  All arithmetic is exact, so every
dimension comparison below is an equality, not a tolerance check.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from currentalg.algebras import (
    AssocAlgebra,
    LieAlgebra,
    ValidationError,
    assoc_truncated_poly,
    current,
    killing_form,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
    product_form,
    residue_form,
)
from currentalg.cochain import cohomology, trivial_module
from currentalg.derivations import (
    antiderivation_space,
    sequence_maps,
    sl2_loop_derivation,
    verify_der_decomposition,
)
from currentalg.forms import (
    condition_space,
    verify_forms_decomposition,
    verify_h2_decomposition,
)
from currentalg.graded import graded_form_dims, graded_h2, larsson_report


# canonical JSON of every report of criteria 1-3, as `--json` prints it
GOLDEN = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text())


def _matches_golden(kind, ln, an, report):
    line = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return line == GOLDEN["%s %s %s" % (kind, ln, an)]


def _report(capsys, num, desc, ok, elapsed, budget):
    with capsys.disabled():
        print("criterion %2d  %-44s %s  (%.1fs, budget %ds)"
              % (num, desc, "PASS" if ok else "FAIL", elapsed, budget))
    assert ok, "criterion %d failed" % num
    assert elapsed < budget, "criterion %d over budget: %.1fs" % (num, elapsed)


# catalog descriptors, which name themselves in every report
GRID_L = ("sl2", "sl3", "heis3", "abelian:4")
GRID_A = ("tpoly:2", "tpoly:3", "tpoly:4", "tpoly1:3", "zero:2")


def test_criterion_01_cocycle_decomposition_grid(capsys):
    t0 = time.time()
    ok = True
    for ln in GRID_L:
        for an in GRID_A:
            r = verify_h2_decomposition(ln, an)
            pair_ok = (r["span_in_Z"] and r["Z_in_span"]
                       and r["dims"]["Z2"] == r["dims"]["span"]
                       and _matches_golden("h2", ln, an, r))
            assert pair_ok, (ln, an, r)
            ok = ok and pair_ok
    _report(capsys, 1, "2-cocycles match decomposable span (4x5 grid)",
            ok, time.time() - t0, 60)


def test_criterion_02_invariant_form_decomposition_grid(capsys):
    t0 = time.time()
    ok = True
    for ln in GRID_L:
        for an in GRID_A:
            r = verify_forms_decomposition(ln, an)
            pair_ok = (r["span_in_Z"] and r["Z_in_span"]
                       and r["dims"]["Z2"] == r["dims"]["span"]
                       and _matches_golden("forms", ln, an, r))
            assert pair_ok, (ln, an, r)
            ok = ok and pair_ok
    _report(capsys, 2, "invariant forms match decomposable span",
            ok, time.time() - t0, 60)


# (der_dim, inner) per pair; span must agree with der exactly
DER_EXPECTED = {
    ("sl2", 2): (9, 0), ("sl2", 3): (18, 3), ("sl2", 4): (22, 6),
    ("sl3", 2): (64, 0), ("sl3", 3): (73, 8), ("sl3", 4): (82, 16),
}


def test_criterion_03_derivation_decomposition(capsys):
    t0 = time.time()
    ok = True
    for ln in ("sl2", "sl3"):
        for N in (2, 3, 4):
            r = verify_der_decomposition(ln, "tpoly:%d" % N)
            der, inner = DER_EXPECTED[(ln, N)]
            pair_ok = (r["equal"] and r["der_dim"] == der
                       and r["span_dim"] == der and r["types"]["inner"] == inner
                       and _matches_golden("der", ln, "tpoly:%d" % N, r))
            assert pair_ok, (ln, N, r)
            ok = ok and pair_ok
    _report(capsys, 3, "derivations of L(x)tpoly match inner + span",
            ok, time.time() - t0, 300)


def test_derivation_decomposition_on_sl4():
    # beyond the criterion 3 grid: 225 pencil unknowns, in 55 blocks
    t0 = time.time()
    r = verify_der_decomposition("sl4", "tpoly:3")
    elapsed = time.time() - t0
    assert r["equal"] and r["der_dim"] == r["span_dim"] == 241, r
    assert r["types"]["inner"] == 15
    assert _matches_golden("der", "sl4", "tpoly:3", r)
    assert elapsed < 30, "der sl4 tpoly:3 over budget: %.1fs" % elapsed


LARSSON_EXPECTED = [
    ("sl2", 6, [0, 5, 0, 0, 0]),
    ("sl3", 6, [20, 0, 0, 0, 0]),
    ("sum:sl2+sl3", 5, [44, 5, 0, 0]),
]


def test_criterion_04_graded_h2_of_periodization(capsys):
    t0 = time.time()
    ok = True
    for name, mx, hs in LARSSON_EXPECTED:
        r = larsson_report(name, mx)
        got = [r["degrees"][str(d)]["H"] for d in range(2, mx + 1)]
        case_ok = (got == hs and r["g"] == name and r["verdict"]
                   and r["quadratic_presentation"])
        assert case_ok, (name, r)
        ok = ok and case_ok

    # degree-3 sl2 cocycles obey psi(e-, e+) = psi(h, h)/2 on the
    # symmetrized (t, t^2) block; recheck directly on the kernel basis
    comp = graded_h2(lie_sl2(), 3)
    rank = {pair: r for r, pair in enumerate(comp.domain)}
    half = Fraction(1, 2)
    for z in comp.z_space.basis:
        def sym(i, j):
            return (z[rank[(i, 3 + j)]] + z[rank[(j, 3 + i)]]) * half
        rel = sym(0, 2) == sym(1, 1) * half
        assert rel, z
        ok = ok and rel
    _report(capsys, 4, "graded H2 profile of g(x)tK[t] + degree-3 relation",
            ok, time.time() - t0, 120)


def test_criterion_05_skew_form_components_on_tpoly(capsys):
    t0 = time.time()
    ok = True
    for d in range(2, 9):
        sz = graded_form_dims("jacobi_sum_zero", "skew", d)
        cy = graded_form_dims("cyclic", "skew", d)
        case_ok = sz == 0 and cy == (1 if d == 3 else 0)
        assert case_ok, (d, sz, cy)
        ok = ok and case_ok
    _report(capsys, 5, "skew sum-zero/cyclic components on tK[t]",
            ok, time.time() - t0, 10)


def test_criterion_06_form_and_antiderivation_lemmas(capsys):
    t0 = time.time()
    checks = (
        antiderivation_space(lie_sl(3)).dim == 0,
        condition_space(lie_sl2(), "jacobi_sum_zero", "symmetric").dim == 5,
        condition_space(lie_sl2(), "cyclic", "skew").dim == 0,
        condition_space(lie_sl(3), "cyclic", "skew").dim == 0,
    )
    ok = all(checks)
    assert ok, checks
    _report(capsys, 6, "antiderivation and small form dimensions",
            ok, time.time() - t0, 10)


def test_criterion_07_cohomology_form_sequence(capsys):
    t0 = time.time()
    bools = ("v_after_u_zero", "w_after_v_in_B3", "exact_at_H1",
             "exact_at_B", "u_injective")

    r = sequence_maps("sl2")
    ok = (r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}
          and all(r[k] for k in bools))
    assert ok, r

    # w-bar injective for sl2: B is spanned by the Killing form, the
    # degree-3 coboundaries vanish, and w(kappa)(e-, h, e+) =
    # kappa([e-, h], e+) = kappa(e-, e+) is nonzero.
    sl2 = lie_sl2()
    b3 = cohomology(sl2, trivial_module(sl2), 3).b_space.dim
    kappa = killing_form(sl2)
    w_inj = b3 == 0 and kappa(0, 2) != 0
    assert w_inj, (b3, kappa(0, 2))
    ok = ok and w_inj

    r = sequence_maps("sl3")
    case_ok = all(r[k] for k in bools)
    assert case_ok, r
    ok = ok and case_ok

    cur = current(lie_sl2(), assoc_truncated_poly(3))
    pf = product_form(killing_form(lie_sl2()),
                      residue_form(assoc_truncated_poly(3)), cur)
    r = sequence_maps(cur, form=pf)
    case_ok = (r["mode"] == "form" and all(r[k] for k in bools)
               and r["dims"] == {"H2": 8, "H1": 15, "B": 7, "H3": 12})
    assert case_ok, r
    ok = ok and case_ok
    _report(capsys, 7, "u, v, w sequence: composites, exactness",
            ok, time.time() - t0, 30)


def test_criterion_08_loop_derivation_certificate(capsys):
    t0 = time.time()
    ld = sl2_loop_derivation(6)
    ok = ld.derivation_defect() is None
    witness = ld.nondecomposability_witness()
    ok = ok and witness is not None
    (r1, r2), (c1, c2), minor = witness
    flat = ld.flattening()
    ok = (ok and minor != 0
          and flat[r1][c1] * flat[r2][c2]
          - flat[r1][c2] * flat[r2][c1] == minor)
    assert ok, witness
    _report(capsys, 8, "loop derivation: identity + 2x2 minor",
            ok, time.time() - t0, 5)


def test_criterion_09_truncation_stability(capsys):
    t0 = time.time()
    ok = True
    for name, mx, _ in LARSSON_EXPECTED:
        for d in range(2, mx + 1):
            base = graded_h2(name, d)
            deep = graded_h2(name, d, order=d + 3)
            case_ok = ((base.z_space.dim, base.b_space.dim, base.h_dim)
                       == (deep.z_space.dim, deep.b_space.dim, deep.h_dim))
            assert case_ok, (name, d)
            ok = ok and case_ok
    for d in range(2, 9):
        for cond in ("jacobi_sum_zero", "cyclic"):
            case_ok = (graded_form_dims(cond, "skew", d, order=d + 3)
                       == graded_form_dims(cond, "skew", d))
            assert case_ok, (cond, d)
            ok = ok and case_ok
    _report(capsys, 9, "graded dims stable at truncation order d+3",
            ok, time.time() - t0, 120)


# --- criterion 10: randomized axiom-breaking perturbations ----------------
#
# The re-check below evaluates the defect straight from the perturbed
# table, independent of the library's validation pass.


def _lie_eval(table, i, j):
    if i == j:
        return {}
    if i < j:
        return {k: c for k, c in table.get((i, j), ()) if c}
    return {k: -c for k, c in table.get((j, i), ()) if c}


def _jacobi_defect(table, a, b, c):
    acc = {}
    for x, y, z in ((a, b, c), (c, a, b), (b, c, a)):
        for m, co in _lie_eval(table, x, y).items():
            for k, c2 in _lie_eval(table, m, z).items():
                acc[k] = acc.get(k, Fraction(0)) + co * c2
    return {k: v for k, v in acc.items() if v}


def _prod_eval(table, i, j):
    if i > j:
        i, j = j, i
    return {k: c for k, c in table.get((i, j), ()) if c}


def _assoc_defect(table, a, b, c):
    acc = {}
    for m, co in _prod_eval(table, a, b).items():
        for k, c2 in _prod_eval(table, m, c).items():
            acc[k] = acc.get(k, Fraction(0)) + co * c2
    for m, co in _prod_eval(table, b, c).items():
        for k, c2 in _prod_eval(table, a, m).items():
            acc[k] = acc.get(k, Fraction(0)) - co * c2
    return {k: v for k, v in acc.items() if v}


def _perturb(table, dim, rng, symmetric_keys):
    new = {k: list(v) for k, v in table.items()}
    if symmetric_keys:
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        key = (min(i, j), max(i, j))
    else:
        i, j = rng.sample(range(dim), 2)
        key = (min(i, j), max(i, j))
    k = rng.randrange(dim)
    delta = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2, 3]))
    new.setdefault(key, []).append((k, delta))
    return {key: tuple(terms) for key, terms in new.items()}


def test_criterion_10_perturbed_tables_are_rejected(capsys):
    t0 = time.time()
    rng = random.Random(20260817)
    lie_bases = [lie_sl2(), lie_sl(3), lie_heisenberg3()]
    assoc_bases = [assoc_truncated_poly(3), assoc_truncated_poly(4),
                   assoc_truncated_poly(3, unital=True)]
    emitted = n_lie = n_assoc = 0
    while emitted < 100:
        if rng.random() < 0.5:
            base = rng.choice(lie_bases)
            table = _perturb(base.table, base.dim, rng, symmetric_keys=False)
            broken = any(_jacobi_defect(table, a, b, c)
                         for a in range(base.dim)
                         for b in range(a + 1, base.dim)
                         for c in range(b + 1, base.dim))
            if not broken:
                continue  # landed back on the variety; resample
            with pytest.raises(ValidationError) as exc:
                LieAlgebra(base.labels, table)
            assert exc.value.axiom == "jacobi"
            wa, wb, wc = exc.value.witness
            assert _jacobi_defect(table, wa, wb, wc), exc.value.witness
            n_lie += 1
        else:
            base = rng.choice(assoc_bases)
            table = _perturb(base.table, base.dim, rng, symmetric_keys=True)
            broken = any(_assoc_defect(table, a, b, c)
                         for a in range(base.dim)
                         for b in range(base.dim)
                         for c in range(base.dim))
            if not broken:
                continue
            with pytest.raises(ValidationError) as exc:
                AssocAlgebra(base.labels, table)
            assert exc.value.axiom == "associativity"
            wa, wb, wc = exc.value.witness
            assert _assoc_defect(table, wa, wb, wc), exc.value.witness
            n_assoc += 1
        emitted += 1
    ok = emitted == 100 and n_lie > 0 and n_assoc > 0
    assert ok, (emitted, n_lie, n_assoc)
    _report(capsys, 10, "100 broken tables rejected with valid witness",
            ok, time.time() - t0, 10)
