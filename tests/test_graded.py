"""Graded cohomology of periodizations g tensor tK[t] and form-slice dims."""

import pytest

from currentalg.algebras import (
    lie_abelian,
    lie_direct_sum,
    lie_heisenberg3,
    lie_sl,
    lie_sl2,
)
from currentalg import exactlin, graded
from currentalg.cli import main
from currentalg.cochain import CochainSpaceResult
from currentalg.exactlin import Subspace
from currentalg.graded import (
    graded_form_dims,
    graded_h2,
    graded_vs_whole,
    larsson_report,
)


def test_sl2_low_degree_components():
    c2 = graded_h2(lie_sl2(), 2)
    assert (c2.z_space.dim, c2.b_space.dim, c2.h_dim) == (3, 3, 0)
    c3 = graded_h2(lie_sl2(), 3)
    assert (c3.z_space.dim, c3.b_space.dim, c3.h_dim) == (8, 3, 5)
    assert c3.z_space.contains(c3.b_space)


def test_component_dims_stable_under_deeper_truncation():
    # Degree-d cocycles only see brackets up to degree d-1, so any order
    # >= d+1 gives the same numbers.
    for d in (2, 3, 4):
        base = graded_h2(lie_sl2(), d)
        deeper = graded_h2(lie_sl2(), d, order=d + 3)
        assert (base.z_space.dim, base.b_space.dim) == \
            (deeper.z_space.dim, deeper.b_space.dim)


def test_larsson_profile_sl2():
    r = larsson_report("sl2", 6)
    assert r["g"] == "sl2"
    hs = [r["degrees"][str(d)]["H"] for d in range(2, 7)]
    assert hs == [0, 5, 0, 0, 0]
    assert r["expected"] == {str(d): h for d, h in zip(range(2, 7), [0, 5, 0, 0, 0])}
    assert r["verdict"] and r["quadratic_presentation"]


def test_larsson_profile_sl3():
    r = larsson_report(lie_sl(3), 4)
    hs = [r["degrees"][str(d)]["H"] for d in range(2, 5)]
    assert hs == [20, 0, 0]
    assert r["verdict"] and r["quadratic_presentation"]


def test_larsson_profile_direct_sum():
    g = lie_direct_sum([lie_sl2(), lie_sl(3)])
    r = larsson_report(g, 3)
    assert r["degrees"]["2"]["H"] == 44
    assert r["degrees"]["3"]["H"] == 5
    assert r["verdict"] and r["quadratic_presentation"]


def test_larsson_solves_only_its_slices(monkeypatch):
    # the profile is closed-form, so no cohomology of g is solved, and the
    # presentation is one sum and one count: no containment, no meet (a
    # meet is a preimage)
    calls, presenting = [], []

    def spy(name, fn):
        def wrapped(*args):
            if name == "cohomology" or presenting:
                calls.append(name)
            return fn(*args)
        return wrapped

    def presentation(*args):
        presenting.append(True)
        try:
            return real(*args)
        finally:
            presenting.pop()

    real = graded._quadratic_presentation
    monkeypatch.setattr(graded, "_quadratic_presentation", presentation)
    monkeypatch.setattr(graded, "cohomology", spy("cohomology", graded.cohomology))
    monkeypatch.setattr(Subspace, "contains", spy("contains", Subspace.contains))
    monkeypatch.setattr(exactlin, "preimage", spy("preimage", exactlin.preimage))
    for g, max_degree in (("sl2", 4), ("sum:sl2+sl3", 3), ("sum:sl2+sl2", 3)):
        r = larsson_report(g, max_degree)
        assert r["verdict"] and r["quadratic_presentation"]
    assert calls == []


def _short_sum_zero_forms(monkeypatch):
    # S one form short: S + B misses a cocycle class
    real = graded.condition_space

    def short(g, condition, symmetry):
        space = real(g, condition, symmetry)
        return Subspace(space.ambient_dim, dict(list(space.rows.items())[1:]))

    monkeypatch.setattr(graded, "condition_space", short)


def _shifted_sl2_offsets(monkeypatch):
    # the relation read on (h.0, e+.0, e21.1) in place of (e-.0, h.0, e+.0)
    real = graded._sl2_offsets
    monkeypatch.setattr(graded, "_sl2_offsets",
                        lambda g: [off + 1 for off in real(g)])


@pytest.mark.parametrize("plant", [_short_sum_zero_forms, _shifted_sl2_offsets])
def test_a_planted_presentation_failure_fails_larsson(plant, monkeypatch, capsys):
    g = "sum:sl2+sl3"
    assert larsson_report(g, 3)["quadratic_presentation"]
    plant(monkeypatch)
    r = larsson_report(g, 3)
    assert r["verdict"] and not r["quadratic_presentation"]
    capsys.readouterr()
    assert main(["larsson", "--g", g, "--max-degree", "3"]) == 1
    out = capsys.readouterr().out
    assert "quadratic presentation: False" in out and out.endswith("verdict: FAIL\n")


def test_a_component_is_a_cochain_result_on_its_pairs():
    # the increasing flat pairs of weight 3 in sl2 tensor tK[t]/(t^4), whose
    # flat indices 0-2 carry t and 3-5 carry t^2
    comp = graded_h2(lie_sl2(), 3)
    assert type(comp) is CochainSpaceResult
    assert comp.domain == [(u, v) for u in range(3) for v in range(3, 6)]
    assert comp.degree == 2
    assert repr(comp) == "CochainSpaceResult(degree=2, Z=8, B=3, H=5)"


def test_a_report_names_a_descriptor_by_itself_and_an_object_by_its_dim():
    assert larsson_report("sum:sl2+sl3", 3)["g"] == "sum:sl2+sl3"
    assert larsson_report(lie_sl2(), 3)["g"] == "lie(dim 3)"
    assert (larsson_report(lie_direct_sum([lie_sl2(), lie_sl(3)]), 3)["g"]
            == "lie(dim 11)")


def test_a_truncation_below_the_exact_window_is_refused():
    # order 3 gives Z=8, B=0, H=8 for the degree-3 slice of sl2, which is
    # H=5 at every order from 4 on
    assert graded_h2(lie_sl2(), 3, order=4).h_dim == 5
    with pytest.raises(ValueError, match="degree-3 slice needs order at least 4"):
        graded_h2(lie_sl2(), 3, order=3)
    with pytest.raises(ValueError, match="degree-2 slice needs order at least 3"):
        graded_h2(lie_sl2(), 2, order=2)
    # a degree-d form pairs exponents below d, so order d is exact; below it
    # the dims came out 0 (2 and 1 from order d on)
    assert [graded_form_dims("cyclic", "any", 4, order=k) for k in (4, 5, 6)] == [2] * 3
    assert graded_form_dims("jacobi_sum_zero", "any", 3, order=3) == 1
    for args in (("cyclic", "any", 4, 3), ("jacobi_sum_zero", "any", 3, 2)):
        with pytest.raises(ValueError, match="degree-%d form needs order at least %d, not %d"
                           % (args[2], args[2], args[3])):
            graded_form_dims(*args)


def test_larsson_is_gated_to_sl_sums():
    with pytest.raises(ValueError):
        larsson_report(lie_heisenberg3(), 3)
    with pytest.raises(ValueError):
        larsson_report(lie_abelian(2), 3)


def test_graded_form_dims_profile():
    # Skew sum-zero slices vanish in every degree; skew cyclic forms exist
    # in degree 3 only.
    for d in range(2, 9):
        assert graded_form_dims("jacobi_sum_zero", "skew", d) == 0
    assert graded_form_dims("cyclic", "skew", 3) == 1
    for d in range(4, 9):
        assert graded_form_dims("cyclic", "skew", d) == 0
    # and the dims are truncation-stable
    assert graded_form_dims("cyclic", "skew", 3, order=8) == 1


def test_graded_sum_matches_whole_truncated_algebra():
    r = graded_vs_whole(lie_sl2(), 4)
    assert r["match"]
    assert r["whole"] == {"Z": 14, "B": 6, "H": 8}
    assert r["graded_sum"] == r["whole"]
    # works beyond the sl catalog: grading is intrinsic to the periodization
    r2 = graded_vs_whole(lie_heisenberg3(), 3)
    assert r2["match"]
    assert r2["whole"] == {"Z": 12, "B": 1, "H": 11}
