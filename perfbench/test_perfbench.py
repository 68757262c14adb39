"""Tests of the benchmark's own code: span arithmetic, the dense-table
generator, the known-answer gate and the span wrappers.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import gentables  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, catalog_id, verdict_id  # noqa: E402


# --- self-time arithmetic ---------------------------------------------------

def _tree():
    # verdict [0, 100): a [10, 60) holding b [20, 30) and b [35, 50) which
    # holds a [40, 45); attrs [60, 62); c [70, 90)
    return [
        ["verdict", 0, 100, -1, "v"],
        ["a", 10, 60, 0, "v"],
        ["b", 20, 30, 1, "v"],
        ["b", 35, 50, 1, "v"],
        ["a", 40, 45, 3, "v"],
        [spans.ATTRS, 60, 62, 0, "v"],
        ["c", 70, 90, 0, "v"],
    ]


def test_self_time_is_duration_minus_direct_children():
    assert spans.self_times(_tree()) == [100 - 50 - 2 - 20, 50 - 10 - 15, 10, 15 - 5, 5, 2, 20]


def test_self_times_add_up_to_the_root():
    tree = _tree()
    assert spans.root_balance(tree, spans.self_times(tree)) == {"v": (100, 100)}


def test_a_span_outside_its_root_unbalances_the_verdict():
    tree = _tree() + [["d", 120, 130, -1, "v"]]
    total, root = spans.root_balance(tree, spans.self_times(tree))["v"]
    assert total == 110 and root == 100


@pytest.mark.parametrize("bad", [
    ["x", 95, 105, 0, "v"],      # leaves its parent
    ["x", 25, 28, 0, "v"],       # starts inside the earlier sibling a [10, 60)
    ["x", 98, 97, 0, "v"],       # ends before it starts
])
def test_badly_nested_spans_are_rejected(bad):
    with pytest.raises(ValueError):
        spans.self_times(_tree() + [bad])


def test_calls_count_only_outermost_spans():
    assert spans.outermost(_tree()) == [True, True, True, True, False, True, True]
    metrics, _ = spans.layer_metrics(_tree(), {})
    assert metrics["a.calls"] == 1 and metrics["b.calls"] == 2
    assert metrics["a.s"] == pytest.approx(50e-9)
    assert metrics["a.self_s"] == pytest.approx((25 + 5) * 1e-9)
    assert metrics["b.self_s"] == pytest.approx((10 + 10) * 1e-9)


def test_kernel_and_pencil_attributes():
    k, lc = "exactlin.kernel_from_rows", "derivations.lambda_candidates"
    tree = [
        ["verdict", 0, 100, -1, "v"],
        [lc, 0, 50, 0, "v"],
        [k, 1, 2, 1, "v"],           # generic probe
        [k, 3, 4, 1, "v"],
        [k, 5, 6, 1, "v"],
        [k, 60, 70, 0, "v"],
        [lc, 80, 81, 0, "v"],        # cache hit: no kernel children
    ]
    attrs = {
        1: {"confirmed": 1}, 6: {"confirmed": 1},
        2: {"rows": 4, "unknowns": 9, "rank": 8, "bits": 3},
        3: {"rows": 5, "unknowns": 9, "rank": 9, "bits": 1},
        4: {"rows": 5, "unknowns": 9, "rank": 7, "bits": 2},
        5: {"rows": 10, "unknowns": 16, "rank": 12, "bits": 7},
    }
    m, _ = spans.layer_metrics(tree, attrs)
    assert (m[k + ".rows"], m[k + ".rank"]) == (24, 36)
    assert (m[k + ".unknowns_max"], m[k + ".bits_max"]) == (16, 7)
    assert (m[lc + ".confirmed"], m[lc + ".candidates"]) == (1, 2)


# --- the dense-table generator -----------------------------------------------

def _lie_defects(n, table):
    def br(x, y):
        return table.get((x, y), {})
    for i in range(n):
        if br(i, i):
            return True
        for j in range(n):
            if {k: -c for k, c in br(j, i).items()} != br(i, j):
                return True
            for k in range(n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in br(a, b).items():
                        for r, y in br(m, c).items():
                            acc[r] = acc.get(r, 0) + x * y
                if any(acc.values()):
                    return True
    return False


def _assoc_defects(n, table):
    def mul(x, y):
        return table.get((x, y), {})
    for i in range(n):
        for j in range(n):
            if mul(i, j) != mul(j, i):
                return True
            for k in range(n):
                acc = {}
                for m, x in mul(i, j).items():
                    for r, y in mul(m, k).items():
                        acc[r] = acc.get(r, 0) + x * y
                for m, x in mul(j, k).items():
                    for r, y in mul(i, m).items():
                        acc[r] = acc.get(r, 0) - x * y
                if any(acc.values()):
                    return True
    return False


def _table_of(record):
    table = {}
    for e in record["table"]:
        terms = {t["k"]: Fraction(t["c"]) for t in e["terms"]}
        table[(e["i"], e["j"])] = terms
        if record["kind"] == "lie":
            table[(e["j"], e["i"])] = {k: -c for k, c in terms.items()}
    return table


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_basis_change_preserves_the_axioms(seed):
    for name, record in gentables.dense_tables(seed).items():
        n, table = record["dim"], _table_of(record)
        if record["kind"] == "lie":
            assert not _lie_defects(n, table), name
        else:
            assert not _assoc_defects(n, table), name


def test_base_tables_satisfy_the_axioms():
    for name, (kind, build, _) in gentables.TABLES.items():
        n, table = build()
        assert not (_lie_defects if kind == "lie" else _assoc_defects)(n, table), name


def test_a_broken_table_is_caught_by_the_checker():
    n, table = gentables.base_sl3()
    table = dict(table)
    table[(0, 1)] = {**table.get((0, 1), {}), 7: Fraction(1)}
    table[(1, 0)] = {k: -c for k, c in table[(0, 1)].items()}
    assert _lie_defects(n, table)


def test_unimodular_matrices_invert_over_the_integers():
    import random
    shape, rng = random.Random(0), random.Random(5)
    for n in (1, 3, 8):
        p = gentables.unimodular(n, shape, rng)
        q = gentables.inverse(p)
        assert all(x.denominator == 1 for row in q for x in row)
        prod = [[sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_tables_depend_on_the_seed_only():
    assert gentables.dense_tables(3) == gentables.dense_tables(3)
    assert gentables.dense_tables(3)["sl3"] != gentables.dense_tables(4)["sl3"]


def test_seeds_reorder_and_resign_one_dense_table():
    # same shape: the multiset of |structure constants| does not depend on the seed
    def sizes(record):
        return sorted(abs(Fraction(t["c"])) for e in record["table"] for t in e["terms"])
    assert sizes(gentables.dense_tables(3)["sl3"]) == sizes(gentables.dense_tables(4)["sl3"])


def test_dense_tables_are_denser_than_the_base():
    n, base = gentables.base_sl3()
    record = gentables.dense_tables(1)["sl3"]
    assert sum(len(e["terms"]) for e in record["table"]) > sum(map(len, base.values())) // 2


# --- the known-answer gate ---------------------------------------------------

def test_every_verdict_has_a_recorded_answer_that_passes():
    for verdicts in WORKLOADS.values():
        for kind, args in verdicts:
            recorded = answers.RECORDED[catalog_id(kind, args)]
            assert answers.check(kind, args, recorded) == ([], []), verdict_id(kind, args)


def test_a_changed_dimension_fails():
    args = ("sl2", "tpoly:2")
    summary = dict(answers.RECORDED["der sl2 tpoly:2"], der_dim=10)
    problems, _ = answers.check("der", args, summary)
    assert any("der_dim" in p for p in problems)


def test_a_false_verdict_boolean_fails_even_when_recorded():
    args = ("sl2", "tpoly:3")
    summary = dict(answers.RECORDED["h2 sl2 tpoly:3"], Z_in_span=False)
    problems, _ = answers.check("h2", args, summary)
    assert "Z_in_span is not true" in problems


def test_known_defect_is_excused_only_on_dense_tables():
    rec = answers.RECORDED["der heis3 tpoly:3"]
    changed = dict(rec, types=dict(rec["types"], ii=rec["types"]["ii"] - 3))
    problems, notes = answers.check("der", ("@heis3", "@tpoly-3"), changed)
    assert problems == [] and len(notes) == 1
    problems, _ = answers.check("der", ("heis3", "tpoly:3"), changed)
    assert problems


def test_published_answers_are_checked_on_dense_twins():
    rec = answers.RECORDED["h2 heis3 tpoly:3"]
    changed = dict(rec, dims=dict(rec["dims"], Z2=13, span=13))
    problems, _ = answers.check("h2", ("@heis3", "@tpoly-3"), changed)
    assert any("published" in p for p in problems)


# --- span wrappers on the real package ----------------------------------------

@pytest.fixture
def currentalg_src():
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    yield
    sys.path.remove(src)


def test_tracer_patches_every_namespace_and_keeps_results(currentalg_src):
    import worker
    import currentalg.exactlin as exactlin
    import currentalg.forms as forms
    plain = worker.run_verdict("h2", ("sl2", "tpoly:3"), "")
    original = exactlin.kernel_from_rows
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert forms.kernel_from_rows.__perfbench_original__ is original
        assert exactlin.Subspace.reduce.__perfbench_original__ is not None
        traced = tracer.run_verdict("h2", lambda: worker.run_verdict("h2", ("sl2", "tpoly:3"), ""))
    finally:
        tracer.uninstall()
    assert forms.kernel_from_rows is original
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"forms.verify", "forms.condition_space", "exactlin.kernel_from_rows",
            "exactlin.reduce", "exactlin.from_vectors", "forms.tensor_span"} <= names
    metrics, balance = spans.layer_metrics(tracer.spans, tracer.attrs)
    assert balance["h2"][0] == balance["h2"][1]
    assert metrics["exactlin.kernel_from_rows.calls"] > 0
