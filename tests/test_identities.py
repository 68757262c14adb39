"""The identity engine: pencil rows pinned by golden fields, and the recheck
catching defects planted in the row path."""

import importlib.util
import itertools
import json
import math
from fractions import Fraction
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import currentalg
from currentalg import algebras, cochain, derivations, forms, identities
from currentalg.algebras import LieAlgebra, algebra_from_dict, build_assoc, build_lie, current
from currentalg.derivations import derivation_space, lambda_candidates, map_condition_space
from currentalg.exactlin import (Subspace, _as_int_row, _dedupe_sorted, _normalize,
                                 kernel_from_rows)
from currentalg.forms import condition_space
from currentalg.identities import InvariantError

# PencilCandidates fields for every applicable kind, captured before the
# engine replaced the hand-written pencil rows.  They pin the answers, not
# the row order (the rows reversed give the same fields): the row order is
# pinned by test_projections_are_the_recorded_draws (test_derivations.py)
# and by the walk tests below
PENCILS = json.loads((Path(__file__).parent / "golden" / "pencils.json").read_text())


@pytest.mark.parametrize("case", sorted(PENCILS))
def test_pencil_fields_match_golden(case):
    desc, kind = case.split()
    alg = build_assoc(desc) if kind.startswith("assoc") else build_lie(desc)
    pc = lambda_candidates(alg, kind)
    fields = {"lambdas": {str(k): v for k, v in pc.lambdas.items()},
              "degenerate": pc.degenerate, "residual_degree": pc.residual_degree,
              "primes": list(pc.primes)}
    assert json.dumps(fields, sort_keys=True, separators=(",", ":")) == PENCILS[case]


def test_invariant_error_is_an_assertion_error():
    assert issubclass(InvariantError, AssertionError)
    assert currentalg.InvariantError is InvariantError


# --- the recheck against defects planted in the row path only -------------
#
# Each case patches a function of the row path (tuple enumeration or term
# application).  The identity tables stay untouched, so the recheck still
# evaluates the true identity and must reject the wrong solutions.

_tuples = identities._tuples
_entries = identities._entries


def _nondecreasing_as_increasing(n, order, live=None):
    return _tuples(n, "x<y<z" if order == "x<=y<=z" else order, live)


def _no_repeats_in_free_pairs(n, order, live=None):
    return [t for t in _tuples(n, order, live) if order != "x,y" or t[0] != t[1]]


def _last_term_flipped(alg, terms, t):
    c, *rest = terms[-1]
    return _entries(alg, terms[:-1] + ((-c, *rest),), t)


def test_mutation_assoc_jacobi_over_increasing_triples(monkeypatch):
    monkeypatch.setattr(identities, "_tuples", _nondecreasing_as_increasing)
    with pytest.raises(InvariantError):
        condition_space(build_assoc("tpoly:3"), "jacobi_sum_zero", "skew")


def test_mutation_lie_left_without_repeated_pairs(monkeypatch):
    monkeypatch.setattr(identities, "_tuples", _no_repeats_in_free_pairs)
    monkeypatch.setattr(derivations, "_pencil_cache", {})
    heis3 = build_lie("heis3")
    with pytest.raises(InvariantError):
        map_condition_space(heis3, ("centroid",))
    with pytest.raises(InvariantError):
        lambda_candidates(heis3, "lie_left")


def test_mutation_flipped_term_sign(monkeypatch):
    monkeypatch.setattr(identities, "_entries", _last_term_flipped)
    with pytest.raises(InvariantError):
        derivation_space(build_lie("sl2"))


def test_mutation_caught_under_optimize(run_optimized):
    code = (
        "from currentalg import identities\n"
        "from currentalg.algebras import build_assoc\n"
        "from currentalg.forms import condition_space\n"
        "t = identities._tuples\n"
        "identities._tuples = lambda n, o, live=None: "
        "t(n, 'x<y<z' if o == 'x<=y<=z' else o, live)\n"
        "try:\n"
        "    condition_space(build_assoc('tpoly:3'), 'jacobi_sum_zero', 'skew')\n"
        "except identities.InvariantError:\n"
        "    raise SystemExit(7)\n"
    )
    run_optimized(code)


def test_optimized_snippets_refuse_asserts_and_keep_the_environment(
        run_optimized, monkeypatch):
    with pytest.raises(ValueError, match="assert"):
        run_optimized("assert False\nraise SystemExit(7)\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run_optimized("import sys\nraise SystemExit(7 if sys.dont_write_bytecode else 1)\n")


# --- the recheck on spaces planted directly ---------------------------------
#
# recheck evaluates every identity with products at one seeded combination
# of the basis, so a single bad basis vector must still make it raise.


def _planted(space, basis):
    """A Subspace holding one row per pivot of space: the dense vectors of
    basis as the engine reads them, int rows of content 1 with a positive
    leading entry, which need not be the reduced form of their span."""
    return Subspace(space.ambient_dim, {p: _normalize(_as_int_row(v)[0])
                                        for p, v in zip(space.pivots, basis)})


def _one_bad_vector(alg, ident, space):
    """space with its last basis vector moved off the solutions: plus the
    first unit vector that breaks the identity on the row path."""
    *good, last = space.basis
    bad = next(v for v in (tuple(x + (c == col) for c, x in enumerate(last))
                           for col in range(alg.dim ** 2))
               if identities.first_failure(alg, ident, v) is not None)
    assert all(identities.first_failure(alg, ident, v) is None for v in good)
    return _planted(space, tuple(good) + (bad,))


def _scaled(space, factors):
    """space with basis vector i times factors[i] and plus vector i + 1 over 3:
    the same span in a basis with non-integer entries."""
    basis = [tuple(f * x for x in v) for v, f in zip(space.basis, factors)]
    basis = [tuple(x + y / 3 for x, y in zip(v, w))
             for v, w in zip(basis, basis[1:])] + basis[-1:]
    return _planted(space, basis)


def _space(case):
    """(algebra, identities, solution space) of a map or a form condition."""
    if case == "der heis3":
        alg = build_lie("heis3")
        return alg, (identities.LIE_MAPS["derivation"],), derivation_space(alg)
    alg = current(build_lie("sl2"), build_assoc("tpoly:3"))
    idents = (identities.LIE_FORMS["invariant"],)
    return alg, idents, condition_space(alg, "invariant", "symmetric")


@pytest.mark.parametrize("case", ["der heis3", "invariant sl2*tpoly:3"])
def test_recheck_catches_a_single_bad_basis_vector(case):
    alg, idents, space = _space(case)
    assert space.dim >= 4
    identities.recheck(alg, idents, space)
    with pytest.raises(InvariantError):
        identities.recheck(alg, idents[:1], _one_bad_vector(alg, idents[0], space))


def test_single_bad_vector_caught_under_optimize(run_optimized):
    code = (
        "from currentalg import identities as ids\n"
        "from currentalg.algebras import build_lie\n"
        "from currentalg.derivations import derivation_space\n"
        "from currentalg.exactlin import Subspace, _as_int_row\n"
        "alg = build_lie('heis3')\n"
        "ident = ids.LIE_MAPS['derivation']\n"
        "space = derivation_space(alg)\n"
        "last = list(space.basis[-1])\n"
        "last[0] += 1\n"
        "if ids.first_failure(alg, ident, last) is None:\n"
        "    raise SystemExit(5)\n"
        "bad = Subspace(9, {**space.rows, space.pivots[-1]: _as_int_row(last)[0]})\n"
        "try:\n"
        "    ids.recheck(alg, (ident,), bad)\n"
        "except ids.InvariantError:\n"
        "    raise SystemExit(7)\n"
    )
    run_optimized(code)


@pytest.mark.parametrize("case", ["der heis3", "invariant sl2*tpoly:3"])
def test_recheck_on_a_basis_with_fraction_entries(case):
    alg, idents, space = _space(case)
    factors = [Fraction(k + 2, 2 * k + 3) for k in range(space.dim)]
    scaled = _scaled(space, factors)
    assert any(x.denominator > 1 for v in scaled.basis for x in v)
    identities.recheck(alg, idents, scaled)
    bad = _scaled(_one_bad_vector(alg, idents[0], space), factors)
    with pytest.raises(InvariantError):
        identities.recheck(alg, idents[:1], bad)


def test_recheck_with_structure_constant_denominators():
    # sl2 on (e-/2, h, e+): [x0, x2] = x1 / 2
    alg = LieAlgebra(("x0", "x1", "x2"), {(0, 1): [(0, 1)],
                                          (0, 2): [(1, Fraction(1, 2))],
                                          (1, 2): [(2, 1)]})
    der = map_condition_space(alg, ("derivation",))
    forms = condition_space(alg, "invariant", "symmetric")
    assert (der.dim, forms.dim) == (3, 1)
    for idents, space in (((identities.LIE_MAPS["derivation"],), der),
                          ((identities.LIE_FORMS["invariant"],), forms)):
        identities.recheck(alg, idents, space)
        with pytest.raises(InvariantError):
            identities.recheck(alg, idents, _one_bad_vector(alg, idents[0], space))


# --- integral tables stay in ints ---------------------------------------------


def _coefficients(alg):
    return [c for i in range(alg.dim) for j in range(alg.dim) for _, c in alg.mul(i, j)]


@pytest.mark.parametrize("desc", ["sl3", "heis3", "abelian:4", "tpoly:3", "tpoly1:3",
                                  "zero:2", "sl3*tpoly:3", "json"])
def test_integral_tables_store_int_coefficients(desc):
    if desc == "json":
        alg = algebra_from_dict({"kind": "lie", "dim": 3, "basis": ["x", "y", "z"],
                                 "table": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "4/2"}]},
                                           {"i": 0, "j": 2, "terms": [{"k": 2, "c": -3}]}]})
        assert _coefficients(alg)
    elif desc == "sl3*tpoly:3":
        alg = current(build_lie("sl3"), build_assoc("tpoly:3"))
    elif desc.startswith(("tpoly", "zero")):
        alg = build_assoc(desc)
    else:
        alg = build_lie(desc)
    assert all(type(c) is int for c in _coefficients(alg))


def test_rows_and_differentials_of_an_integral_table_are_ints():
    curr = current(build_lie("sl3"), build_assoc("tpoly:3"))
    rows = list(identities.rows(curr, [identities.LIE_FORMS["invariant"]]))
    ce_rows = [row for _, row in cochain._ce_rows(curr, cochain.trivial_module(curr), 2)[1]]
    for system in (rows, ce_rows):
        assert system and all(type(v) is int for row in system for v in row.values())


def test_a_rational_table_keeps_its_fractions():
    alg = algebra_from_dict({"kind": "assoc", "dim": 2, "basis": ["a", "b"],
                             "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1/2"}]}]})
    assert alg.product(0, 0) == ((1, Fraction(1, 2)),)
    assert type(alg.product(0, 0)[0][1]) is Fraction
    rows = list(identities.rows(alg, [identities.ASSOC_FORMS["invariant"]]))
    assert any(type(v) is Fraction for row in rows for v in row.values())


# --- the sparse walk against the full walk ------------------------------------


def _full_walk(n, order):
    """Every tuple that order selects, in lexicographic order."""
    rels = re.findall(r"<=|<|,", order)
    holds = {",": lambda a, b: True, "<": lambda a, b: a < b, "<=": lambda a, b: a <= b}
    return [t for t in itertools.product(range(n), repeat=len(rels) + 1)
            if all(holds[rel](t[i], t[i + 1]) for i, rel in enumerate(rels))]


def _full_pencil_rows(alg, ident):
    out = []
    for t in _full_walk(alg.dim, ident.order):
        per = {}
        for r, col, val, part in _entries(alg, ident.terms, t):
            identities.add_entry(per.setdefault(r, ({}, {}))[part], col, val)
        out.extend(pair for pair in per.values() if pair[0] or pair[1])
    return out


def _full_first_failure(alg, ident, vec):
    for t in _full_walk(alg.dim, ident.order):
        acc = {}
        for r, col, val, part in _entries(alg, ident.terms, t):
            identities.add_entry(acc, r, ident.weights[part] * val * vec[col])
        if acc:
            return t
    return None


class _Table:
    """dim, mul(i, j) and support, the interface the identity engine reads,
    on a mirrored table (sign -1 or +1) whose axiom is never checked."""

    def __init__(self, n, table, sign):
        self.dim = n
        self._full = {}
        for (i, j), terms in table.items():
            self._full[(i, j)] = terms
            self._full[(j, i)] = tuple((k, sign * c) for k, c in terms)
        self.support = [sum(1 << j for j in range(n) if (i, j) in self._full)
                        for i in range(n)]

    def mul(self, i, j):
        return self._full.get((i, j), ())


@st.composite
def walk_cases(draw):
    """(algebra, identities) on a random sparse Lie or associative table or
    a current algebra, and a sparse unknown of length n^2."""
    kind = draw(st.sampled_from(["lie", "assoc", "current"]))
    if kind == "current":
        alg = current(build_lie(draw(st.sampled_from(["sl2", "heis3"]))),
                      build_assoc(draw(st.sampled_from(["tpoly:3", "tpoly1:2", "zero:2"]))))
    else:
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + (kind == "lie"), n)]
        keys = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
        alg = _Table(n, {key: tuple(draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from([-2, -1, 1, 3])),
            min_size=1, max_size=2, unique_by=lambda e: e[0]))) for key in keys},
            -1 if kind == "lie" else 1)
    forms = identities.ASSOC_FORMS if kind == "assoc" else identities.LIE_FORMS
    pencils = [p for name, p in identities.PENCILS.items()
               if name.startswith("assoc" if kind == "assoc" else "lie")]
    maps = identities.ASSOC_MAPS if kind == "assoc" else identities.LIE_MAPS
    idents = list(forms.values()) + pencils + list(maps.values())
    n2 = alg.dim ** 2
    vec = [0] * n2
    for col, x in draw(st.lists(st.tuples(st.integers(0, n2 - 1), st.integers(-2, 2)),
                                max_size=4)):
        vec[col] = x
    return alg, idents, vec


@settings(max_examples=120, deadline=None)
@given(walk_cases())
def test_the_sparse_walk_gives_the_rows_of_the_full_walk_in_order(case):
    alg, idents, vec = case
    for ident in idents:
        got = identities.pencil_rows(alg, ident)
        want = _full_pencil_rows(alg, ident)
        assert ([(list(a.items()), list(b.items())) for a, b in got]
                == [(list(a.items()), list(b.items())) for a, b in want])
        assert (identities.first_failure(alg, ident, vec)
                == _full_first_failure(alg, ident, vec))


# --- how many tuples each walker visits ----------------------------------------
#
# Pinned counts on two truncations of sl4 tensor tK[t], next to the number
# of tuples that the order selects: a walker that falls back to every tuple
# shows up here without timing anything.  A form identity visits the tuples
# with a nonzero product slot, the axiom check the triples on which some
# term has its last index in reach (counted apart, over every triple).

_VISITS = {
    "tpoly:4": {"axiom": (197, 14190), "jacobi_sum_zero": (5759, 14190),
                "cyclic": (13935, 46575), "radical": (8100, 44550),
                "invariant": (27510, 91125)},
    "tpoly:5": {"axiom": (830, 34220), "jacobi_sum_zero": (15175, 34220),
                "cyclic": (36714, 109800), "radical": (21600, 106200),
                "invariant": (72708, 216000)},
}


@pytest.mark.parametrize("A", sorted(_VISITS))
def test_each_walker_visits_only_the_tuples_that_carry_a_product(monkeypatch, A):
    walk, visits, walker = identities._tuples, {}, [None]

    def counted(n, order, live=None):
        for t in walk(n, order, live):
            visits[walker[0]] = visits.get(walker[0], 0) + 1
            yield t

    monkeypatch.setattr(algebras, "_tuples", counted)
    monkeypatch.setattr(identities, "_tuples", counted)
    L, Aalg = build_lie("sl4"), build_assoc(A)
    walker[0] = "axiom"
    curr = current(L, Aalg)
    n = curr.dim
    selected = {"x<y<z": math.comb(n, 3), "x,y,z": n ** 3, "x<y,z": math.comb(n, 2) * n,
                "x,y<=z": n * math.comb(n + 1, 2)}
    counts = {"axiom": (visits["axiom"], selected["x<y<z"])}
    for name in ("jacobi_sum_zero", "cyclic", "radical", "invariant"):
        ident = identities.LIE_FORMS[name]
        walker[0] = name
        assert identities.first_failure(curr, ident, [0] * n * n) is None
        counts[name] = (visits[name], selected[ident.order])
        if name in ("jacobi_sum_zero", "radical"):
            walker[0] = "rows"
            assert identities.pencil_rows(curr, ident)
            assert visits.pop("rows") == visits[name]
    assert counts == _VISITS[A]


# --- one tuple per fold class -------------------------------------------------
#
# cyclic walks x,y<=z for both kinds of algebra, and the symmetric invariant
# solve of a Lie algebra walks x,y<=z (Identity.over): the kernels must be
# those of the x,y,z walk.  The algebras are the catalog algebras of the
# benchmark's verdict grid, their current algebras, and the seed-1 dense
# tables of perfbench/gentables.py.

_GRID_L = ("sl2", "heis3", "abelian:4", "sl3")
_GRID_A = ("tpoly:2", "tpoly:3", "tpoly1:3", "zero:2")


def _dense_tables(seed):
    """{name: algebra} of the benchmark's dense tables for seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gentables.py"
    spec = importlib.util.spec_from_file_location("gentables", path)
    gentables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gentables)
    return {name: algebra_from_dict(record)
            for name, record in gentables.dense_tables(seed).items()}


def _fold_order_algebras():
    algs = {name: build_lie(name) for name in _GRID_L}
    algs.update((name, build_assoc(name)) for name in _GRID_A)
    algs.update(("%s*%s" % (lie, assoc), current(build_lie(lie), build_assoc(assoc)))
                for lie in _GRID_L[:3] for assoc in _GRID_A)
    algs["sl3*tpoly:3"] = current(build_lie("sl3"), build_assoc("tpoly:3"))
    algs.update(("@" + name, alg) for name, alg in _dense_tables(1).items())
    return algs


def test_one_tuple_per_fold_class_keeps_every_kernel():
    every = dict(symmetric="x,y,z", order="x,y,z")
    for name, alg in _fold_order_algebras().items():
        forms_of_kind = identities.LIE_FORMS if alg.kind == "lie" else identities.ASSOC_FORMS
        cases = [("cyclic", sign) for sign in (None, 1, -1)] + [("invariant", 1)]
        for cond, sign in cases:
            ident = forms_of_kind[cond]
            walked = forms._solve(alg, [ident], sign)
            assert walked == forms._solve(alg, [ident._replace(**every)], sign), (name, cond, sign)
    assert identities.LIE_FORMS["cyclic"].order == identities.ASSOC_FORMS["cyclic"].order == "x,y<=z"
    assert identities.LIE_FORMS["invariant"].over(1).order == "x,y<=z"
    # first_failure (the Killing form check) and the other solves walk x,y,z
    for sign in (None, -1):
        assert identities.LIE_FORMS["invariant"].over(sign).order == "x,y,z"
    assert identities.ASSOC_FORMS["invariant"].over(1).order == "x,y,z"


def test_fold_classes_halve_the_rows_built():
    # the symmetric invariant solve of forms on sl4 tensor tK[t]/(t^8)
    # built 440 202 rows on the x,y,z walk; the same 59 525 distinct rows
    # over 5565 pairs come out of half as many
    curr = current(build_lie("sl4"), build_assoc("tpoly:8"))
    n = curr.dim
    rows = list(identities.rows(curr, [identities.LIE_FORMS["invariant"].over(1)]))
    assert len(rows) == 221361
    domain, folded = cochain._pair_domain(n, 1), list(cochain._fold(rows, n, 1))
    assert len(domain) == 5565
    assert len(_dedupe_sorted(_as_int_row(row, len(domain) - 1)[0] for row in folded)) == 59525
    assert kernel_from_rows(len(domain), folded).dim == 126
    # cyclic on the seed-1 dense sl3
    sl3 = _dense_tables(1)["sl3"]
    cyclic = identities.LIE_FORMS["cyclic"]
    assert sum(1 for _ in identities.rows(sl3, [cyclic])) == 280
    assert sum(1 for _ in identities.rows(sl3, [cyclic._replace(order="x,y,z")])) == 504
