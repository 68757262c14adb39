"""The identity engine: pencil rows pinned by golden fields, and the recheck
catching defects planted in the row path."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import currentalg
from currentalg import derivations, identities
from currentalg.algebras import build_assoc, build_lie
from currentalg.derivations import derivation_space, lambda_candidates, map_condition_space
from currentalg.forms import condition_space
from currentalg.identities import InvariantError

# PencilCandidates fields for every applicable kind, captured before the
# engine replaced the hand-written pencil rows: the seeded projections
# combine the rows in order, so these pin the row order and values too
PENCILS = json.loads((Path(__file__).parent / "golden" / "pencils.json").read_text())


@pytest.mark.parametrize("case", sorted(PENCILS))
def test_pencil_fields_match_golden(case):
    desc, kind = case.split()
    alg = build_assoc(desc) if kind.startswith("assoc") else build_lie(desc)
    pc = lambda_candidates(alg, kind, 0)
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


def _nondecreasing_as_increasing(n, order):
    return _tuples(n, "x<y<z" if order == "x<=y<=z" else order)


def _no_repeats_in_free_pairs(n, order):
    return [t for t in _tuples(n, order) if order != "x,y" or t[0] != t[1]]


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
        lambda_candidates(heis3, "lie_left", 0)


def test_mutation_flipped_term_sign(monkeypatch):
    monkeypatch.setattr(identities, "_entries", _last_term_flipped)
    with pytest.raises(InvariantError):
        derivation_space(build_lie("sl2"))


def test_mutation_caught_under_optimize():
    code = (
        "from currentalg import identities\n"
        "from currentalg.algebras import build_assoc\n"
        "from currentalg.forms import condition_space\n"
        "t = identities._tuples\n"
        "identities._tuples = lambda n, o: t(n, 'x<y<z' if o == 'x<=y<=z' else o)\n"
        "try:\n"
        "    condition_space(build_assoc('tpoly:3'), 'jacobi_sum_zero', 'skew')\n"
        "except identities.InvariantError:\n"
        "    raise SystemExit(7)\n"
    )
    src = str(Path(currentalg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr
