"""Command line interface: verbs, exit codes, canonical JSON output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import currentalg.cli
from currentalg.cli import main
from currentalg.identities import InvariantError
from currentalg.modp import PRIMES

GOLDEN = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_show(capsys):
    code, out, _ = run(capsys, "algebra", "show", "--L", "sl2")
    assert code == 0
    assert "e-" in out and "h" in out and "e+" in out


def test_algebra_validate_catalog(capsys):
    code, _, _ = run(capsys, "algebra", "validate", "--L", "sl3")
    assert code == 0


def test_validate_rejects_broken_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "lie", "dim": 3, "basis": ["x", "y", "z"],
        "table": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]},
                  {"i": 0, "j": 2, "terms": [{"k": 1, "c": "1"}]},
                  {"i": 1, "j": 2, "terms": [{"k": 1, "c": "1"}]}]}))
    code, _, err = run(capsys, "algebra", "validate", "--L", str(bad))
    assert code == 2
    assert "witness" in err


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "mangled.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "algebra", "validate", "--L", str(bad))
    assert code == 2


def test_unknown_descriptor_exits_2(capsys):
    code, _, err = run(capsys, "algebra", "show", "--L", "e8")
    assert code == 2


def test_cohomology_verb(capsys):
    code, out, _ = run(capsys, "cohomology", "--L", "heis3", "--n", "2")
    assert code == 0
    assert "Z=3" in out.replace(" ", "") or "3" in out


def test_forms_verb_json(capsys):
    code, out, _ = run(capsys, "forms", "--L", "sl2", "--condition",
                       "jacobi_sum_zero", "--symmetry", "symmetric", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 5


def test_verify_h2_json_is_canonical_and_repeatable(capsys):
    code1, out1, _ = run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2", "--json")
    code2, out2, _ = run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    r = json.loads(out1)
    assert r["span_in_Z"] and r["Z_in_span"]
    assert out1 == json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
    assert out1 == GOLDEN["h2 sl2 tpoly:2"] + "\n"


def test_verify_forms_heis3(capsys):
    code, out, _ = run(capsys, "verify", "forms", "--L", "heis3", "--A",
                       "tpoly:3", "--json")
    assert code == 0
    r = json.loads(out)
    assert r["dims"]["Z2"] == r["dims"]["span"] == 15
    assert out == GOLDEN["forms heis3 tpoly:3"] + "\n"


def test_verify_der_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "der", "--L", "sl2", "--A", "tpoly:2",
                       "--json")
    assert code == 0
    assert json.loads(out)["equal"]
    assert out == GOLDEN["der sl2 tpoly:2"] + "\n"


def test_larsson_verb(capsys):
    code, out, _ = run(capsys, "larsson", "--g", "sl2", "--max-degree", "3",
                       "--json")
    assert code == 0
    r = json.loads(out)
    assert r["verdict"] and r["degrees"]["3"]["H"] == 5


def test_larsson_rejects_off_catalog(capsys):
    code, _, err = run(capsys, "larsson", "--g", "heis3", "--max-degree", "3")
    assert code == 2


def test_hc1_verb(capsys):
    code, out, _ = run(capsys, "hc1", "--A", "tpoly1:3")
    assert code == 0
    assert "0" in out


def test_sequence_verb(capsys):
    code, out, _ = run(capsys, "sequence", "--L", "sl2", "--form", "killing",
                       "--json")
    assert code == 0
    r = json.loads(out)
    assert r["verdict"] and r["dims"] == {"H2": 0, "H1": 0, "B": 1, "H3": 1}


def test_sequence_product_form(capsys):
    code, out, _ = run(capsys, "sequence", "--L", "sl2", "--A", "tpoly:3",
                       "--form", "product", "--json")
    assert code == 0
    assert json.loads(out)["verdict"]


def test_derivations_and_antiderivations(capsys):
    code, out, _ = run(capsys, "derivations", "--L", "sl3", "--json")
    assert code == 0
    r = json.loads(out)
    assert r["der_dim"] == 8 and r["inner_dim"] == 8 and r["outer_dim"] == 0
    code, out, _ = run(capsys, "antiderivations", "--L", "sl3", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "currentalg.cli", "forms", "--L", "sl2",
         "--condition", "cyclic", "--symmetry", "skew", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 0


def test_import_does_not_load_sympy():
    # sympy is a test-only dependency: an oracle for the exact kernels
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, currentalg, currentalg.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology"])
    assert exc.value.code == 2


HEIS3 = {"kind": "lie", "dim": 3, "basis": ["x", "y", "z"],
         "table": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}]}


@pytest.mark.parametrize("case", ["zero_denominator", "missing_j", "string_k",
                                  "missing_file", "float_c"])
def test_malformed_algebra_file_exits_2(tmp_path, capsys, case):
    record = json.loads(json.dumps(HEIS3))
    entry = record["table"][0]
    if case == "zero_denominator":
        entry["terms"][0]["c"] = "1/0"
    elif case == "missing_j":
        del entry["j"]
    elif case == "string_k":
        entry["terms"][0]["k"] = "2"
    elif case == "float_c":
        entry["terms"][0]["c"] = 0.1
    path = tmp_path / "f.json"
    if case != "missing_file":
        path.write_text(json.dumps(record))
    code, out, err = run(capsys, "algebra", "show", "--L", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: ") and "Traceback" not in err


def test_seed_only_on_verify_der(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forms", "--L", "sl2", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_invariant_error_exits_3(monkeypatch, capsys):
    def broken(L, A):
        raise InvariantError("cocycle routes disagree")

    monkeypatch.setattr(currentalg.cli, "verify_h2_decomposition", broken)
    code, out, err = run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2")
    assert code == 3
    assert out == ""
    assert "cocycle routes disagree" in err


def test_derivation_verbs_on_an_associative_algebra(capsys):
    # a commutative associative algebra has no nonzero inner derivations
    code, out, _ = run(capsys, "derivations", "--A", "tpoly:3", "--json")
    assert code == 0
    assert json.loads(out) == {"algebra": "tpoly:3", "der_dim": 2,
                               "inner_dim": 0, "outer_dim": 2}
    for verb in (["antiderivations"], ["cohomology", "--n", "2"]):
        code, out, err = run(capsys, *verb, "--A", "tpoly:3")
        assert code == 2
        assert out == "" and "needs a Lie algebra" in err


def test_sequence_rejects_an_unread_A(capsys):
    for form in (["--form", "killing"], ["--form", "dual"], []):
        code, out, err = run(capsys, "sequence", "--L", "sl2", "--A", "tpoly:3",
                             *form)
        assert code == 2
        assert out == "" and "--A is read only with --form product" in err
    code, out, err = run(capsys, "sequence", "--A", "tpoly:3", "--form", "product")
    assert code == 2
    assert out == "" and "needs --L" in err


def test_pencil_search_without_usable_primes_exits_2(tmp_path, capsys):
    # sl2 with y0 = e- / d for d the product of all but the last search
    # prime: [y0, e+] = h / d leaves one usable prime for the pencil search
    d = 1
    for q in PRIMES[:-1]:
        d *= q
    table = tmp_path / "sl2_scaled.json"
    table.write_text(json.dumps({
        "kind": "lie", "dim": 3, "basis": ["y0", "h", "e+"],
        "table": [{"i": 0, "j": 1, "terms": [{"k": 0, "c": "1"}]},
                  {"i": 0, "j": 2, "terms": [{"k": 1, "c": "1/%d" % d}]},
                  {"i": 1, "j": 2, "terms": [{"k": 2, "c": "1"}]}]}))
    code, out, err = run(capsys, "verify", "der", "--L", str(table), "--A", "tpoly:2")
    assert code == 2
    assert out == "" and "search primes" in err
