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
# the --json lines of the cochain verbs (cohomology, larsson, sequence, forms)
COCHAIN_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cochain.json").read_text())


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


@pytest.mark.parametrize("flag, spec, kind", [("--A", "tpoly:x", "associative"),
                                               ("--L", "abelian:", "Lie")])
def test_descriptor_without_a_size_exits_2_with_its_name(capsys, flag, spec, kind):
    code, _, err = run(capsys, "forms", flag, spec)
    assert code == 2
    assert err == "error: unknown %s algebra descriptor: %r\n" % (kind, spec)


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
    r = json.loads(out)
    assert r["verdict"] and r["L"] == "sl2*tpoly:3" and r["mode"] == "form"


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


def test_degrees_that_are_not_a_grading_exit_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    code, out, _ = run(capsys, "algebra", "show", "--A", "tpoly:3", "--json")
    record = json.loads(out)
    record["degrees"] = [1, 7]
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "algebra", "show", "--A", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: degrees are not a grading")
    assert "Traceback" not in err


EVERY_VERB = {
    "algebra-show": ["algebra", "show", "--L", "sl2"],
    "algebra-validate": ["algebra", "validate", "--L", "sl2"],
    "cohomology": ["cohomology", "--L", "sl2", "--n", "2"],
    "forms": ["forms", "--L", "sl2"],
    "derivations": ["derivations", "--L", "sl2"],
    "antiderivations": ["antiderivations", "--L", "sl2"],
    "sequence": ["sequence", "--L", "sl2"],
    "verify-h2": ["verify", "h2", "--L", "sl2", "--A", "tpoly:2"],
    "verify-forms": ["verify", "forms", "--L", "sl2", "--A", "tpoly:2"],
    "verify-der": ["verify", "der", "--L", "sl2", "--A", "tpoly:2"],
    "larsson": ["larsson", "--g", "sl2"],
    "hc1": ["hc1", "--A", "tpoly:2"],
}


@pytest.mark.parametrize("verb", sorted(EVERY_VERB))
def test_no_verb_takes_a_seed(capsys, verb):
    # the pencil search draws from fixed seeds, so no verb has a seed to set
    with pytest.raises(SystemExit) as exc:
        main(EVERY_VERB[verb] + ["--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_invariant_error_exits_3(monkeypatch, capsys):
    def broken(L, A):
        raise InvariantError("cocycle routes disagree")

    monkeypatch.setattr(currentalg.cli, "verify_h2_decomposition", broken)
    code, out, err = run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2")
    assert code == 3
    assert out == ""
    assert "cocycle routes disagree" in err


def test_running_out_of_memory_exits_2_with_a_message(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(currentalg.forms, "kernel_from_rows", exhausted)
    code, out, err = run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2",
                         "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("out of memory") and "Traceback" not in err


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


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_arithmetic_defect_in_the_pencil_search_exits_3(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("planted in the pencil search")

    monkeypatch.setattr(currentalg.derivations, "lambda_candidates", broken)
    code, out, err = run(capsys, "verify", "der", "--L", "sl2", "--A", "tpoly:2")
    assert code == 3
    assert out == ""
    assert err == "internal invariant failed: %s: planted in the pencil search\n" % (
        error.__name__)


def _readme_examples(verb):
    """(argv, expected stdout) of every README example of the verb."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    out = []
    for k, line in enumerate(lines):
        if line.startswith("$ currentalg " + verb + " ") and "--json" not in line:
            end = lines.index("", k)
            out.append((line.split()[2:], "\n".join(lines[k + 1:end]) + "\n"))
    return out


def test_verify_text_is_the_readme_text(capsys):
    examples = _readme_examples("verify")
    assert sorted(argv[1] for argv, _ in examples) == ["der", "forms", "h2"]
    for argv, text in examples:
        assert run(capsys, *argv) == (0, text, "")


def test_a_failed_verdict_prints_its_dims_and_witness(monkeypatch, capsys):
    report = {"theorem": "der", "L": "sl2", "A": "tpoly:2", "der_dim": 10,
              "span_dim": 9, "types": {"x": 2, "i": 1}, "equal": False,
              "witness": {"direction": "derivation_outside_span", "map": {}}}
    monkeypatch.setattr(currentalg.cli, "verify_der_decomposition",
                        lambda L, A: dict(report))
    assert run(capsys, "verify", "der", "--L", "sl2", "--A", "tpoly:2") == (
        1, "der: sl2 tensor tpoly:2\n  der dim 10, span dim 9\n  types: i=1 x=2\n"
        "verdict: FAIL\nwitness: {\"direction\": \"derivation_outside_span\", "
        "\"map\": {}}\n", "")
    report = {"theorem": "h2", "L": "sl2", "A": "tpoly:2", "span_in_Z": True,
              "Z_in_span": False, "dims": {"Z2": 7, "span": 6, "types": {"ia": 6}}}
    monkeypatch.setattr(currentalg.cli, "verify_h2_decomposition",
                        lambda L, A: dict(report))
    assert run(capsys, "verify", "h2", "--L", "sl2", "--A", "tpoly:2") == (
        1, "h2: sl2 tensor tpoly:2\n  target dim 7, span dim 6\n  types: ia=6\n"
        "verdict: FAIL\n", "")


def test_sequence_text_is_the_readme_text(capsys):
    # the default --form dual
    [(argv, text)] = _readme_examples("sequence")
    assert argv == ["sequence", "--L", "sl2"]
    assert run(capsys, *argv) == (0, text, "")


# failures planted in a type table or in the expected profile:
# (module, name, plant(original), library call, its args, argv, report fields)
PLANTED = {
    "der-generator": (
        "derivations", "DER_TYPE_TABLE", lambda table: table + (("xi", (), ()),),
        "verify_der_decomposition", ("sl2", "tpoly:3"),
        ["verify", "der", "--L", "sl2", "--A", "tpoly:3"],
        {"equal": False,
         "witness": {"direction": "generator_not_derivation", "type": "xi",
                     "map": {"D(e-*t)->e-*t": "1"}}}),
    "der-outside-span": (
        "derivations", "DER_TYPE_TABLE",
        lambda table: tuple(t for t in table if t[0] != "vii"),
        "verify_der_decomposition", ("heis3", "tpoly:3"),
        ["verify", "der", "--L", "heis3", "--A", "tpoly:3"],
        {"equal": False, "der_dim": 24, "span_dim": 22,
         "witness": {"direction": "derivation_outside_span",
                     "map": {"D(x*t^2)->z*t": "1"},
                     "residual": {"D(x*t^2)->z*t": "1"}}}),
    "forms-generator": (
        "forms", "FORMS_DECOMPOSABLE_TYPES",
        lambda table: table + (("iv", "none", "none"),),
        "verify_forms_decomposition", ("heis3", "tpoly:3"),
        ["verify", "forms", "--L", "heis3", "--A", "tpoly:3"],
        {"span_in_Z": False, "Z_in_span": True,
         "witness": {"direction": "generator_outside_target", "type": "iva",
                     "form": {"phi(x*t,z*t^2)": "1", "phi(z*t,x*t^2)": "1",
                              "phi(x*t^2,z*t)": "1", "phi(z*t^2,x*t)": "1"}}}),
    "forms-target": (
        "forms", "FORMS_DECOMPOSABLE_TYPES",
        lambda table: tuple(t for t in table if t[0] != "iii"),
        "verify_forms_decomposition", ("heis3", "tpoly:3"),
        ["verify", "forms", "--L", "heis3", "--A", "tpoly:3"],
        {"span_in_Z": True, "Z_in_span": False,
         "witness": {"direction": "target_not_in_span",
                     "form": {"phi(x*t,z*t)": "1", "phi(z*t,x*t)": "1"},
                     "residual": {"phi(z*t,x*t)": "1"}}}),
    "larsson-profile": (
        "graded", "comb", lambda comb: lambda n, k: comb(n, k) + 1,
        "larsson_report", ("sl2", 3),
        ["larsson", "--g", "sl2", "--max-degree", "3"],
        {"verdict": False, "quadratic_presentation": True,
         "expected": {"2": 1, "3": 5}}),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_a_planted_failure_fails_the_verdict(monkeypatch, capsys, case):
    module, name, plant, call, args, argv, fields = PLANTED[case]
    module = getattr(currentalg, module)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    report = getattr(currentalg, call)(*args)
    assert {key: report[key] for key in fields} == fields
    code, out, err = run(capsys, *argv, "--json")
    assert (code, json.loads(out), err) == (1, json.loads(json.dumps(report)), "")
    code, out, err = run(capsys, *argv)
    assert code == 1 and "\nverdict: FAIL\n" in out and err == ""


ASSOC_T2 = {"kind": "assoc", "dim": 2, "basis": ["t", "t^2"],
            "table": [{"i": 0, "j": 0, "terms": [{"k": 1, "c": "1"}]}]}

# argv (FILE for the path of the record), record, stderr
INPUT_ERRORS = {
    "duplicate-labels": (["algebra", "show", "--L", "FILE"],
                         dict(HEIS3, basis=["x", "x", "z"]),
                         "validation error: duplicate basis labels"),
    "unital-string": (["algebra", "show", "--A", "FILE"], dict(ASSOC_T2, unital="yes"),
                      "validation error: unital must be true or false"),
    "degrees-length": (["algebra", "show", "--A", "FILE"], dict(ASSOC_T2, degrees=[1]),
                       "validation error: degrees must be a list of dim integers"),
    "table-entry": (["algebra", "show", "--L", "FILE"], dict(HEIS3, table=[5]),
                    "validation error: table entry 5 needs i, j and a list of terms"),
    "term": (["algebra", "show", "--L", "FILE"],
             dict(HEIS3, table=[{"i": 0, "j": 1, "terms": [7]}]),
             "validation error: term 7 is not an object with k and c"),
    "abelian-0": (["algebra", "show", "--L", "abelian:0"], None,
                  "error: abelian(n) needs n >= 1"),
    "zero-0": (["algebra", "show", "--A", "zero:0"], None,
               "error: zero_mult(n) needs n >= 1"),
    "lie-file-as-A": (["verify", "der", "--L", "sl2", "--A", "FILE"], HEIS3,
                      "validation error: FILE is not an associative algebra file"),
    "assoc-file-as-L": (["algebra", "show", "--L", "FILE"], ASSOC_T2,
                        "validation error: FILE is not a Lie algebra file"),
    "negative-degree": (["cohomology", "--L", "sl2", "--n", "-1"], None,
                        "error: degree must be >= 0"),
    "product-without-A": (["sequence", "--L", "sl2", "--form", "product"], None,
                          "error: --form product needs --L and --A"),
    "no-algebra": (["derivations"], None, "error: pass --L and/or --A"),
    "larsson-degree-1": (["larsson", "--g", "sl2", "--max-degree", "1"], None,
                         "error: max_degree must be at least 2"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_and_usage_errors_exit_2_with_their_message(tmp_path, capsys, case):
    argv, record, message = INPUT_ERRORS[case]
    path = tmp_path / "algebra.json"
    if record is not None:
        path.write_text(json.dumps(record))
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert run(capsys, *argv) == (2, "", message.replace("FILE", str(path)) + "\n")


@pytest.mark.parametrize("command", sorted(COCHAIN_GOLDEN))
def test_cochain_verbs_print_their_golden_lines(capsys, command):
    assert run(capsys, *command.split(), "--json") == (
        0, COCHAIN_GOLDEN[command] + "\n", "")
