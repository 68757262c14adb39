r"""Command line front end.

Verbs:

    algebra show      print an algebra's basis and multiplication table
    algebra validate  exit 0 when the table satisfies the axioms, 2 with a
                      witness otherwise
    cohomology        Z/B/H dimensions of one cochain degree
    forms             dimension of a bilinear form condition space
    derivations       derivation and inner-derivation dimensions
    antiderivations   antiderivation dimension
    sequence          the four-term sequence report for a Lie algebra
    verify h2         2-cocycle decomposition verdict for L tensor A
    verify forms      symmetric invariant form decomposition verdict
    verify der        derivation decomposition verdict
    larsson           graded H^2 profile of g tensor tK[t]
    hc1               skew cyclic-sum-zero forms on an associative algebra

Algebras are named by catalog descriptors (sl2, sl3, abelian:4, heis3,
sum:sl2+sl3, tpoly:3, tpoly1:3, zero:2) or JSON file paths.  --json prints
one canonical JSON line (sorted keys, no spaces) so identical commands give
byte-identical output.  Exit status: 0 all verdicts hold, 1 a verification
failed (the report carries a witness), 2 unusable input (a descriptor or
table failed to parse or validate, a verb got an algebra or flag it does
not read, or a table's denominators left the pencil search fewer than two
primes), 3 an internal invariant failed (a defect in currentalg, not in
the input).
"""

import argparse
import json
import sys

from .algebras import (
    LieAlgebra,
    ValidationError,
    algebra_to_dict,
    build_assoc,
    build_lie,
    current,
    killing_form,
    product_form,
    residue_form,
)
from .cochain import adjoint_module, coadjoint_module, cohomology, trivial_module
from .forms import condition_space, hc1_space, verify_forms_decomposition, verify_h2_decomposition
from .derivations import (
    antiderivation_space,
    derivation_space,
    inner_derivations,
    sequence_maps,
    verify_der_decomposition,
)
from .graded import larsson_report
from .identities import InvariantError

__all__ = ["main", "build_parser"]


def _dump(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _emit(args, report, lines):
    if args.json:
        print(_dump(report))
    else:
        for line in lines:
            print(line)


def _load_algebra(args):
    """One algebra from --L / --A, or their current algebra when both given."""
    lspec = getattr(args, "L", None)
    aspec = getattr(args, "A", None)
    if lspec and aspec:
        return current(build_lie(lspec), build_assoc(aspec)), "%s*%s" % (lspec, aspec)
    if lspec:
        return build_lie(lspec), lspec
    if aspec:
        return build_assoc(aspec), aspec
    raise ValueError("pass --L and/or --A")


def _load_lie(args):
    """_load_algebra for the verbs that need a Lie algebra."""
    alg, name = _load_algebra(args)
    if not isinstance(alg, LieAlgebra):
        raise ValueError("%s needs a Lie algebra: pass --L" % args.command)
    return alg, name


def cmd_algebra_show(args):
    alg, name = _load_algebra(args)
    report = algebra_to_dict(alg)
    lines = ["%s (dim %d)" % (name, alg.dim),
             "basis: " + " ".join(alg.labels)]
    for entry in report["table"]:
        terms = " + ".join("%s %s" % (t["c"], alg.labels[t["k"]])
                           for t in entry["terms"])
        lines.append("  (%s, %s) -> %s"
                     % (alg.labels[entry["i"]], alg.labels[entry["j"]], terms))
    _emit(args, report, lines)
    return 0


def cmd_algebra_validate(args):
    alg, name = _load_algebra(args)
    report = {"algebra": name, "dim": alg.dim, "valid": True}
    _emit(args, report, ["%s: valid (dim %d)" % (name, alg.dim)])
    return 0


_MODULES = {
    "trivial": lambda alg: trivial_module(alg),
    "adjoint": adjoint_module,
    "coadjoint": coadjoint_module,
}


def cmd_cohomology(args):
    alg, name = _load_lie(args)
    module = _MODULES[args.module](alg)
    res = cohomology(alg, module, args.n)
    report = {"algebra": name, "module": args.module, "degree": args.n,
              "Z": res.z_space.dim, "B": res.b_space.dim, "H": res.h_dim}
    _emit(args, report, ["H^%d(%s; %s): Z=%d B=%d H=%d"
                         % (args.n, name, args.module, res.z_space.dim,
                            res.b_space.dim, res.h_dim)])
    return 0


def cmd_forms(args):
    alg, name = _load_algebra(args)
    fs = condition_space(alg, args.condition, args.symmetry)
    report = {"algebra": name, "condition": args.condition,
              "symmetry": args.symmetry, "dim": fs.dim}
    _emit(args, report, ["forms(%s | %s, %s): dim %d"
                         % (name, args.condition, args.symmetry, fs.dim)])
    return 0


def cmd_derivations(args):
    alg, name = _load_algebra(args)
    der = derivation_space(alg)
    inner = inner_derivations(alg)
    report = {"algebra": name, "der_dim": der.dim, "inner_dim": inner.dim,
              "outer_dim": der.dim - inner.dim}
    _emit(args, report, ["Der(%s): dim %d, inner %d, outer %d"
                         % (name, der.dim, inner.dim, der.dim - inner.dim)])
    return 0


def cmd_antiderivations(args):
    alg, name = _load_lie(args)
    space = antiderivation_space(alg)
    report = {"algebra": name, "dim": space.dim}
    _emit(args, report, ["antiderivations(%s): dim %d" % (name, space.dim)])
    return 0


def cmd_sequence(args):
    if not args.L:
        raise ValueError("sequence needs --L")
    if args.form == "product":
        if not args.A:
            raise ValueError("--form product needs --L and --A")
        L = build_lie(args.L)
        A = build_assoc(args.A)
        curr = current(L, A)
        kappa = product_form(killing_form(L), residue_form(A), curr)
        report = sequence_maps(curr, kappa, lname="%s*%s" % (args.L, args.A))
    elif args.A:
        raise ValueError("--A is read only with --form product")
    else:
        report = sequence_maps(args.L, args.form)
    lines = ["sequence on %s (%s): H2=%d H1=%d B=%d H3=%d"
             % (report["L"], report["mode"], report["dims"]["H2"],
                report["dims"]["H1"], report["dims"]["B"],
                report["dims"]["H3"])]
    for key in ("v_after_u_zero", "w_after_v_in_B3", "exact_at_H1",
                "exact_at_B", "u_injective"):
        lines.append("  %s: %s" % (key, report[key]))
    lines.append("verdict: %s" % ("OK" if report["verdict"] else "FAIL"))
    _emit(args, report, lines)
    return 0 if report["verdict"] else 1


def _verify_lines(report, ok):
    lines = ["%s: %s tensor %s" % (report["theorem"], report["L"], report["A"])]
    if "dims" in report:
        lines.append("  target dim %d, span dim %d"
                     % (report["dims"]["Z2"], report["dims"]["span"]))
        lines.append("  types: " + " ".join(
            "%s=%d" % (k, v) for k, v in sorted(report["dims"]["types"].items())))
    lines.append("verdict: %s" % ("OK" if ok else "FAIL"))
    if "witness" in report:
        lines.append("witness: %s" % json.dumps(report["witness"], sort_keys=True))
    return lines


def cmd_verify_span(args):
    """verify h2 and verify forms: both inclusions with the type span."""
    if args.target == "h2":
        report = verify_h2_decomposition(args.L, args.A)
    else:
        report = verify_forms_decomposition(args.L, args.A)
    ok = report["span_in_Z"] and report["Z_in_span"]
    _emit(args, report, _verify_lines(report, ok))
    return 0 if ok else 1


def cmd_verify_der(args):
    report = verify_der_decomposition(args.L, args.A, seed=args.seed)
    ok = report["equal"]
    lines = ["der: %s tensor %s" % (report["L"], report["A"]),
             "  der dim %d, span dim %d" % (report["der_dim"], report["span_dim"]),
             "  types: " + " ".join("%s=%d" % (k, v)
                                    for k, v in sorted(report["types"].items())),
             "verdict: %s" % ("OK" if ok else "FAIL")]
    if "witness" in report:
        lines.append("witness: %s" % json.dumps(report["witness"], sort_keys=True))
    _emit(args, report, lines)
    return 0 if ok else 1


def cmd_larsson(args):
    report = larsson_report(args.g, args.max_degree)
    ok = report["verdict"] and report["quadratic_presentation"]
    lines = ["graded H^2 of %s tensor tK[t]:" % report["g"]]
    for d in sorted(report["degrees"], key=int):
        row = report["degrees"][d]
        lines.append("  degree %s: Z=%d B=%d H=%d (expected H=%d)"
                     % (d, row["Z"], row["B"], row["H"],
                        report["expected"][d]))
    lines.append("quadratic presentation: %s" % report["quadratic_presentation"])
    lines.append("verdict: %s" % ("OK" if ok else "FAIL"))
    _emit(args, report, lines)
    return 0 if ok else 1


def cmd_hc1(args):
    alg = build_assoc(args.A)
    space = hc1_space(alg)
    report = {"A": args.A, "dim": space.dim}
    _emit(args, report, ["hc1(%s): dim %d" % (args.A, space.dim)])
    return 0


def _add_lie_assoc(p, lie=True, assoc=True):
    if lie:
        p.add_argument("--L", help="Lie algebra descriptor or JSON file")
    if assoc:
        p.add_argument("--A", help="associative algebra descriptor or JSON file")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="one canonical JSON line instead of text")

    parser = argparse.ArgumentParser(
        prog="currentalg",
        description="exact verification of current Lie algebra decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="inspect or validate an algebra")
    alg_sub = p_alg.add_subparsers(dest="action", required=True)
    for action, fn in (("show", cmd_algebra_show),
                       ("validate", cmd_algebra_validate)):
        p = alg_sub.add_parser(action, parents=[common])
        _add_lie_assoc(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("cohomology", parents=[common],
                       help="cochain space dimensions in one degree")
    _add_lie_assoc(p)
    p.add_argument("--n", type=int, required=True, help="cochain degree (0..3)")
    p.add_argument("--module", choices=sorted(_MODULES), default="trivial")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("forms", parents=[common],
                       help="bilinear form condition space dimension")
    _add_lie_assoc(p)
    p.add_argument("--condition", default="invariant",
                   choices=("jacobi_sum_zero", "cyclic", "radical",
                            "invariant", "none"))
    p.add_argument("--symmetry", default="symmetric",
                   choices=("symmetric", "skew", "any"))
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("derivations", parents=[common])
    _add_lie_assoc(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("antiderivations", parents=[common])
    _add_lie_assoc(p, assoc=True)
    p.set_defaults(func=cmd_antiderivations)

    p = sub.add_parser("sequence", parents=[common],
                       help="four-term sequence report")
    _add_lie_assoc(p)
    p.add_argument("--form", choices=("dual", "killing", "product"),
                   default="dual")
    p.set_defaults(func=cmd_sequence)

    p_verify = sub.add_parser("verify", help="decomposition verdicts")
    verify_sub = p_verify.add_subparsers(dest="target", required=True)
    for target, fn in (("h2", cmd_verify_span), ("forms", cmd_verify_span),
                       ("der", cmd_verify_der)):
        p = verify_sub.add_parser(target, parents=[common])
        p.add_argument("--L", required=True)
        p.add_argument("--A", required=True)
        p.set_defaults(func=fn)
        if target == "der":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the pencil projections")

    p = sub.add_parser("larsson", parents=[common],
                       help="graded H^2 profile of g tensor tK[t]")
    p.add_argument("--g", required=True, help="sl(n) direct sum descriptor")
    p.add_argument("--max-degree", type=int, default=5, dest="max_degree")
    p.set_defaults(func=cmd_larsson)

    p = sub.add_parser("hc1", parents=[common])
    p.add_argument("--A", required=True)
    p.set_defaults(func=cmd_hc1)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        msg = str(exc)
        if exc.witness is not None:
            msg += " [witness: %r]" % (exc.witness,)
        print("validation error: %s" % msg, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("internal invariant failed: %s" % exc, file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # the pencil search's "fewer than two usable primes" is a bare
        # ArithmeticError; ZeroDivisionError and the like keep their traceback
        if type(exc) is not ArithmeticError:
            raise
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
