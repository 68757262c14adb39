"""One pass of one workload in a fresh interpreter.

Run by run.py, never imported by it.  The worker imports ``currentalg``
from ``<root>/src`` and builds its CLI parser, prints ``READY`` (the parent
times set-up up to that line), then runs the workload's verdicts back to
back and prints one JSON line: each verdict's id, seconds and summary (or
the exception it raised), and the peak resident memory.  With ``--trace``
it records spans and adds the pass's per-layer metrics.

A fresh process per pass keeps module-level caches, such as the pencil
cache in ``currentalg.derivations``, from turning a later pass into cache
hits.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time


def load_currentalg(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import currentalg
    import currentalg.cli
    currentalg.cli.build_parser()
    if not os.path.realpath(currentalg.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError("currentalg imported from %s, not %s" % (currentalg.__file__, src))


def _mods():
    return {m: importlib.import_module("currentalg." + m)
            for m in ("algebras", "cochain", "forms", "derivations", "graded")}


def _strip(report, *keys):
    return {k: v for k, v in report.items() if k not in keys}


def run_verdict(kind, args, tables):
    """Make one verdict's calls through the module attributes (so that
    installed spans see them) and return its JSON-ready summary."""
    m = _mods()
    alg, cochain, forms, der, graded = (m["algebras"], m["cochain"], m["forms"],
                                        m["derivations"], m["graded"])
    args = [os.path.join(tables, a[1:] + ".json") if isinstance(a, str) and a.startswith("@")
            else a for a in args]
    if kind == "h2":
        return _strip(forms.verify_h2_decomposition(*args), "L", "A")
    if kind == "forms":
        return _strip(forms.verify_forms_decomposition(*args), "L", "A")
    if kind == "der":
        return _strip(der.verify_der_decomposition(*args), "L", "A")
    if kind == "cohomology":
        lie, assoc, module, degree = args
        algebra = alg.build_lie(lie)
        if assoc is not None:
            algebra = alg.current(algebra, alg.build_assoc(assoc))
        mod = getattr(cochain, module + "_module")(algebra)
        res = cochain.cohomology(algebra, mod, degree)
        return {"Z": res.z_space.dim, "B": res.b_space.dim, "H": res.h_dim}
    if kind == "larsson":
        return _strip(graded.larsson_report(*args), "g")
    if kind == "sequence":
        lie, assoc = args
        if assoc is None:
            return _strip(der.sequence_maps(lie), "L")
        L, A = alg.build_lie(lie), alg.build_assoc(assoc)
        curr = alg.current(L, A)
        form = alg.product_form(alg.killing_form(L), alg.residue_form(A), curr)
        return _strip(der.sequence_maps(curr, form=form), "L")
    raise ValueError("unknown verdict kind %r" % kind)


def run_pass(workload, tables, tracer=None):
    from workloads import WORKLOADS, verdict_id
    out = []
    t_first = time.perf_counter()
    for kind, args in WORKLOADS[workload]:
        vid = verdict_id(kind, args)
        rec = {"id": vid}
        call = lambda: run_verdict(kind, args, tables)  # noqa: E731
        t0 = time.perf_counter()
        try:
            rec["summary"] = call() if tracer is None else tracer.run_verdict(vid, call)
        except Exception as exc:  # a raising verdict is a failed verdict, not a crash
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        rec["seconds"] = time.perf_counter() - t0
        out.append(rec)
    return out, time.perf_counter() - t_first


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--tables")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="append spans to this JSON-lines file")
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    load_currentalg(args.root)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(args.workload)
        tracer.install()
    verdicts, wall = run_pass(args.workload, args.tables, tracer)
    result = {"verdicts": verdicts, "wall_s": wall,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from spans import layer_metrics
        layers, balance = layer_metrics(tracer.spans, tracer.attrs)
        result["layers"] = layers
        result["unbalanced"] = [v for v, (total, root) in balance.items() if total != root]
        if args.spans:
            with open(args.spans, "a") as fh:
                tracer.write_spans(fh, args.pass_index)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
