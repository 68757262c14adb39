"""Spans around the public functions of currentalg, recorded from outside.

``Tracer.install`` wraps every public function of the six library modules
and the membership/basis methods of ``Subspace``, and rebinds each wrapped
name in every ``currentalg`` namespace that holds it (``from .exactlin
import kernel_from_rows`` leaves a separate binding in each importer).
Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, verdict]``; ``parent`` is the
index of the enclosing span or -1.  Spans nest strictly because the program
is single-threaded, so a span's self time is its duration minus the
durations of its direct children.  ``layer_metrics`` turns the spans of one
pass into the per-layer metrics the benchmark reports.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("exactlin", "algebras", "cochain", "forms", "derivations", "graded")

# Subspace methods that are layer boundaries: basis builds and membership reads
SUBSPACE_METHODS = {
    "from_vectors": "exactlin.from_vectors",
    "reduce": "exactlin.reduce",
    "contains_vector": "exactlin.reduce",
    "contains": "exactlin.reduce",
}

# span names shared by several public functions; the rest are "<module>.<name>"
SPAN_NAMES = {
    "exactlin.subspace_sum": "exactlin.intersect_sum",
    "exactlin.subspace_intersect": "exactlin.intersect_sum",
    "exactlin.subspace_contains": "exactlin.reduce",
    "algebras.build_lie": "algebras.build",
    "algebras.build_assoc": "algebras.build",
    "algebras.parse_algebra_file": "algebras.build",
    "algebras.algebra_from_dict": "algebras.build",
    "forms.tensor_form_span": "forms.tensor_span",
    "forms.decomposable_span": "forms.tensor_span",
    "forms.verify_h2_decomposition": "forms.verify",
    "forms.verify_forms_decomposition": "forms.verify",
    "derivations.verify_der_decomposition": "derivations.verify",
}

ROOT = "verdict"
ATTRS = "perfbench.attrs"   # attribute bookkeeping, kept out of the layer's span


def _bits(space):
    """Largest numerator or denominator bit-length in a Subspace basis."""
    best = 0
    for vec in space.basis:
        for x in vec:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _kernel_attrs(args, result):
    ncols, rows = args
    return {"rows": len(rows), "unknowns": ncols,
            "rank": ncols - result.dim, "bits": _bits(result)}


def _determinant_attrs(args, result):
    return {"size": args[0].nrows}


def _pencil_attrs(args, result):
    return {"confirmed": len(result.lambdas)}


ATTR_FUNCS = {
    "exactlin.kernel_from_rows": _kernel_attrs,
    "exactlin.determinant": _determinant_attrs,
    "derivations.lambda_candidates": _pencil_attrs,
}


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self, workload):
        self.workload = workload
        self.verdict = None
        self.spans = []
        self.attrs = {}
        self._stack = []
        self._installed = []

    def open(self, name):
        i = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1,
                           self.verdict])
        self._stack.append(i)
        self.spans[i][1] = time.perf_counter_ns()
        return i

    def close(self, i):
        self.spans[i][2] = time.perf_counter_ns()
        if self._stack.pop() != i:
            raise RuntimeError("span %d closed out of order" % i)

    def run_verdict(self, verdict, fn):
        """Call fn() under a root span named ROOT tagged with the verdict id."""
        self.verdict = verdict
        i = self.open(ROOT)
        try:
            return fn()
        finally:
            self.close(i)
            self.verdict = None

    def wrap(self, fn, name):
        tracer = self
        attrs = ATTR_FUNCS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if attrs is not None:
                j = tracer.open(ATTRS)
                try:
                    tracer.attrs[i] = attrs(args, result)
                finally:
                    tracer.close(j)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self):
        """Wrap the public functions and rebind them in every currentalg namespace."""
        mods = {m: importlib.import_module("currentalg." + m) for m in MODULES}
        package = importlib.import_module("currentalg")
        replace = {}
        for mname, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    full = "%s.%s" % (mname, attr)
                    replace[id(obj)] = (obj, self.wrap(obj, SPAN_NAMES.get(full, full)))
        namespaces = [package] + list(mods.values())
        namespaces.append(importlib.import_module("currentalg.cli"))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, dict):
                    # dispatch tables such as {"trivial": trivial_module}
                    for key, inner in list(value.items()):
                        hit = replace.get(id(inner))
                        if hit is not None and hit[0] is inner:
                            value[key] = hit[1]
                            self._installed.append((value, key, inner))
                    continue
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._installed.append((ns, attr, value))
        subspace = mods["exactlin"].Subspace
        for attr, name in SUBSPACE_METHODS.items():
            raw = subspace.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            setattr(subspace, attr, new)
            self._installed.append((subspace, attr, raw))
        leftovers = unwrapped_references(namespaces, {id(o) for o, _ in replace.values()})
        if leftovers:
            raise RuntimeError("public functions left unwrapped: %s" % ", ".join(leftovers))

    def uninstall(self):
        for target, attr, value in reversed(self._installed):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._installed = []

    def write_spans(self, fh, pass_index):
        """Append one JSON line per span: name, start, end, parent, workload, verdict."""
        for i, (name, start, end, parent, verdict) in enumerate(self.spans):
            rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                   "parent": parent, "workload": self.workload,
                   "verdict": verdict, "pass": pass_index}
            if i in self.attrs:
                rec["attrs"] = self.attrs[i]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def unwrapped_references(namespaces, original_ids):
    """Names in the namespaces (and one level into their dicts, lists and
    tuples) that still hold an original function object."""
    out = []
    for ns in namespaces:
        for attr, value in vars(ns).items():
            inner = ()
            if isinstance(value, dict):
                inner = value.values()
            elif isinstance(value, (list, tuple)):
                inner = value
            if id(value) in original_ids or any(id(v) in original_ids for v in inner):
                out.append("%s.%s" % (ns.__name__, attr))
    return out


def self_times(spans):
    """Self time of every span, in ns, after checking that spans nest.

    Children must lie inside their parent and must not overlap each other;
    a ValueError names the first span that breaks this.
    """
    child_ns = [0] * len(spans)
    last_child_end = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            raise ValueError("span %d (%s) ends before it starts" % (i, name))
        if parent >= 0:
            pstart, pend = spans[parent][1], spans[parent][2]
            if start < pstart or end > pend:
                raise ValueError("span %d (%s) leaves its parent %d" % (i, name, parent))
            if start < last_child_end.get(parent, pstart):
                raise ValueError("span %d (%s) overlaps a sibling" % (i, name))
            last_child_end[parent] = end
            child_ns[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child_ns)]


def root_balance(spans, selfs):
    """{verdict: (sum of self ns of its spans, root span ns)}; the two agree
    exactly when every span of the verdict hangs under its root."""
    out = {}
    for (name, start, end, parent, verdict), s in zip(spans, selfs):
        total, root = out.get(verdict, (0, 0))
        if parent < 0 and name == ROOT:
            root += end - start
        out[verdict] = (total + s, root)
    return out


def outermost(spans):
    """True for each span with no ancestor of the same name (spans are in
    open order, so a parent always comes before its children)."""
    flags = [True] * len(spans)
    names_above = []      # per span: frozenset of names on the path above it
    for i, (name, _, _, parent, _) in enumerate(spans):
        above = (names_above[parent] | {spans[parent][0]}) if parent >= 0 else frozenset()
        names_above.append(above)
        flags[i] = name not in above
    return flags


def layer_metrics(spans, attrs):
    """Per-layer metrics of one pass.

    For every span name: ``.calls`` and ``.s`` count only outermost spans
    (calls into the layer from outside it), ``.self_s`` sums every span.
    Kernel solves add rows, rank, the largest unknown count and the largest
    coefficient bit-length of the returned basis; determinants add the
    largest order; the pencil search adds confirmed values over candidate
    kernel solves (its direct kernel children minus the generic probe).
    """
    selfs = self_times(spans)
    outer = outermost(spans)
    calls, incl, selfsum = {}, {}, {}
    for (name, start, end, _, _), s, o in zip(spans, selfs, outer):
        selfsum[name] = selfsum.get(name, 0) + s
        if o:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + (end - start)
    out = {}
    for name in selfsum:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = incl.get(name, 0) / 1e9
        out[name + ".self_s"] = selfsum[name] / 1e9
    k = "exactlin.kernel_from_rows"
    kattrs = [a for i, a in attrs.items() if spans[i][0] == k]
    out[k + ".rows"] = sum(a["rows"] for a in kattrs)
    out[k + ".rank"] = sum(a["rank"] for a in kattrs)
    out[k + ".unknowns_max"] = max((a["unknowns"] for a in kattrs), default=0)
    out[k + ".bits_max"] = max((a["bits"] for a in kattrs), default=0)
    out["exactlin.determinant.size_max"] = max(
        (a["size"] for i, a in attrs.items() if spans[i][0] == "exactlin.determinant"),
        default=0)
    solves = {}
    for name, _, _, parent, _ in spans:
        if name == k and parent >= 0 and spans[parent][0] == "derivations.lambda_candidates":
            solves[parent] = solves.get(parent, 0) + 1
    confirmed = sum(attrs[i]["confirmed"] for i in solves)
    candidates = sum(n - 1 for n in solves.values())
    out["derivations.lambda_candidates.confirmed"] = confirmed
    out["derivations.lambda_candidates.candidates"] = candidates
    return out, root_balance(spans, selfs)
