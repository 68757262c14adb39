"""Known answers for every verdict the benchmark runs.

Three sources, all checked on every verdict:

* ``RECORDED`` (answers.json): the full summary of each catalog verdict,
  recorded once from the seed commit (baad123).  A dense-table verdict must
  reproduce the recorded summary of its catalog twin: the two tables differ
  by a change of basis, so every dimension must agree.
* ``PUBLISHED``: values fixed outside this benchmark: the acceptance tests'
  ``DER_EXPECTED``, ``LARSSON_EXPECTED`` and sequence dimensions, the README
  examples, Filippov's delta-derivations of sl2 (delta = -1 gives 5), and the
  Whitehead lemmas for a simple Lie algebra (H1 = H2 = 0, one invariant
  form, H3 = 1).
* every verdict boolean of the report must be true, and no report may
  carry a witness.

``KNOWN_DEFECTS`` lists report fields that the seed program computes in a
basis-dependent way.  For a dense verdict they are compared with the
catalog twin and a difference is reported as a note, not as a failure;
every other field must match exactly.
"""

import json
import os

from workloads import catalog_id

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")) as _fh:
    RECORDED = json.load(_fh)

VERDICT_BOOLS = ("span_in_Z", "Z_in_span", "equal", "verdict", "quadratic_presentation",
                 "v_after_u_zero", "w_after_v_in_B3", "exact_at_H1", "exact_at_B",
                 "u_injective")

_SIMPLE = {"H2": 0, "H1": 0, "B": 1, "H3": 1}

# catalog id -> [(path into the summary, expected value)]
PUBLISHED = {
    # acceptance criterion 3, DER_EXPECTED: (der_dim, inner); span equals der
    "der sl2 tpoly:2": [(("der_dim",), 9), (("span_dim",), 9), (("types", "inner"), 0),
                        # README: verify der --L sl2 --A tpoly:2
                        (("types",), {"i": 9, "ii": 1, "iii": 0, "inner": 0, "iv": 0,
                                      "ix": 0, "v": 0, "vi": 1, "vii": 0, "viii": 0,
                                      "x": 9})],
    "der sl2 tpoly:3": [(("der_dim",), 18), (("span_dim",), 18), (("types", "inner"), 3)],
    "der sl2 tpoly:4": [(("der_dim",), 22), (("span_dim",), 22), (("types", "inner"), 6)],
    # README examples
    "h2 heis3 tpoly:3": [(("dims",), {"Z2": 12, "span": 12, "types": {
        "ia": 6, "ib": 5, "iia": 1, "iib": 0, "iiia": 3, "iiib": 3, "iva": 3, "ivb": 0}})],
    "forms heis3 tpoly:3": [(("dims",), {"Z2": 15, "span": 15, "types": {
        "ia": 6, "ib": 1, "iia": 9, "iib": 1, "iiia": 6, "iiib": 0}})],
    "h2 sl2 tpoly:3": [((), {"Z_in_span": True, "span_in_Z": True, "theorem": "h2",
                             "dims": {"Z2": 11, "span": 11, "types": {
                                 "ia": 6, "ib": 5, "iia": 0, "iib": 0, "iiia": 0,
                                 "iiib": 0, "iva": 3, "ivb": 0}}})],
    "cohomology heis3 - adjoint 2": [((), {"Z": 8, "B": 3, "H": 5})],
    # acceptance criterion 4, LARSSON_EXPECTED (H by degree from 2)
    "larsson sl2 6": [(("degrees", str(d), "H"), h) for d, h in zip(range(2, 7), [0, 5, 0, 0, 0])],
    "larsson sl3 6": [(("degrees", str(d), "H"), h) for d, h in zip(range(2, 7), [20, 0, 0, 0, 0])],
    # the closed-form profile: H2 in degree 2 is C(15, 2) - 15 for sl4, zero above
    "larsson sl4 4": [(("degrees", str(d), "H"), h) for d, h in zip(range(2, 5), [90, 0, 0])],
    # acceptance criterion 7 and the Whitehead lemmas
    "sequence sl2 -": [(("dims",), _SIMPLE)],
    "sequence sl4 -": [(("dims",), _SIMPLE)],
    "sequence sl2 tpoly:3": [(("mode",), "form"),
                             (("dims",), {"H2": 8, "H1": 15, "B": 7, "H3": 12})],
}

# Filippov, delta-derivations of Lie algebras (1998): on sl2 the delta = -1
# derivations form a 5-dimensional space; every sl2 pair whose A-side
# pencil admits the value reports it
for _a in ("tpoly:2", "tpoly:3", "tpoly:4"):
    PUBLISHED["der sl2 " + _a].append((("lambda", "i", "values", "-1"), [5, None]))

# (verdict kind, path) -> why the field depends on the basis
KNOWN_DEFECTS = {
    ("der", ("types", "ii")):
        "the lie_left pencil rows skip i == j, so [D x, x] = 0 is never imposed "
        "and the type ii family depends on the basis",
    ("der", ("lambda", "ii", "values")):
        "same lie_left pencil defect: its kernel dimensions depend on the basis",
}


def _get(summary, path):
    for key in path:
        summary = summary[key]
    return summary


def _matches(expected, got):
    """Equality where a None inside an expected list matches anything."""
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        return all(e is None or _matches(e, g) for e, g in zip(expected, got))
    return expected == got


def _diff(expected, got, path=()):
    """Paths at which two JSON values differ (leaves only)."""
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(expected) | set(got)):
            if key not in expected or key not in got:
                out.append(path + (key,))
            else:
                out.extend(_diff(expected[key], got[key], path + (key,)))
        return out
    return [] if expected == got else [path]


def check(kind, args, summary):
    """(problems, notes) for one verdict; the verdict passes when problems is empty."""
    cid = catalog_id(kind, args)
    dense = any(isinstance(a, str) and a.startswith("@") for a in args)
    problems, notes = [], []
    recorded = RECORDED.get(cid)
    if recorded is None:
        problems.append("no recorded answer for %s" % cid)
    else:
        for path in _diff(recorded, summary):
            defect = next((why for (k, p), why in KNOWN_DEFECTS.items()
                           if dense and k == kind and path[:len(p)] == p), None)
            where = "/".join(map(str, path)) or "(summary)"
            if defect is None:
                problems.append("%s differs from the recorded answer" % where)
            else:
                notes.append("known defect at %s: %s" % (where, defect))
    for path, value in PUBLISHED.get(cid, ()):
        try:
            got = _get(summary, path)
        except (KeyError, TypeError):
            got = None
        if not _matches(value, got):
            problems.append("%s = %r, published %r" % ("/".join(path) or "(summary)", got, value))
    for key in VERDICT_BOOLS:
        if key in summary and summary[key] is not True:
            problems.append("%s is not true" % key)
    if "witness" in summary:
        problems.append("report carries a witness")
    return problems, notes
