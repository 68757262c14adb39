"""The benchmark's workloads: one pass is a fixed list of verdicts.

A verdict is ``(kind, args)``.  Catalog arguments are ``currentalg``
descriptors; an argument written ``@name`` is the generated dense table
``<tables>/<name>.json`` (see gentables.py).  Each dense verdict also names
its catalog twin, the same pair in the catalog basis, whose recorded answer
it must reproduce.

This module imports nothing from ``currentalg``: the parent process reads
it to check answers, and the worker reads it to make the calls.
"""

GRID_L = ("sl2", "heis3", "abelian:4")
GRID_A = ("tpoly:2", "tpoly:3", "tpoly1:3", "zero:2")


def _verdict_grid():
    out = []
    for lie in GRID_L:
        for assoc in GRID_A:
            out.append(("h2", (lie, assoc)))
            out.append(("forms", (lie, assoc)))
    # the slowest verdict of the workload, long enough to time steadily
    out.append(("forms", ("sl3", "tpoly:3")))
    return tuple(out)


# Seeded dense tables (see gentables.py): the same pairs in another basis,
# read through the JSON parse and validation path, with dense rows and
# larger coefficients.  They are the only inputs that change with the seed.
DENSE_FORMS = (
    ("forms", ("@sl2", "@tpoly1-3")),
    ("h2", ("@heis3", "@tpoly-3")),
    ("forms", ("@heis3", "@tpoly-3")),
    ("forms", ("@sl3", "@tpoly-2")),
)
DENSE_DER = (
    ("der", ("@sl2", "@tpoly-3")),
    ("der", ("@heis3", "@tpoly-3")),
)

WORKLOADS = {
    # the paper's two form theorems over a grid of catalog pairs and on dense
    # tables: condition rows plus post-solve rechecks, no pencil
    "verdict-grid": _verdict_grid() + DENSE_FORMS,
    # derivation verdicts whose cost is the non-degenerate lambda-pencils:
    # sl2 (9 unknowns, shared by the three tpoly pairs) and K[t]/(t^4)
    # (16 unknowns); the dense sl2 and heis3 tables add map-row assembly
    "der-pencil": (
        ("der", ("sl2", "tpoly:2")),
        ("der", ("sl2", "tpoly:3")),
        ("der", ("sl2", "tpoly:4")),
        ("der", ("sl2", "tpoly1:4")),
    ) + DENSE_DER,
    # large sparse cochain systems with B-in-Z membership reads, no pencil
    "cochain-scale": (
        ("cohomology", ("sl3", "tpoly:3", "adjoint", 2)),
        ("cohomology", ("sl3", "tpoly:3", "trivial", 3)),
        ("cohomology", ("heis3", None, "adjoint", 2)),
        ("larsson", ("sl4", 4)),
        ("larsson", ("sl2", 6)),
        ("larsson", ("sl3", 6)),
        ("sequence", ("sl4", None)),
        ("sequence", ("sl2", None)),
        ("sequence", ("sl2", "tpoly:3")),
        ("sequence", ("sl2", "tpoly:4")),
    ),
}

# dense table name -> catalog descriptor of the same algebra
CATALOG_TWIN = {
    "sl2": "sl2", "heis3": "heis3", "sl3": "sl3",
    "tpoly-2": "tpoly:2", "tpoly-3": "tpoly:3",
    "tpoly1-3": "tpoly1:3",
}


def verdict_id(kind, args):
    """Stable name of a verdict, e.g. ``h2 sl2 tpoly:3``."""
    return " ".join([kind] + ["-" if a is None else str(a) for a in args])


def catalog_id(kind, args):
    """The id of the catalog twin: dense ``@name`` arguments replaced."""
    return verdict_id(kind, [CATALOG_TWIN[a[1:]] if isinstance(a, str) and a.startswith("@")
                             else a for a in args])
