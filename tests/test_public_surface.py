"""The public surface of currentalg: every exported name earns its place.

A public name, one in the currentalg namespace or in a module's __all__,
must be read somewhere in src/ besides its own definition and __init__, or
be listed below with the reason it is exported anyway.  Assigning a name
does not read it.  A dead export then fails here instead of lingering.
"""

import ast
import importlib
import types
from functools import lru_cache
from pathlib import Path

import currentalg

SRC = Path(currentalg.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# name -> why it is public although nothing in src/ uses it
NO_USER_IN_SRC = {
    "center_lie": "Z(L), an ideal the paper's theorems are stated with",
    "derived_subalgebra": "[L, L], an ideal the paper's theorems are stated with",
    "square_assoc": "AA, an ideal the paper's theorems are stated with",
    "annihilator_assoc": "Ann(A), an ideal the paper's theorems are stated with",
    "graded_h2": "Larsson graded H^2 entry point for one degree",
    "graded_form_dims": "Larsson graded form dimensions, an API entry point",
    "graded_vs_whole": "Larsson graded slices against the whole complex",
    "serialize_algebra": "JSON writer documented in the README",
    "sl2_loop_derivation": "the outer derivation of acceptance criterion 8",
}

# names deleted from src/ that must not come back
DELETED = (
    # the dense Fraction layer
    "Matrix", "rref", "solve", "ce_differential", "form_to_map", "mul_vectors",
    # the sub-typed solves and the wrappers around condition spaces
    "FormSpace", "MapSpace", "tensor_form_span", "_type_table",
    "H2_TYPE_TABLE", "FORMS_TYPE_TABLE", "_factor_pair", "cochain_dim",
    # the sample grid of the pencil search
    "interpolate",
    # forward elimination and back-reduction, one incremental Gauss-Jordan now
    "_echelon", "_back_reduce", "_eliminate",
    # the per-kind axiom loops and the second adjoint builder, one of each now
    "_validate_jacobi", "_validate_associativity", "_adjoint_action",
    # the second reader of a vector's entries, folded into _as_int_row
    "_nonzero",
    # second owners of the flat L tensor A index, the cochain pairs and the
    # verify text: CurrentAlgebra.tensor, a result's domain, cmd_verify now
    "_tensor_vec", "_pairs", "_verify_lines", "cmd_verify_span", "cmd_verify_der",
    # the symmetry identities and their exact recheck branch, and the skew-only
    # square: forms of one symmetry are solved over cochain's pair domain now
    "_is_symmetry", "_fails_on_a_pair", "_skew_square",
    # the second Subspace constructor: Subspace(ambient_dim, rows) is the one
    "_from_pivots",
)


def public_names():
    names = {name for name, value in vars(currentalg).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    for module in MODULES:
        names.update(getattr(importlib.import_module("currentalg." + module),
                             "__all__", ()))
    return sorted(names)


def _reads(tree):
    """Names read in tree, as names or attributes, each outside any
    function or class of its own name (its definition, recursion included)."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if (name is not None and name not in inside
                and not isinstance(node.ctx, ast.Store)):
            found.add(name)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


@lru_cache(maxsize=None)
def reads_by_module():
    """{file name: names it reads} for every module of src/ but __init__,
    each file parsed once."""
    return {module + ".py": _reads(ast.parse((SRC / (module + ".py")).read_text()))
            for module in MODULES}


def users(name):
    """Modules of src/ (not __init__) that read name outside its definition."""
    return {path for path, names in reads_by_module().items() if name in names}


def test_every_public_name_has_a_user_in_src_or_a_reason():
    unused = [name for name in public_names() if not users(name)]
    assert sorted(set(unused) - set(NO_USER_IN_SRC)) == []


def test_the_allowlist_names_only_public_names_without_users():
    public = set(public_names())
    assert set(NO_USER_IN_SRC) <= public
    assert {name for name in NO_USER_IN_SRC if users(name)} == set()
    assert all(reason for reason in NO_USER_IN_SRC.values())


def test_assignments_are_not_users():
    tree = ast.parse("TABLE = (1, 2)\nobj.attr = TABLE\n"
                     "def f():\n    return f()\n")
    assert _reads(tree) == {"obj", "TABLE"}


def test_deleted_names_stay_gone():
    modules = [currentalg] + [importlib.import_module("currentalg." + module)
                              for module in MODULES]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("currentalg")]
    for name in DELETED:
        assert not any(hasattr(owner, name) for owner in modules + classes), name
        assert not users(name), name
