"""The public surface of currentalg: every exported name earns its place.

A public name of the package must be used somewhere in src/ besides its own
definition and __init__, or be listed below with the reason it is exported
anyway.  A dead export then fails here instead of lingering.
"""

import ast
import types
from pathlib import Path

import currentalg
import currentalg.algebras

SRC = Path(currentalg.__file__).resolve().parent

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


def public_names():
    return sorted(name for name, value in vars(currentalg).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def users(name):
    """Modules of src/ (not __init__) that read name outside its definition."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                continue  # its own definition, recursion included
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                found.add(path.name)
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_user_in_src_or_a_reason():
    unused = [name for name in public_names() if not users(name)]
    assert sorted(set(unused) - set(NO_USER_IN_SRC)) == []


def test_the_allowlist_names_only_public_names_without_users():
    public = set(public_names())
    assert set(NO_USER_IN_SRC) <= public
    assert {name for name in NO_USER_IN_SRC if users(name)} == set()
    assert all(reason for reason in NO_USER_IN_SRC.values())


def test_the_dense_fraction_layer_is_gone():
    for name in ("Matrix", "rref", "solve", "ce_differential", "form_to_map"):
        assert not hasattr(currentalg, name), name
        assert not users(name), name
    assert not hasattr(currentalg.algebras.AssocAlgebra, "mul_vectors")
    assert not hasattr(currentalg.algebras.LieAlgebra, "mul_vectors")
