"""The public surface of currentalg: every exported name earns its place.

A public name, one in the currentalg namespace or in a module's __all__,
must be read somewhere in src/ besides its own definition and __init__, or
be listed below with the reason it is exported anyway.  Assigning a name
does not read it.  A dead export then fails here instead of lingering.

The same holds for options: every defaulted parameter of a public function
or class must be passed, by keyword or by position, by some call in src/
outside its own definition, or be listed below with the reason it is
public anyway.  An option nobody sets then fails here too.  A call counts
when it names the function bare or through a currentalg module alias; a
method call on some object does not.  Methods of public classes are not
checked, only functions and constructors.
"""

import ast
import importlib
import inspect
import types
from functools import lru_cache
from pathlib import Path

import currentalg

SRC = Path(currentalg.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# name -> why it is public although nothing in src/ uses it
NO_USER_IN_SRC = {
    "graded_h2": "Larsson graded H^2 entry point for one degree",
    "graded_form_dims": "Larsson graded form dimensions, an API entry point",
    "graded_vs_whole": "Larsson graded slices against the whole complex",
    "serialize_algebra": "JSON writer documented in the README",
    "sl2_loop_derivation": "the outer derivation of acceptance criterion 8",
    "subspace_intersect": "the exported lattice meet, which the exactlin and "
                          "symmetry-layer tests compare against",
}

# "function.parameter" -> why the option is public although no call in src/
# passes it
UNSET_OPTIONS = {
    "main.argv": "the entry point's argument list, which the tests drive",
    "serialize_algebra.path": "the file the JSON writer also writes to",
    "graded_h2.order": "the truncation window, widened to d + 3 by "
                       "acceptance criterion 9 to show the slices are stable",
    "graded_form_dims.order": "the truncation window, widened to d + 3 by "
                              "acceptance criterion 9",
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
    # the graded slice subclass, its second name for the domain's ranks and
    # their reader: a graded slice is a plain CochainSpaceResult now
    "GradedComponent", "pair_index", "_degree3_block_index",
    # members nothing read; flat and kernel_from_rows(n, []) stay
    "is_abelian", "unflat",
    # the ideal helpers nothing called (the map conditions kill_derived,
    # into_center, kill_square and into_annihilator encode those ideals),
    # and the report-name option of sequence_maps
    "center_lie", "derived_subalgebra", "square_assoc", "annihilator_assoc",
    "_products_span", "_annihilator", "lname",
    # the two-layer derivation verdict: verify_der_decomposition is one body
    "theorem_der_span",
    # the wrapper around algebras._named that each verdict calls directly
    "_resolve_pair",
)


def public_objects():
    """{name: object} for every public name."""
    objects = {name: value for name, value in vars(currentalg).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    for module in MODULES:
        mod = importlib.import_module("currentalg." + module)
        objects.update((name, getattr(mod, name))
                       for name in getattr(mod, "__all__", ()))
    return objects


def public_names():
    return sorted(public_objects())


def _walk(tree):
    """Every node of tree with the names of the functions and classes it
    lies in, itself included."""
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        yield node, inside
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _reads(tree):
    """Names read in tree, as names or attributes, each outside any
    function or class of its own name (its definition, recursion included)."""
    return {_name(node) for node, inside in _walk(tree)
            if _name(node) not in inside | {None}
            and not isinstance(node.ctx, ast.Store)}


def _module_aliases(tree):
    """Names tree binds to a module of currentalg, as in
    `from . import identities as ids`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, None), (0, "currentalg"))
            for alias in node.names if alias.name in MODULES}


def _callee(node, modules):
    """The name a call reaches a public function by: a bare name, or an
    attribute of a module alias in modules; None for any other call, such
    as a method of some object that happens to share the name."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return node.attr
    return None


def _passed(tree):
    """{called name: [(positional count, keywords)]} for every call in tree
    through a bare name or a currentalg module alias, outside any function
    or class of the called name.  The count is infinite once a *args is
    passed, and a **kwargs passes the keyword None."""
    calls = {}
    modules = _module_aliases(tree)
    for node, inside in _walk(tree):
        if (isinstance(node, ast.Call)
                and _callee(node.func, modules) not in inside | {None}):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(_callee(node.func, modules), []).append(
                (float("inf") if starred else len(node.args),
                 {k.arg for k in node.keywords}))
    return calls


@lru_cache(maxsize=None)
def trees():
    """{file name: syntax tree} for every module of src/ but __init__,
    each file parsed once."""
    return {module + ".py": ast.parse((SRC / (module + ".py")).read_text())
            for module in MODULES}


@lru_cache(maxsize=None)
def reads_by_module():
    """{file name: names it reads} for every module of src/ but __init__."""
    return {path: _reads(tree) for path, tree in trees().items()}


@lru_cache(maxsize=None)
def calls_in_src():
    """{called name: [(positional count, keywords)]} over every module of
    src/ but __init__."""
    calls = {}
    for tree in trees().values():
        for name, found in _passed(tree).items():
            calls.setdefault(name, []).extend(found)
    return calls


def options():
    """{"name.parameter": (name, position, parameter)} for every defaulted
    parameter of a public function or class (its constructor written in
    Python), position its index among the positional parameters, or None if
    it is keyword-only."""
    out = {}
    for name, obj in public_objects().items():
        if not inspect.isfunction(obj.__init__ if inspect.isclass(obj) else obj):
            continue
        params = list(inspect.signature(obj).parameters.values())
        positional = [p.name for p in params if p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        for p in params:
            if p.default is not p.empty:
                out["%s.%s" % (name, p.name)] = (
                    name, positional.index(p.name) if p.name in positional
                    else None, p.name)
    return out


def is_set(name, position, parameter, calls):
    """Whether one of calls, {called name: [(positional count, keywords)]},
    passes the parameter of name by keyword or by position."""
    return any(parameter in keywords or None in keywords
               or (position is not None and count > position)
               for count, keywords in calls.get(name, ()))


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


def test_every_option_is_set_in_src_or_has_a_reason():
    calls = calls_in_src()
    unset = [key for key, spec in options().items() if not is_set(*spec, calls)]
    assert sorted(set(unset) - set(UNSET_OPTIONS)) == []


def test_the_option_allowlist_names_only_options_nobody_sets():
    found, calls = options(), calls_in_src()
    assert set(UNSET_OPTIONS) <= set(found)
    assert {key for key in UNSET_OPTIONS if is_set(*found[key], calls)} == set()
    assert all(reason for reason in UNSET_OPTIONS.values())


def test_an_option_is_set_by_keyword_position_or_unpacking_but_not_by_itself():
    calls = _passed(ast.parse(
        "from . import graded as m\n"
        "f(1, b=2)\ng(*args)\nh(**kw)\nm.k(1, 2)\nobj.q(1, 2)\n"
        "def r(x, y=0):\n    return r(x, y)\n"))
    assert is_set("f", None, "b", calls) and not is_set("f", 1, "c", calls)
    assert is_set("f", 0, "a", calls)
    assert is_set("g", 5, "e", calls) and is_set("h", None, "e", calls)
    assert is_set("k", 1, "b", calls) and not is_set("k", 2, "c", calls)
    # a method of some object is not the public function of its name
    assert not is_set("q", 0, "a", calls)
    assert not is_set("r", 1, "y", calls)


def test_deleted_names_stay_gone():
    modules = [currentalg] + [importlib.import_module("currentalg." + module)
                              for module in MODULES]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("currentalg")]
    for name in DELETED:
        assert not any(hasattr(owner, name) for owner in modules + classes), name
        assert not users(name), name
