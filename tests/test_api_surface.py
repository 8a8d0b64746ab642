"""The public functions of the package are the ones the package uses.

Every public module-level function in ``src/csstensor`` must be referenced
somewhere in ``src/`` outside its own definition, or be listed below with
the reason it stays; every private one must be referenced there with no
exception.  A function that only tests call belongs in the tests.
Every field of a value or record class in ``src/`` must be read as an
attribute somewhere in ``src/``: a field nothing reads is computed for
nobody.  The fields are the names in a class's ``__slots__`` or the field
list of its ``namedtuple`` base.  So must every public method, property
and classmethod of a class in ``src/`` be read, unless it is listed
below with the reason it stays.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import csstensor

SRC = Path(csstensor.__file__).resolve().parent
BENCHMARK = SRC.parent.parent / "BENCHMARK.json"

ALLOWED = {
    "code_to_json": "named by BENCHMARK.json's per-layer metrics; oracle of dump_code",
}

ALLOWED_METHODS = {
    "BinMatrix.identity": "test constructor",
    "BinMatrix.from_rows": "test constructor",
    "BinVector.weight": "test constructor",
    "ChainComplex.single": "test constructor",
}


def _public_functions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that the module refers to outside each function's own def."""
    modules = {path.stem for path in SRC.glob("*.py")}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    refs = set()
    for node in tree.body:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(imported.get(sub.id, (module, sub.id)))
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in modules
            ):
                found.add((sub.value.id, sub.attr))
        if isinstance(node, ast.FunctionDef):
            found.discard((module, node.name))
        refs |= found
    return refs


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _used(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    return set().union(*(_references(module, tree) for module, tree in trees.items()))


def test_public_functions_are_used_in_src():
    trees = _trees()
    used = _used(trees)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_functions(tree)
        if (module, name) not in used and name not in ALLOWED
    ]
    assert unused == []


def test_private_functions_are_used_in_src():
    trees = _trees()
    used = _used(trees)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and (module, node.name) not in used
    ]
    assert unused == []


def test_allowlist_is_current():
    defined = {name for tree in _trees().values() for name in _public_functions(tree)}
    assert set(ALLOWED) <= defined


def test_traced_benchmark_names_are_public_functions():
    """``bench/run.py --trace 1`` stops on a ``layer.fn.{self_s,calls,total_s}``
    metric whose function the tracer did not wrap: a public function of ``src/``."""
    trees = _trees()
    public = {(module, name) for module, tree in trees.items() for name in _public_functions(tree)}
    named = [
        (match[1], match[2], match[0])
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]
        if (match := re.fullmatch(r"(\w+)\.(\w+)\.(?:self_s|calls|total_s)", metric["name"]))
    ]
    assert named
    assert [metric for module, fn, metric in named if (module, fn) not in public] == []


def _public_methods(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(class, name) of every public method, property and classmethod in ``src/``."""
    return [
        (cls.name, stmt.name)
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    ]


def _attributes_read(trees: dict[str, ast.Module]) -> set[str]:
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_public_methods_are_read_in_src():
    trees = _trees()
    read = _attributes_read(trees)
    unread = [
        f"{cls}.{name}"
        for cls, name in _public_methods(trees)
        if name not in read and f"{cls}.{name}" not in ALLOWED_METHODS
    ]
    assert unread == []


def test_method_allowlist_is_current():
    defined = {f"{cls}.{name}" for cls, name in _public_methods(_trees())}
    assert set(ALLOWED_METHODS) <= defined


def _strings(node: ast.expr) -> list[str]:
    """The names in a string constant ("a b c") or a tuple or list of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.replace(",", " ").split()
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for elt in node.elts for name in _strings(elt)]
    return []


def _fields(cls: ast.ClassDef) -> list[str]:
    """The declared fields of a class: see the module docstring."""
    fields = [
        name
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for name in _strings(stmt.value)
        if name != "__weakref__"
    ]
    for base in cls.bases:
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
            fields += _strings(base.args[1])
    return fields


def test_record_fields_are_read_in_src():
    trees = _trees()
    read = _attributes_read(trees)
    declared = {
        f"{module}.{cls.name}": fields
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and (fields := _fields(cls))
    }
    # At least the 12 classes and 56 fields found today: the value and
    # record classes and slotted helpers such as css._Rows.  Fewer means
    # the parse above lost some and the check below would pass on nothing.
    assert len(declared) >= 12
    assert sum(map(len, declared.values())) >= 56
    unread = [
        f"{cls}.{name}" for cls, names in declared.items() for name in names if name not in read
    ]
    assert unread == []


def test_only_css_builds_a_bare_code():
    """Outside ``css.py`` a code comes from ``css.from_matrices`` or
    ``css.from_complex``, which establish orthogonality; the bare
    ``CssCode(...)`` constructor checks shapes only."""
    trees = _trees()
    calls = [
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "CssCode" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert "css" in calls
    assert [module for module in calls if module != "css"] == []


def test_one_helper_raises_the_ceiling():
    """The resource ceiling is one check, ``css._check_ceiling``:
    ``css.from_complex`` calls it for every product and power, and a
    reduced power's dims go to it before their zero complex is made.
    Nowhere else predicts n against the ceiling."""
    trees = _trees()
    raisers = [
        (module, func.name)
        for module, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and "ResourceCeiling" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))
    ]
    assert raisers == [("css", "_check_ceiling")]


def _scopes(node: ast.AST, match, scope: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    """The class and function scopes of every node under ``node`` that ``match`` accepts."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    found = [scope] if match(node) else []
    for child in ast.iter_child_nodes(node):
        found += _scopes(child, match, scope)
    return found


def _is_none_test_of_supports(node: ast.AST) -> bool:
    """Whether ``node`` compares a ``_supports`` with ``None``."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sides) and any(
        getattr(s, "attr", getattr(s, "id", None)) == "_supports" for s in sides
    )


def test_only_support_asks_how_a_matrix_was_built():
    """A matrix has two faces, int rows and supports, and two conversions:
    ``BinMatrix.support`` (ints to supports) and ``_SupportMatrix`` (supports
    to ints).  Every other reader reads one face and never branches on
    which one the matrix was built with."""
    found = [
        (module, *scope)
        for module, tree in _trees().items()
        for scope in _scopes(tree, _is_none_test_of_supports)
    ]
    assert ("gf2", "BinMatrix", "support") in found
    assert [s for s in found if s[:2] != ("gf2", "_SupportMatrix")
            and s != ("gf2", "BinMatrix", "support")] == []


# The producers that build their int rows themselves, from matrices already
# built or from sizes they check: the only callers of ``BinMatrix._of_rows``.
ROW_PRODUCERS = {
    ("gf2", "BinMatrix", "zeros"),
    ("gf2", "BinMatrix", "identity"),
    ("gf2", "kernel_basis"),
    ("gf2", "matmul"),
    ("gf2", "kron"),
    ("rand", "random_matrix"),
    ("rand", "_random_combinations"),
}


def _calls_of_rows(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_of_rows"


def test_only_row_producers_skip_the_checks():
    """``BinMatrix._of_rows`` checks nothing, so only producers whose rows
    cannot fail ``BinMatrix.__init__``'s checks call it: every other caller,
    and every file or user input, goes through the checked constructor."""
    found = {
        (module, *scope)
        for module, tree in _trees().items()
        for scope in _scopes(tree, _calls_of_rows)
    }
    assert found == ROW_PRODUCERS


def _calls_distance_result(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "DistanceResult" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_one_merge_builds_results():
    """A ``DistanceResult`` is built by the search that certifies it,
    ``css._Search.run``, or by ``css._bracket``, the one merge of a result
    with another bound: a second merge would bring a second rule for the
    ``exact`` flag."""
    found = {
        (module, *scope)
        for module, tree in _trees().items()
        for scope in _scopes(tree, _calls_distance_result)
    }
    assert found == {("css", "_Search", "run"), ("css", "_bracket")}
