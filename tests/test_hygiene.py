"""Source hygiene of the package, read with ``ast`` alone.

Every name a module imports is used there, unless its import line says
``# noqa: F401`` (a name kept so that outside tooling can patch it in
that module); ``__init__.py`` only re-exports.  Every private function or
method defined in the package is referenced somewhere in the package
besides its own definition.  No module but ``field.py`` reads an
attribute that a ``FieldCtx`` keeps for choosing its arithmetic route
(tables, the reduction, the memos, the span automaton): the other
modules reach the route only through the context's methods.  No module
but ``field.py`` forms the text of a cap refusal: every enumeration is
held to its cap by the one guard there.
"""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gablab"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), ast.parse(text, filename=str(path))


def _name_counts(tree) -> collections.Counter:
    """Occurrences of every bare name and every attribute name in the tree."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    lines, tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "annotations" and name not in used:
                unused.append(name)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_private_function_is_referenced():
    defined, referenced = [], collections.Counter()
    for path in MODULES:
        _, tree = _parse(path)
        referenced += _name_counts(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append((path.name, node))
    # A function's references to itself (recursion) do not keep it alive.
    dead = [f"{mod}: {node.name}" for mod, node in defined
            if referenced[node.name] <= _name_counts(node)[node.name]]
    assert not dead, f"private functions with no reference: {dead}"


# FieldCtx attributes that only field.py may read.
ROUTE_ATTRS = frozenset({"_exp", "_log", "_zech", "_red", "_n1", "_mod_int", "_inv_memo",
                         "_span_zero", "_span_rows"})


def test_only_field_reads_the_route_attributes():
    reads = []
    for path in MODULES:
        if path.name == "field.py":
            continue
        _, tree = _parse(path)
        reads += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ROUTE_ATTRS]
    assert not reads, f"route attributes read outside field.py: {reads}"


# Phrases of a cap refusal, which only field.py's guard may form.
CAP_PHRASES = ("exceed the", "cap must be an integer")


def test_one_module_forms_cap_refusals():
    formed = []
    for path in MODULES:
        if path.name == "field.py":
            continue
        _, tree = _parse(path)
        docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        formed += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and id(node) not in docs and any(ph in node.value for ph in CAP_PHRASES)]
    assert not formed, f"cap refusals formed outside field.py: {formed}"
