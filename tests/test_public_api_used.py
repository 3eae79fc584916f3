"""Every public function and method of mibasis has a caller outside tests.

A public definition (a module-level function or a method of a module-level
class, whose name has no leading underscore) must be referenced somewhere
in the library other than its own body, or in a file of perfbench/: as a
name, an attribute, an imported name (the package's exports), or a string
that is a dotted name ending in it (perfbench's tracer patches its layers
by such names).  What only tests call is code the library does not need.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
LIBRARY = ROOT / "src" / "mibasis"
PERFBENCH = ROOT / "perfbench"

# Definitions kept for tests alone, each with its reason.
ALLOWED = {
    # reference implementations that tests compare the engines against
    "polymat.naive_mul": "schoolbook product, the reference of mat_mul",
    "oracle.striped_krylov": "the Krylov stack, the reference of lin's rows",
    "oracle.rational_kernel": "kernel reference of the nullspace tests",
    "oracle.reduces_to_zero": "membership reference of the nullspace tests",
    # a constructor that belongs with from_entries and from_coefficients
    "polymat.PolyMatrix.identity": "the identity matrix constructor",
}


def _references(tree: ast.AST) -> collections.Counter:
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                refs[node.value.rsplit(".", 1)[-1]] += 1
    return refs


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, definition node) of each public function and method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(LIBRARY.glob("*.py"))}
    refs = collections.Counter()
    for tree in trees.values():
        refs += _references(tree)
    for path in sorted(PERFBENCH.rglob("*.py")):
        refs += _references(ast.parse(path.read_text()))
    unused = []
    for path, tree in trees.items():
        for qualname, node in _public_definitions(path.stem, tree):
            if refs[node.name] - _references(node)[node.name] <= 0:
                unused.append(qualname)
    return unused


def test_every_public_definition_has_a_caller_outside_tests():
    unused = [name for name in unreferenced_public_names() if name not in ALLOWED]
    assert unused == []


def test_allowlist_names_existing_unreferenced_definitions():
    # an entry that gains a caller, or whose definition goes, leaves the list
    assert sorted(ALLOWED) == sorted(set(unreferenced_public_names()) & set(ALLOWED))
