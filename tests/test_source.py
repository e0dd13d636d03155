"""The package's source, read with the standard library's ast: no module
imports a name it does not use, and no module-level private function is
left without a caller."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ibap"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def names_read(node, skip=None):
    """The bare names and attribute names under node, outside the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from names_read(child, skip)


# __init__ imports the public names to expose them (see test_public_api)
@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    assert imported - set(names_read(tree)) == set()


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_function_has_a_caller(module):
    for fn in TREES[module].body:
        if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                and not fn.name.startswith("__")):
            callers = [name for tree in TREES.values()
                       for name in names_read(tree, skip=fn) if name == fn.name]
            assert callers, f"{module}: {fn.name} is referenced nowhere in the package"
