"""Source hygiene: every module-level import of the package is used, and
every public function or class is reached from the package itself."""

import ast
from pathlib import Path

import pytest

import degenflow

SOURCES = sorted(
    path for path in Path(degenflow.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    """A module-level import whose name the module never reads fails,
    unless its line carries the `noqa: F401` marker."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


# public names that only tests call: they are the oracles the operator,
# discretization and acceptance tests compare against
TEST_ORACLES = {"variational_dot", "integrate"}


def _public_members(tree):
    """(line, name) of each public top-level function and class, and of each
    public method and property defined in a top-level class body."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.lineno, f"{node.name}.{member.name}"


def test_public_functions_are_reached():
    """A public top-level function or class, or a public method or property
    of a package class, that no module of the package names (as a bare name
    or an attribute) fails, unless it is a test oracle: exporting it from
    __init__ does not count as a use.  A method is matched by its own name,
    so one named like a numpy or builtin attribute that the package reads
    passes unseen."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = [
        f"{path.name}:{line} {name}"
        for path, tree in zip(SOURCES, trees)
        for line, name in _public_members(tree)
        if name.rpartition(".")[2] not in referenced | TEST_ORACLES
    ]
    assert not unreached
