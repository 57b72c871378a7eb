"""Source hygiene: every module-level import of the package is used."""

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
