"""Config hygiene: every key the config schema accepts is read by the CLI."""

import ast
from pathlib import Path

from degenflow import cli

CLI_SOURCE = Path(cli.__file__)


def _section_of(node):
    """The section name of a `<...>.sections["name"]` or `sections["name"]`
    subscript, else None."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
        return None
    base = node.value
    named = (isinstance(base, ast.Attribute) and base.attr == "sections") or (
        isinstance(base, ast.Name) and base.id == "sections"
    )
    return node.slice.value if named else None


def _keys_read(tree):
    """(section, key) of every string subscript of a section dict, read
    directly (`cfg.sections["eigen"]["tol"]`) or through a name bound to it
    (`prob = cfg.sections["problem"]`, then `prob["p"]`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _section_of(node.value) is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = _section_of(node.value)
    read = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
        ):
            continue
        base = node.value
        section = aliases.get(base.id) if isinstance(base, ast.Name) else _section_of(base)
        if section is not None:
            read.add((section, node.slice.value))
    return read


def test_every_schema_key_is_read():
    """A key of `_SCHEMA` that cli.py never reads as a string subscript of
    its section dict fails: a key the parser accepts and nothing reads
    would be accepted and then ignored."""
    read = _keys_read(ast.parse(CLI_SOURCE.read_text()))
    unread = [
        f"[{section}] {key}"
        for section, schema in cli._SCHEMA.items()
        for key in schema
        if (section, key) not in read
    ]
    assert not unread


def test_key_scan_sees_reads_not_writes():
    """The scan sees a key read through an alias and directly, and misses
    one that is only written."""
    tree = ast.parse(
        "prob = cfg.sections['problem']\n"
        "x = prob['p'] + cfg.sections['eigen']['tol']\n"
        "prob['amplitude'] = 1.0\n"
    )
    assert _keys_read(tree) == {("problem", "p"), ("eigen", "tol")}
