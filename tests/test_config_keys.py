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
    directly (`cfg.sections["eigen"]["tol"]`), through a name bound to it
    (`prob = cfg.sections["problem"]`, then `prob["p"]`), or through the
    parameter of a function of the module that it is passed to
    (`_reads(cfg.command, cfg.sections["problem"])`, then `problem["weight"]`
    in `def _reads(command, problem)`)."""
    params = {node.name: [arg.arg for arg in node.args.args]
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    aliases = {}

    def section_of(node):
        return aliases.get(node.id) if isinstance(node, ast.Name) else _section_of(node)

    bound = None
    while bound != aliases:  # until a pass binds no new name
        bound = dict(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and section_of(node.value) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = section_of(node.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = params.get(node.func.id, ())
                passed = [*zip(names, node.args),
                          *((kw.arg, kw.value) for kw in node.keywords if kw.arg in names)]
                for name, value in passed:
                    if section_of(value) is not None:
                        aliases[name] = section_of(value)
    read = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
        ):
            continue
        section = section_of(node.value)
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
    """The scan sees a key read through an alias, directly, and through the
    parameters a section is passed to, by position, by keyword or as an
    alias, and misses one that is only written."""
    tree = ast.parse(
        "prob = cfg.sections['problem']\n"
        "x = prob['p'] + cfg.sections['eigen']['tol']\n"
        "prob['amplitude'] = 1.0\n"
        "def reads(command, problem, scan=None):\n"
        "    return problem['weight'], scan['values']\n"
        "reads(cfg.command, cfg.sections['problem'], scan=cfg.sections['scan'])\n"
        "def forwards(problem_again):\n"
        "    return problem_again['mode']\n"
        "forwards(prob)\n"
    )
    assert _keys_read(tree) == {("problem", "p"), ("eigen", "tol"), ("problem", "weight"),
                                ("scan", "values"), ("problem", "mode")}


def test_command_table_names_schema_sections_and_keys():
    """Every section a command of `_COMMANDS` reads is a `_SCHEMA` section
    other than the top level, and every [problem] key it or a reaction
    family never reads is a `_SCHEMA` [problem] key: a misspelt key there
    would stop that key from being rejected."""
    sections = set(cli._SCHEMA) - {""}
    problem_keys = set(cli._SCHEMA["problem"])
    for command, (run, read, never_read) in cli._COMMANDS.items():
        assert callable(run)
        assert set(read) <= sections, command
        assert set(never_read) <= problem_keys, command
    for reaction, never_read in cli._REACTION_KEYS_UNREAD.items():
        assert cli._SCHEMA["problem"]["reaction"][0](reaction) == reaction
        assert set(never_read) <= problem_keys, reaction

