"""Source-level invariants of the package."""

import ast
from pathlib import Path

import logderiv

SRC = Path(logderiv.__file__).parent


def test_no_assert_statements():
    # certification checks must still run under `python -O`, which strips asserts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def _references(node, name, scope=None):
    """(enclosing function, line) of every name, attribute, import or string `name`."""
    if isinstance(node, ast.FunctionDef):
        scope = node.name
    label = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}
    if getattr(node, label.get(type(node), ""), None) == name:
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _references(child, name, scope)


def test_mora_only_inside_normal_form():
    # Mora's weak normal form only serves the local standard basis, through
    # engine.normal_form; every other local question uses the global engine
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{line} in {scope}"
            for scope, line in _references(tree, "mora_nf")
            if (path.name, scope) != ("engine.py", "normal_form")
        ]
    assert not found, f"mora_nf named outside engine.normal_form: {found}"
