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
