"""Rules checked on the library's source text."""

import ast
from pathlib import Path

import bridgeburn


def test_library_has_no_bare_assert():
    """`python -O` strips assert statements, so the library raises typed
    errors instead."""
    modules = sorted(Path(bridgeburn.__file__).parent.glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) >= 12
    assert offenders == []
