"""Rules checked on the library's source text."""

import ast
from pathlib import Path

import bridgeburn


def _raises_assertion_error(node) -> bool:
    """Whether node is `raise AssertionError` or `raise AssertionError(...)`."""
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_bare_assert():
    """`python -O` strips assert statements, and a bare AssertionError
    names no failure a caller can catch, so the library raises typed
    errors from its own modules instead."""
    modules = sorted(Path(bridgeburn.__file__).parent.glob("*.py"))
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert len(modules) >= 12
    assert offenders == []


def _called_name(node) -> str | None:
    """The name a call node calls, as `f(...)` or `module.f(...)`."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def test_component_searches_are_called_only_from_graph_and_engine():
    """Outside graph.py, only engine.py searches components: PackedGame's
    view memo and robber_component_check.  So no other module grows a
    component memo of its own."""
    searches = {"component_bitmask", "component_after_burn"}
    modules = sorted(Path(bridgeburn.__file__).parent.glob("*.py"))
    callers = {
        path.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _called_name(node) in searches
    }
    assert len(modules) >= 12
    assert callers == {"graph.py", "engine.py"}
