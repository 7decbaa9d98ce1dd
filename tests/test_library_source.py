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


def _callers(names) -> set[str]:
    """The library modules that call any of `names`."""
    modules = sorted(Path(bridgeburn.__file__).parent.glob("*.py"))
    assert len(modules) >= 12
    return {
        path.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _called_name(node) in names
    }


def test_component_searches_are_called_only_from_graph_and_engine():
    """Outside graph.py, only engine.py searches components, in the view
    memo of PackedGame.  So no other module grows a component memo of its
    own."""
    assert _callers({"component_bitmask", "component_after_burn"}) == {"graph.py", "engine.py"}


def test_escape_is_tested_only_by_engine_and_solver():
    """The solver reads the escape off the canonical keys it stores; play
    and the arena's searches ask engine.robber_component_check.  So the
    arena cannot grow an escape test of its own."""
    assert _callers({"canonical", "escaped"}) == {"engine.py", "solver.py"}


def test_edge_legality_is_tested_only_by_engine():
    """Every move is checked by engine._unburned_edge, the one caller of
    Graph.edge_id: apply_cop_moves / apply_robber_move for play and
    records, PackedGame.apply for the arena's pinned side.  So the arena
    cannot grow a legality check of its own."""
    assert _callers({"_unburned_edge", "edge_id"}) == {"engine.py"}
