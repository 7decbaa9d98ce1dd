"""The packed rules of engine.PackedGame against an independent reference.

PackedGame is the library's only list of moves.  Before `canonical`, its
successors must decode to exactly the moves that minimax_oracle's own
`_cop_moves` / `_robber_moves` list, in the same order, on every
reachable state.  The order matters, not only the set: exhaust_vs_policy
expands its free side in that order, so its depth-first and breadth-first
searches, `nodes_searched` and counterexamples depend on it, and
`cop_dests` gives a counterexample's cop records by the same product
order.
"""

import itertools
import random

import pytest
from minimax_oracle import _cop_moves, _robber_moves

from bridgeburn.engine import (
    BRIDGE_BURNING,
    CLASSIC,
    COP_TURN,
    ROBBER_TURN,
    GameState,
    IllegalMoveError,
    PackedGame,
    apply_cop_moves,
    apply_robber_move,
    cop_move_options,
    is_capture,
)
from bridgeburn import engine
from bridgeburn.graph import build_graph, component_bitmask


def _reference(g, s, variant):
    """The oracle's successors of s, as GameStates in its order."""
    if s.phase == COP_TURN:
        teams = _cop_moves(g, s.burned, s.cops)
        return [GameState(s.burned, c, s.robber, ROBBER_TURN) for c in teams]
    moves = _robber_moves(g, s.burned, s.robber, variant.burning)
    return [GameState(b, s.cops, r, COP_TURN) for (b, r) in moves]


def _reachable(g, k, variant):
    """Every state reachable from any placement and start, captures excluded."""
    todo = [
        GameState(0, cops, r, COP_TURN)
        for cops in itertools.combinations_with_replacement(range(g.vertex_count), k)
        for r in range(g.vertex_count)
        if r not in cops
    ]
    seen = set(todo)
    while todo:
        s = todo.pop()
        yield s
        for t in _reference(g, s, variant):
            if t not in seen and not is_capture(t):
                seen.add(t)
                todo.append(t)


@pytest.mark.parametrize("variant", [BRIDGE_BURNING, CLASSIC])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "family,params",
    [("path", (4,)), ("cycle", (4,)), ("complete", (4,)), ("spider", (1, 2)), ("grid", (2, 3))],
)
def test_packed_successors_match_rules(fam, family, params, k, variant):
    g = fam(family, *params)
    game = PackedGame(g, k, variant)
    states = 0
    for s in _reachable(g, k, variant):
        states += 1
        key = game.encode(s)
        assert game.decode(key) == s
        listed = game.cop_successors if s.phase == COP_TURN else game.robber_successors
        assert [game.decode(t) for t in listed(key)] == _reference(g, s, variant)
    assert states > 20


def test_canonical_clears_far_edges_and_parks_far_cops():
    # path 0-1-2-3-4; burning 1-2 cuts the robber's side {2, 3, 4} off
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    game = PackedGame(g, 2)
    s = GameState(0b0011, (0, 2), 4, COP_TURN)
    key = game.canonical(game.encode(s))
    # edge 0-1 has no endpoint on the robber's side; edge 1-2 has one
    assert game.decode(key) == GameState(0b0010, (2, 5), 4, COP_TURN)
    assert not game.escaped(key) and not game.captured(key) and key & 1 == COP_TURN
    assert game.canonical(key) == key
    # cop moves keep the quotient: the sentinel cop has no moves
    assert sorted(game.decode(t).cops for t in game.cop_successors(key)) == [
        (2, 5), (3, 5)
    ]


def _canonical_reference(g, s):
    """s with the burned edges kept iff an endpoint is in the robber's
    component, and every cop outside it at the sentinel vertex n."""
    comp = component_bitmask(g, s.robber, s.burned)
    burned = sum(
        1 << eid
        for eid, (u, v) in enumerate(g.edges)
        if s.burned >> eid & 1 and (comp >> u & 1 or comp >> v & 1)
    )
    cops = tuple(sorted(c if comp >> c & 1 else g.vertex_count for c in s.cops))
    return GameState(burned, cops, s.robber, s.phase)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("family,params", [("path", (6,)), ("spider", (1, 2)), ("grid", (2, 3))])
def test_canonical_matches_reference(fam, family, params, k):
    """On every reachable state, and after each robber crossing from the
    parent's memoized view; both split and whole components occur."""
    g = fam(family, *params)
    game = PackedGame(g, k)
    whole = split = crossings = 0
    for s in _reachable(g, k, BRIDGE_BURNING):
        key = game.encode(s)
        want = game.encode(_canonical_reference(g, s))
        assert game.canonical(key) == want
        if component_bitmask(g, s.robber, s.burned) == (1 << g.vertex_count) - 1:
            whole += 1
        else:
            split += 1
        if s.phase != ROBBER_TURN:
            continue
        for t in game.robber_successors(key):
            if t >> game.robber_shift == key >> game.robber_shift:
                continue  # the robber stays
            crossings += 1
            fresh = PackedGame(g, k)  # so that t's view is built from key's
            fresh.canonical(key)
            reference = _canonical_reference(g, game.decode(t))
            assert fresh.canonical(t, key) == game.encode(reference)
    assert whole > 20 and split > 20 and crossings > 20


@pytest.mark.parametrize("variant", [BRIDGE_BURNING, CLASSIC])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family,params", [("path", (5,)), ("spider", (1, 2)), ("grid", (2, 3))])
def test_crossings_table_follows_the_rules(fam, family, params, k, variant):
    """On seeded random reachable RobberTurn keys, raw and canonical, the
    table lists the view of canonical(t, key) for each robber crossing t
    of robber_successors(key)[1:], in order; head | park(key, component)
    is that canonical key, so the table calls a state escaped exactly when
    some crossing's canonical key is."""
    g = fam(family, *params)
    game = PackedGame(g, k, variant)
    shift, m = game.robber_shift, game.vertex_mask
    states = [s for s in _reachable(g, k, variant) if s.phase == ROBBER_TURN]
    assert len(states) >= 10
    escapes = 0
    for s in random.Random(27).sample(states, min(len(states), 60)):
        for key in (game.encode(s), game.canonical(game.encode(s))):
            reference = PackedGame(g, k, variant)
            reference.canonical(key)  # key's view, for canonical(t, key)
            want = [reference.canonical(t, key) for t in game.robber_successors(key)[1:]]
            table = game.crossings(key)
            assert list(table) == [
                (component_bitmask(g, t >> shift & m, t >> shift + game.width), t >> shift << shift)
                for t in want
            ]
            assert [head | game.park(key, comp) for comp, head in table] == want
            escaped = any(game.park(key, comp) == game.all_sentinel for comp, _ in table)
            assert escaped == any(map(reference.escaped, want))
            escapes += escaped
    assert (escapes > 5) == variant.burning


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "family,params",
    [("cycle", (6,)), ("grid", (2, 3)), ("grid", (3, 3)), ("complete", (4,)),
     ("hypercube", (3,)), ("torus", (3, 3))],
)
def test_cycle_shortcut_is_exact(fam, monkeypatch, family, params, k):
    """A robber crossing whose edge lies on a cycle with no burned edge
    (one of Graph.cycle_masks) keeps the parent's component, with no
    search; any other updates the parent's component.  Over every crossing
    out of every view the robber can reach from any start, canonical(t,
    key) equals canonical(t) of a reference PackedGame that is never given
    a parent, so it searches every view from scratch, and both kinds of
    crossing occur.  The cops of each crossing take the placements in turn."""
    g = fam(family, *params)
    updates, parents = [], []
    after_burn, view = engine.component_after_burn, PackedGame._view
    monkeypatch.setattr(
        engine, "component_after_burn", lambda *args: updates.append(args) or after_burn(*args))
    monkeypatch.setattr(
        PackedGame, "_view", lambda game, high, parent: parents.append(parent) or view(game, high, parent))
    game, reference = PackedGame(g, k), PackedGame(g, k)
    placements = [game.pack_cops(p)
                  for p in itertools.combinations_with_replacement(range(g.vertex_count), k)]
    shift = game.robber_shift
    todo = [game.encode(GameState(0, (0,) * k, r, ROBBER_TURN)) for r in range(g.vertex_count)]
    seen = {key >> shift for key in todo}
    crossings = 0
    while todo:
        key = todo.pop()
        game.canonical(key)  # a start's view; any other is memoized by now
        for t in game.robber_successors(key)[1:]:
            t = t & ~game.cops_mask | placements[crossings % len(placements)]
            crossings += 1
            assert game.canonical(t, key) == reference.canonical(t)
            if t >> shift not in seen:
                seen.add(t >> shift)
                todo.append(t | ROBBER_TURN)
    shortcuts = sum(p is not None for p in parents) - len(updates)
    assert shortcuts > 0 and len(updates) > 0


def test_kind_of_terminal_keys():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    game = PackedGame(g, 2)
    cut = 1 << g.edge_id(1, 2)
    escaped = game.canonical(game.encode(GameState(cut, (0, 1), 3, ROBBER_TURN)))
    assert game.decode(escaped).cops == (4, 4)
    assert game.escaped(escaped) and not game.captured(escaped)
    captured = game.encode(GameState(0, (1, 3), 3, COP_TURN))
    assert game.captured(captured) and not game.escaped(captured)


def _applied(apply, *args):
    """apply(*args), or the message of the IllegalMoveError it raises, or
    the type and message of any other exception."""
    try:
        return apply(*args)
    except IllegalMoveError as e:
        return str(e)
    except Exception as e:
        return type(e).__name__, str(e)


_NOT_VERTICES = [2.0, True, 2.5, [1], (1,)]


def _moves(g, s, w):
    """Moves of the side to move in s, legal or not.  The robber's are every
    vertex and vertex 2**w, which packed unchecked would spill into the
    next field, then values that are not vertices, equal to one or
    unhashable; the cops' are every legal move tuple, then every one-cop
    teleport to a vertex or 2**w that cop cannot reach, then each of those
    values as the whole move and as one cop's destination."""
    far = [*range(g.vertex_count), 1 << w]
    if s.phase == ROBBER_TURN:
        return far + _NOT_VERTICES
    options = [cop_move_options(g, s.burned, c) for c in s.cops]
    legal = list(itertools.product(*options))
    teleports = [
        s.cops[:i] + (v,) + s.cops[i + 1:]
        for i, opts in enumerate(options)
        for v in far
        if v not in opts
    ]
    odd = [s.cops[:i] + (x,) + s.cops[i + 1:] for i in range(len(s.cops)) for x in _NOT_VERTICES]
    return legal + teleports + _NOT_VERTICES + odd


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family,params", [("path", (5,)), ("cycle", (6,)), ("grid", (2, 3))])
def test_apply_matches_the_rules_on_states(fam, family, params, k):
    """PackedGame.apply(key, move) is the key of the state apply_cop_moves /
    apply_robber_move give, on every live reachable key and every legal
    move, and an illegal move raises the same IllegalMoveError; a move
    that is not a vertex gives the same exception.  An unhashable
    destination is not an edge."""
    g = fam(family, *params)
    game = PackedGame(g, k)
    legal = illegal = unhashable = 0
    for s in _reachable(g, k, BRIDGE_BURNING):
        key = game.encode(s)
        for move in _moves(g, s, game.width):
            if s.phase == COP_TURN:
                want = _applied(lambda: game.encode(apply_cop_moves(g, s, move)[0]))
            else:
                want = _applied(lambda: game.encode(apply_robber_move(g, s, move)[0]))
            assert _applied(game.apply, key, move) == want
            if isinstance(want, int):
                legal += 1
            else:
                illegal += 1
                unhashable += str(want).endswith("->[1] is not an edge")
    assert legal > 100 and illegal > 100 and unhashable > 10


def test_apply_checks_the_number_of_cop_moves():
    g = build_graph(3, [(0, 1), (1, 2)])
    game = PackedGame(g, 2)
    key = game.encode(GameState(0, (0, 1), 2, COP_TURN))
    for move in [(0,), (0, 1, 1)]:
        with pytest.raises(IllegalMoveError, match=f"^{len(move)} moves for 2 cops$"):
            game.apply(key, move)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_captured_is_a_cop_on_the_robber(fam, k):
    g = fam("grid", 2, 3)
    game = PackedGame(g, k)
    for s in _reachable(g, k, BRIDGE_BURNING):
        for t in (s, s._replace(robber=s.cops[-1])):
            key = game.encode(t)
            assert game.captured(key) == is_capture(t)
            assert not game.escaped(key) and key & 1 == t.phase
