import pytest
from hypothesis import given, settings, strategies as st

from bridgeburn.engine import (
    BRIDGE_BURNING,
    CLASSIC,
    COP_TURN,
    ROBBER,
    ROBBER_TURN,
    GameState,
    IllegalMoveError,
    MoveRecord,
    PackedGame,
    PhaseError,
    Transcript,
    apply_cop_moves,
    apply_robber_move,
    cop_dests,
    cop_move_options,
    is_capture,
    robber_component_check,
)
from bridgeburn.graph import component_bitmask


def _cop_shares_component(g, s):
    """robber_component_check on s, packed for a fresh PackedGame."""
    game = PackedGame(g, len(s.cops))
    return robber_component_check(game, game.encode(s))


def _successors(g, s, variant=BRIDGE_BURNING):
    """PackedGame's successors of s, decoded."""
    game = PackedGame(g, len(s.cops), variant)
    key = game.encode(s)
    listed = game.cop_successors if s.phase == COP_TURN else game.robber_successors
    return [game.decode(t) for t in listed(key)]


def test_cop_successors_p3(fam):
    g = fam("path", 3)
    s = GameState(0, (0,), 2, COP_TURN)
    dests = sorted(t.cops[0] for t in _successors(g, s))
    assert dests == [0, 1]


def test_cop_cannot_use_burned_edge(fam):
    g = fam("path", 3)
    burned = 1 << g.edge_id(0, 1)
    s = GameState(burned, (0,), 2, COP_TURN)
    assert [t.cops for t in _successors(g, s)] == [(0,)]


def test_cop_successors_c4_two_cops(fam):
    g = fam("cycle", 4)
    s = GameState(0, (0, 0), 2, COP_TURN)
    got = sorted(t.cops for t in _successors(g, s))
    assert got == [(0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (3, 3)]


def test_phase_errors(fam):
    g = fam("path", 3)
    s = GameState(0, (0,), 2, ROBBER_TURN)
    with pytest.raises(PhaseError):
        apply_cop_moves(g, s, cop_dests(g, s, (1,)))
    with pytest.raises(PhaseError):
        apply_robber_move(g, GameState(0, (0,), 2, COP_TURN), 1)


def test_cop_dests_keep_places_rather_than_swap(fam):
    g = fam("path", 4)
    s = GameState(0, (1, 2), 0, COP_TURN)
    assert cop_dests(g, s, (1, 2)) == (1, 2)  # not the swap (2, 1)
    assert cop_dests(g, s, (2, 1)) == (1, 2)
    assert cop_dests(g, s, (0, 2)) == (0, 2)
    assert cop_dests(g, s, (2, 2)) == (2, 2)  # cop 0 crosses, cop 1 stays
    assert cop_dests(g, s, (3, 0)) == (0, 3)
    with pytest.raises(IllegalMoveError, match="no cop move"):
        cop_dests(g, s, (3, 3))  # cop 0 cannot reach 3 in one turn


def test_apply_cop_moves_rejects_illegal_half_turns(fam):
    g = fam("path", 3)
    with pytest.raises(PhaseError):
        apply_cop_moves(g, GameState(0, (0,), 2, ROBBER_TURN), (1,))
    with pytest.raises(IllegalMoveError, match="already caught"):
        apply_cop_moves(g, GameState(0, (1,), 1, COP_TURN), (0,))
    with pytest.raises(IllegalMoveError, match="2 moves for 1 cops"):
        apply_cop_moves(g, GameState(0, (0,), 2, COP_TURN), (0, 1))
    burned = 1 << g.edge_id(0, 1)
    with pytest.raises(IllegalMoveError, match="burned edge"):
        apply_cop_moves(g, GameState(burned, (0,), 2, COP_TURN), (1,))


def test_robber_move_burns_and_isolates(fam):
    g = fam("path", 6)
    s = GameState(0, (4,), 1, ROBBER_TURN)
    move_to_0 = next(t for t in _successors(g, s) if t.robber == 0)
    assert move_to_0.burned == 1 << g.edge_id(0, 1)
    assert component_bitmask(g, 0, move_to_0.burned) == 1  # vertex 0 alone
    assert not _cop_shares_component(g, move_to_0)


def test_robber_stuck_can_only_stay(fam):
    g = fam("path", 3)
    burned = (1 << g.edge_id(0, 1)) | (1 << g.edge_id(1, 2))
    s = GameState(burned, (0,), 1, ROBBER_TURN)
    assert _successors(g, s) == [GameState(burned, (0,), 1, COP_TURN)]
    state, mv = apply_robber_move(g, s, 1)
    assert state.robber == 1 and mv.from_vertex == mv.to_vertex
    assert mv.burned_edge is None


def test_robber_walks_into_cop(fam):
    g = fam("cycle", 3)
    s = GameState(0, (1,), 0, ROBBER_TURN)
    captured = [t for t in _successors(g, s) if t.robber == 1]
    assert len(captured) == 1 and is_capture(captured[0])
    assert apply_robber_move(g, s, 1)[0] == captured[0]


def test_classic_variant_does_not_burn(fam):
    g = fam("cycle", 4)
    s = GameState(0, (2,), 0, ROBBER_TURN)
    replies = _successors(g, s, CLASSIC)
    assert [t.robber for t in replies] == cop_move_options(g, 0, 0)
    for t in replies:
        assert t.burned == 0
        assert apply_robber_move(g, s, t.robber, CLASSIC)[0] == t


def test_is_capture():
    assert is_capture(GameState(0, (2, 5), 5, COP_TURN))
    assert not is_capture(GameState(0, (2,), 3, COP_TURN))
    assert is_capture(GameState(0, (4, 4), 4, ROBBER_TURN))


def test_stalemate_escape_via_z(fam):
    g = fam("stalemate")
    burned = 1 << g.edge_id(3, 5)
    s = GameState(burned, (0,), 5, COP_TURN)
    assert not _cop_shares_component(g, s)


def test_fresh_graph_connected_check(fam):
    g = fam("cycle", 5)
    assert _cop_shares_component(g, GameState(0, (0,), 3, COP_TURN))


# --- transcript replay / play properties --------------------------------------


def _random_playout(g, seed, max_rounds=30):
    import random

    rnd = random.Random(seed)
    cops = tuple(sorted(rnd.choice(range(g.vertex_count)) for _ in range(2)))
    robber = rnd.choice([v for v in range(g.vertex_count) if v not in cops] or [0])
    state = GameState(0, cops, robber, COP_TURN)
    t = Transcript(graph=g, initial=state)
    masks = [state.burned]
    for _ in range(max_rounds):
        if is_capture(state):
            break
        if state.phase == COP_TURN:
            dests = [rnd.choice(cop_move_options(g, state.burned, c)) for c in state.cops]
            t.turns.append(
                [MoveRecord(i, f, d) for i, (f, d) in enumerate(zip(state.cops, dests))]
            )
            state = GameState(state.burned, tuple(sorted(dests)), state.robber, ROBBER_TURN)
        else:
            dest = rnd.choice(cop_move_options(g, state.burned, state.robber))
            nxt, mv = apply_robber_move(g, state, dest)
            t.turns.append([mv])
            state = nxt
        masks.append(state.burned)
    return t, state, masks


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_replay_reproduces_final_state(seed):
    from bridgeburn.families import FamilySpec, generate

    g = generate(FamilySpec("grid", (2, 4)))
    transcript, final, masks = _random_playout(g, seed)
    assert transcript.replay() == final


_STAY = [MoveRecord(0, 0, 0), MoveRecord(1, 4, 4)]  # both cops of (0, 4) stay


@pytest.mark.parametrize(
    "robber,turns",
    [
        pytest.param(2, [[MoveRecord(0, 0, 2), MoveRecord(1, 4, 4)]], id="cop-non-edge"),
        pytest.param(2, [[MoveRecord(0, 0, 0), MoveRecord(0, 0, 1)]], id="cop0-twice"),
        pytest.param(2, [[MoveRecord(0, 0, 1), MoveRecord(ROBBER, 4, 3)]], id="robber-in-cop-turn"),
        pytest.param(
            1, [[MoveRecord(0, 0, 1), MoveRecord(1, 4, 4)], [MoveRecord(ROBBER, 1, 2, 1)]],
            id="move-after-capture",
        ),
        pytest.param(2, [_STAY, [MoveRecord(ROBBER, 2, 2, 1)]], id="stay-records-burn"),
        pytest.param(2, [_STAY, []], id="empty-robber-turn"),
    ],
)
def test_replay_rejects_malformed_transcript(fam, robber, turns):
    g = fam("path", 5)
    t = Transcript(graph=g, initial=GameState(0, (0, 4), robber, COP_TURN), turns=turns)
    with pytest.raises(IllegalMoveError):
        t.replay()


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_burn_monotone_and_bounded(seed):
    from bridgeburn.families import FamilySpec, generate

    g = generate(FamilySpec("complete", (4,)))
    transcript, final, masks = _random_playout(g, seed)
    for a, b in zip(masks, masks[1:]):
        assert a & ~b == 0  # non-decreasing
        assert bin(b ^ a).count("1") <= 1  # at most one new bit per half-turn
    robber_moves = sum(
        1
        for half in transcript.turns
        for mv in half
        if mv.actor == ROBBER and mv.from_vertex != mv.to_vertex
    )
    assert robber_moves == bin(masks[-1]).count("1")
    assert robber_moves <= g.edge_count


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_memoized_component_check_matches_fresh(seed):
    from bridgeburn.families import FamilySpec, generate

    g = generate(FamilySpec("grid", (3, 4)))
    game = PackedGame(g, 2)
    transcript, _final, _masks = _random_playout(g, seed, max_rounds=60)
    s = transcript.initial
    passed = _cop_shares_component(g, s)
    for half in transcript.turns:
        prev, s = s, Transcript(graph=g, initial=s, turns=[half]).replay()
        # a robber crossing: the component is updated from the parent's
        parent = game.encode(prev) if s.burned != prev.burned else None
        fresh = component_bitmask(g, s.robber, s.burned)
        caught = any(fresh >> c & 1 for c in s.cops)
        raw = game.encode(s)
        key = game.canonical(raw, parent)  # one memo for the whole walk
        assert game.escaped(key) == (not caught)
        assert _cop_shares_component(g, s) == caught
        if passed:  # prev may be the parent: it passed the check
            assert robber_component_check(game, raw, game.encode(prev)) == caught
        passed = caught
        assert game._views[raw >> game.robber_shift][0] == fresh
        assert key == PackedGame(g, 2).canonical(raw)
