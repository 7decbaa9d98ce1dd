import itertools
import math
import random
import re

import pytest
from minimax_oracle import oracle_capture_time, oracle_rounds

from bridgeburn.bounds import family_formula, placement_generators
from bridgeburn.engine import (
    BRIDGE_BURNING,
    CLASSIC,
    COP_TURN,
    GameState,
    ROBBER_TURN,
    PackedGame,
    is_capture,
)
from bridgeburn.enumeration import connected_graph_classes
from bridgeburn.families import FamilySpec
from bridgeburn import graph
from bridgeburn.graph import build_graph
from bridgeburn.solver import (
    BudgetExceeded,
    CaptureTimeDomainError,
    DisconnectedGraphError,
    SolveResult,
    _solve,
    bridge_burning_cop_number,
    capture_time_bb,
    cop_wins_with_k,
    extract_strategy,
    solve_position,
)

# Frozen by the solver and cross-checked against the memoization-free
# minimax oracle (tests/minimax_oracle.py); see test_acceptance.py.
CAPTURE_FAMILY_22_CAPT = 6
CAPTURE_FAMILY_23_CAPT = 14
P5_CAPT = 2


def test_k2_cop_wins_first_turn(fam):
    g = fam("complete", 2)
    v = solve_position(g, GameState(0, (0,), 1, COP_TURN))
    assert (v.winner, v.rounds) == ("cop", 1)


def test_p6_single_cop_loses(fam):
    g = fam("path", 6)
    r = cop_wins_with_k(g, 1)
    assert r.winner == "robber"
    assert r.optimal_placement is None and r.capture_time_rounds is None


def test_p6_two_cops_win(fam):
    assert cop_wins_with_k(fam("path", 6), 2).winner == "cop"


@pytest.mark.parametrize(
    "state",
    [
        GameState(0, (2,), 2, COP_TURN),
        GameState(0, (2,), 2, ROBBER_TURN),
        GameState(0, (1, 4), 4, COP_TURN),
    ],
)
def test_captured_position_is_a_round_zero_cop_win(fam, state):
    v = solve_position(fam("path", 6), state)
    assert (v.winner, v.rounds, v.explored) == ("cop", 0, 1)


@pytest.mark.parametrize("phase", [COP_TURN, ROBBER_TURN])
@pytest.mark.parametrize("cops", [(0,), (0, 0)])
@pytest.mark.parametrize("burned", [0b010, 0b100])
def test_escaped_position_is_a_one_state_robber_win(fam, burned, cops, phase):
    # path 0-1-2-3: burning edge 1-2 or 2-3 cuts the robber at 3 off the cops
    g = fam("path", 4)
    state = GameState(burned, cops, 3, phase)
    v = solve_position(g, state)
    assert (v.winner, v.rounds, v.explored) == ("robber", None, 1)
    assert extract_strategy(g, state) is None


@pytest.mark.parametrize("variant", [BRIDGE_BURNING, CLASSIC], ids=["burning", "classic"])
@pytest.mark.parametrize("k", [1, 2])
def test_only_a_root_is_ever_escaped(k, variant):
    """The space tests escape on its roots only.  That is sound because a
    cop move keeps every cop in the robber's component and no successor of
    an escaping robber move is interned; here every fully expanded space
    on <= 5 vertices, rooted at robber 0 with no edge, any one edge or
    every edge at vertex 0 burned, bears that out."""
    escaped_roots = 0
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            game = PackedGame(g, k, variant)
            at_zero = sum(1 << eid for _, eid in g.adjacency[0])
            roots = {}  # canonical key -> root, so the roots stay distinct
            for burned in (0, at_zero, *(1 << eid for eid in range(g.edge_count))):
                for p in itertools.combinations_with_replacement(range(n), k):
                    s = GameState(burned, p, 0, COP_TURN)
                    roots.setdefault(game.canonical(game.encode(s)), s)
            space, _, _ = _solve(g, list(roots.values()), variant, None)
            space.expand_to(math.inf)
            assert space.fully_expanded
            assert space.keys[: len(roots)] == list(roots)
            escaped_roots += sum(map(game.escaped, roots))
            assert not any(map(game.escaped, space.keys[len(roots):]))
    assert escaped_roots > 50


def test_stalemate_position_robber_win(fam):
    g = fam("stalemate")
    v = solve_position(g, GameState(0, (0,), 2, COP_TURN))  # cop at u, robber at w
    assert v.winner == "robber"


def test_classic_c5_one_cop_loses(fam):
    g = fam("cycle", 5)
    assert cop_wins_with_k(g, 1, CLASSIC).winner == "robber"
    # any start two steps away evades forever in the classic game
    for c in range(5):
        for r in range(5):
            if r in (c, (c + 1) % 5, (c - 1) % 5):
                continue
            v = solve_position(g, GameState(0, (c,), r, COP_TURN), CLASSIC)
            assert v.winner == "robber"


def test_c7_bridge_burning_single_cop(fam):
    assert cop_wins_with_k(fam("cycle", 7), 1).winner == "cop"


@pytest.mark.parametrize(
    "family,params,expected",
    [
        ("complete", (5,), 1),
        ("complete_bipartite", (2, 3), 1),
        ("stalemate", (), 2),
        ("grid", (2, 5), 1),
    ],
)
def test_cop_number_examples(fam, family, params, expected):
    g = fam(family, *params)
    assert bridge_burning_cop_number(g, 4).value == expected


def test_capture_time_k4(fam):
    assert capture_time_bb(fam("complete", 4)).capture_time_rounds == 1


def test_capture_time_p5(fam):
    assert capture_time_bb(fam("path", 5)).capture_time_rounds == P5_CAPT


def test_capture_time_family_22(fam):
    g = fam("capture_family", 2, 2)
    res = capture_time_bb(g)
    assert res.capture_time_rounds == CAPTURE_FAMILY_22_CAPT
    assert res.capture_time_rounds >= 2 * 2 * 2 * 1 // 2 + 1  # paper lower bound
    assert res.capture_time_rounds <= g.edge_count * g.vertex_count


def test_capture_time_family_23(fam):
    # The paper's lower bound m^2 k(k-1)/2 + 1 is 13 here; the solver finds 14.
    lower = family_formula(FamilySpec("capture_family", (2, 3))).capture_time_lower
    assert lower == 2 * 2 * 3 * 2 // 2 + 1 == 13
    res = capture_time_bb(fam("capture_family", 2, 3))
    assert res.capture_time_rounds == CAPTURE_FAMILY_23_CAPT >= lower


def test_capture_time_record_on_8_vertices(fam):
    # An 8-vertex graph that one cop needs 7 rounds to clear, more than the
    # 6 of capture_family(2,2), the paper's lower-bound family on 8 vertices.
    g = build_graph(8, [(0, 2), (0, 4), (0, 6), (1, 3), (1, 4), (1, 6), (1, 7),
                        (2, 3), (2, 4), (2, 6), (3, 5), (4, 7), (6, 7)])
    assert fam("capture_family", 2, 2).vertex_count == 8
    assert capture_time_bb(g).capture_time_rounds == 7 > CAPTURE_FAMILY_22_CAPT
    assert oracle_capture_time(g) == 7


def test_capture_time_rejects_cb_above_1(fam):
    with pytest.raises(CaptureTimeDomainError):
        capture_time_bb(fam("path", 6))


def test_placement_covering_every_vertex(fam):
    # (0, 0) and (1, 1) each win in round 1; (0, 1) leaves the robber no
    # start, so it wins in round 0.  The two vertices form one orbit, so one
    # space of 5 states, robber at 0 against (1, 1), answers both starts.
    assert cop_wins_with_k(fam("path", 2), 2) == SolveResult("cop", 2, (0, 1), 0, 5)
    assert cop_wins_with_k(fam("complete", 1), 1).explored_states == 0


def test_2xn_cop_number_for_n_7_to_13(fam):
    # c_b(2xn) = ceil((n+2)/9): 1 at n = 7 and 2 for n = 8..13.  One cop
    # settles the lower bound; the constructive placement, the upper one.
    for n in range(7, 14):
        g = fam("grid", 2, n)
        want = family_formula(FamilySpec("grid", (2, n))).exact
        assert want == (1 if n == 7 else 2), n
        assert cop_wins_with_k(g, 1).winner == ("cop" if want == 1 else "robber"), n
        if want == 1:
            continue
        placement = placement_generators(FamilySpec("grid", (2, n)))
        assert len(placement) == 2
        for r in range(g.vertex_count):
            if r not in placement:
                val = solve_position(g, GameState(0, placement, r, COP_TURN))
                assert val.winner == "cop", (n, r)


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        cop_wins_with_k(g, 1)


def test_k_zero_rejected(fam):
    with pytest.raises(ValueError):
        cop_wins_with_k(fam("path", 3), 0)


def test_empty_graph_rejected():
    g = build_graph(0, [])
    for solve in (lambda: cop_wins_with_k(g, 1), lambda: bridge_burning_cop_number(g),
                  lambda: capture_time_bb(g)):
        with pytest.raises(ValueError, match="empty graph"):
            solve()


def test_budget_exceeded_is_distinct(fam):
    g = fam("grid", 2, 6)
    with pytest.raises(BudgetExceeded):
        cop_wins_with_k(g, 1, budget=50)


def test_budget_checked_before_listing_placements(fam):
    # C(43, 8) placements; robber start 0 alone seeds C(42, 8) roots
    with pytest.raises(BudgetExceeded) as e:
        cop_wins_with_k(fam("grid", 6, 6), 8)
    assert e.value.explored == 10**7
    g = fam("path", 4)  # start 0 seeds the 6 pairs of vertices 1-3
    with pytest.raises(BudgetExceeded) as e:
        cop_wins_with_k(g, 2, budget=5)
    assert e.value.explored == 5
    with pytest.raises(BudgetExceeded) as e:
        bridge_burning_cop_number(fam("grid", 6, 6), k_max=8, budget=20)
    assert e.value.explored == 20


def test_monotonicity_in_k(fam):
    for g in [fam("path", 6), fam("stalemate"), fam("cycle", 5), fam("spider", 2, 2, 2)]:
        winners = [cop_wins_with_k(g, k).winner for k in (1, 2, 3)]
        for a, b in zip(winners, winners[1:]):
            assert not (a == "cop" and b == "robber")


def test_thm51_bound_on_solved_instances(fam):
    for g in [fam("cycle", 6), fam("complete", 5), fam("grid", 2, 4), fam("hypercube", 3)]:
        res = cop_wins_with_k(g, 1)
        assert res.winner == "cop"
        assert res.capture_time_rounds <= g.edge_count * g.vertex_count


def test_deterministic_results(fam):
    g = fam("grid", 2, 4)
    a = cop_wins_with_k(g, 1)
    b = cop_wins_with_k(g, 1)
    assert a == b


def test_parallel_matches_sequential(fam):
    g = fam("cycle", 6)
    seq = cop_wins_with_k(g, 1, threads=1)
    par = cop_wins_with_k(g, 1, threads=2)
    assert (seq.winner, seq.optimal_placement, seq.capture_time_rounds) == (
        par.winner,
        par.optimal_placement,
        par.capture_time_rounds,
    )


def test_optimal_placement_is_lex_least(fam):
    g = fam("complete", 4)  # every placement wins in round 1
    res = cop_wins_with_k(g, 1)
    assert res.optimal_placement == (0,)
    assert res.capture_time_rounds == 1


def test_strategy_extraction_consistent(fam):
    g = fam("path", 4)
    init = GameState(0, (1,), 3, COP_TURN)
    strat = extract_strategy(g, init)
    assert strat is not None
    game = PackedGame(g, 1)
    # following the strategy from the initial state reaches capture
    state = init
    for _ in range(40):
        if state.robber in state.cops:
            break
        if state.phase == COP_TURN:
            state = strat[state]
        else:
            # adversarial robber: any successor must still be losing for him
            replies = map(game.decode, game.robber_successors(game.encode(state)))
            state = max(replies, key=lambda t: t.burned)
    assert state.robber in state.cops


def test_strategy_walk_beats_every_robber_reply(fam):
    """Solved once on the quotient space, the strategy is read off real
    states, including ones whose burned edges the quotient clears."""
    g = fam("grid", 2, 5)
    game = PackedGame(g, 1)
    masked = 0
    for c in range(g.vertex_count):
        for r in range(g.vertex_count):
            init = GameState(0, (c,), r, COP_TURN)
            val = solve_position(g, init)
            if r == c or val.winner != "cop":
                continue
            strat = extract_strategy(g, init)
            layer, half = {init}, 0
            while layer:
                assert half < 2 * val.rounds, (c, r)
                nxt = set()
                for s in layer:
                    masked += game.decode(game.canonical(game.encode(s))).burned != s.burned
                    if s.phase == COP_TURN:
                        nxt.add(strat[s])
                    else:
                        nxt.update(map(game.decode, game.robber_successors(game.encode(s))))
                layer = {s for s in nxt if not is_capture(s)}
                half += 1
    assert masked


def test_strategy_ties_are_broken_by_the_cops(fam):
    """Moves of equal rank are ordered by their sorted cops, not by their
    packed keys, which hold the last cop in the higher bits: (0, 6) and
    (2, 4) both win here in the least rank, and (2, 4) has the smaller key."""
    g = fam("grid", 2, 4)
    init = GameState(0, (0, 2), 5, COP_TURN)
    strat = extract_strategy(g, init)
    assert strat[init].cops == (0, 6)


def test_strategy_extraction_is_none_when_the_robber_wins(fam):
    assert extract_strategy(fam("path", 6), GameState(0, (0,), 3, COP_TURN)) is None


def test_strategy_extraction_stops_at_the_roots_horizon(fam):
    # A 1-round capture: the fully expanded space has 221,791 states.
    g = fam("complete", 6)
    strat = extract_strategy(g, GameState(0, (0, 1), 5, COP_TURN), budget=1000)
    assert strat == {GameState(0, (0, 1), 5, COP_TURN): GameState(0, (0, 5), 5, ROBBER_TURN)}


def test_cop_number_budget_counts_every_k(fam):
    g = fam("path", 7)  # c_b = 2: k = 1 and k = 2 are both solved
    full = bridge_burning_cop_number(g, budget=None)
    assert bridge_burning_cop_number(g, budget=full.explored_states) == full
    with pytest.raises(BudgetExceeded) as e:
        bridge_burning_cop_number(g, budget=full.explored_states - 1)
    assert e.value.explored == full.explored_states - 1


def test_budget_outcome_does_not_depend_on_threads(fam):
    g = fam("cycle", 6)
    full = cop_wins_with_k(g, 1, threads=1)
    # Over the budget only in total, and within a single placement's solve.
    for budget in (full.explored_states - 1, 5):
        errors = []
        for threads in (1, 2):
            with pytest.raises(BudgetExceeded) as e:
                cop_wins_with_k(g, 1, budget=budget, threads=threads)
            errors.append((e.value.explored, str(e.value)))
        assert errors[0] == errors[1] == (budget, f"explored-state budget exceeded ({budget} states)")
    for threads in (1, 2):
        assert cop_wins_with_k(g, 1, budget=full.explored_states, threads=threads) == full


def test_invalid_state_rejected(fam):
    g = fam("path", 3)
    with pytest.raises(ValueError):
        solve_position(g, GameState(0, (9,), 1, COP_TURN))
    with pytest.raises(ValueError):
        solve_position(g, GameState(1 << 30, (0,), 1, COP_TURN))
    for burned in (None, -1, 0b100, 1.0):
        with pytest.raises(ValueError, match=rf"^burned mask {burned!r} is not an int in \[0, 2\*\*2\)$"):
            solve_position(g, GameState(burned, (0,), 2, COP_TURN))
    for phase in (1.0, 2, -1, None, "0"):
        for solve in (solve_position, extract_strategy):
            with pytest.raises(ValueError, match=rf"^phase {phase!r} is neither COP_TURN"):
                solve(g, GameState(0, (0,), 2, phase))
    for cops in (None, 0, [0], (), "0"):
        for solve in (solve_position, extract_strategy):
            with pytest.raises(ValueError, match=rf"^cops {re.escape(repr(cops))} is not a non-empty tuple"):
                solve(g, GameState(0, cops, 1, COP_TURN))


def _reference_placement_search(g, k, rounds_of):
    """(winner, placement, rounds) from rounds_of(placement, start), one
    solve per (placement, start): the max over starts per placement, then
    the lexicographically least argmin."""
    best = None
    for p in itertools.combinations_with_replacement(range(g.vertex_count), k):
        worst = 0
        for r in range(g.vertex_count):
            if r in p:
                continue
            t = rounds_of(p, r)
            if t is None:
                break
            worst = max(worst, t)
        else:
            if best is None or worst < best[1]:
                best = (p, worst)
    return ("robber", None, None) if best is None else ("cop", *best)


def _outcome(res):
    return res.winner, res.optimal_placement, res.capture_time_rounds


@pytest.mark.parametrize("k", [1, 2])
def test_shared_pass_matches_oracle(k):
    """Each start's space holds every live placement; the answer must be
    the one the memoization-free oracle gives placement by placement."""
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            want = _reference_placement_search(g, k, lambda p, r: oracle_rounds(g, p, r))
            assert _outcome(cop_wins_with_k(g, k)) == want, (g.edges, k)


def _shuffled(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.vertex_count, edges)


@pytest.mark.parametrize(
    "family, params, k",
    [
        ("cycle", (9,), 1),
        ("grid", (2, 6), 1),
        ("complete_bipartite", (2, 4), 1),
        ("capture_family", (1, 3), 1),
        ("spider", (3, 3, 3), 2),
        ("hypercube", (3,), 1),
        ("grid", (3, 4), 1),
        ("complete", (5,), 2),
        ("path", (2,), 2),
    ],
)
def test_shared_pass_matches_per_start_solves_on_relabeled_graphs(fam, family, params, k):
    """Relabeling reorders placements and starts, so this pins the
    placement tie-break against one `solve_position` per (placement, start).
    The reference never maps a start onto its orbit's representative, so
    the symmetric graphs here check the orbit reduction too."""
    g = _shuffled(fam(family, *params), 7)

    def rounds_of(p, r):
        return solve_position(g, GameState(0, p, r, COP_TURN)).rounds

    assert _outcome(cop_wins_with_k(g, k)) == _reference_placement_search(g, k, rounds_of)


def _transposition(g):
    """A search result whose one generator, swapping 0 and 1, is no
    automorphism of a cycle on more than three vertices."""
    sigma = list(range(g.vertex_count))
    sigma[0], sigma[1] = 1, 0
    return 0, [sigma]


@pytest.mark.parametrize("search", [_transposition], ids=["bad-map"])
def test_finder_failures_cost_states_not_answers(fam, monkeypatch, search):
    """A map that is not an automorphism leaves each start its own orbit's
    representative: the solve only gets slower."""
    g = _shuffled(fam("cycle", 8), 3)
    want = cop_wins_with_k(g, 1)
    monkeypatch.setattr(graph, "_search", search)
    assert [rho for rho, _sigma in graph.vertex_orbits(g)] == list(range(8))
    got = cop_wins_with_k(g, 1)
    assert _outcome(got) == _outcome(want)
    assert got.explored_states > want.explored_states


def test_values_at_the_shared_pass_reach(fam):
    # Two cops win 2x8 (c_b(2xn) = ceil((n+2)/9) = 2) in 4 rounds.
    assert _outcome(cop_wins_with_k(fam("grid", 2, 8), 2)) == ("cop", (0, 5), 4)
    # One cop wins the 3x3 torus, where the family bounds give only 1 <= c_b <= 2.
    bounds = family_formula(FamilySpec("torus", (3, 3)))
    assert (bounds.exact, bounds.lower, bounds.upper) == (None, 1, 2)
    assert _outcome(cop_wins_with_k(fam("torus", 3, 3), 1)) == ("cop", (0,), 5)


@pytest.mark.parametrize(
    "family, params, k, variant, want",
    [
        ("grid", (3, 4), 1, BRIDGE_BURNING, ("cop", (5,), 5, 14105)),
        ("complete", (6,), 2, BRIDGE_BURNING, ("cop", (0, 0), 1, 541)),
        ("spider", (4, 4, 4), 2, BRIDGE_BURNING, ("robber", None, None, 464)),
        ("grid", (2, 5), 3, BRIDGE_BURNING, ("cop", (0, 4, 7), 1, 28780)),
        ("cycle", (7,), 3, BRIDGE_BURNING, ("cop", (0, 1, 4), 1, 866)),
        ("grid", (3, 3), 1, CLASSIC, ("robber", None, None, 162)),
        ("cycle", (5,), 2, CLASSIC, ("cop", (0, 2), 1, 108)),
    ],
)
def test_explored_states_are_pinned(fam, family, params, k, variant, want):
    """The quotient state space, not only the answer: a change to how
    states are expanded, canonicalized or interned moves explored_states."""
    res = cop_wins_with_k(fam(family, *params), k, variant)
    assert (*_outcome(res), res.explored_states) == want


@pytest.mark.parametrize(
    "m, n, k, want",
    [
        (3, 3, 1, ("cop", (4,), 4)),
        (3, 4, 1, ("cop", (5,), 5)),
        (3, 5, 1, ("cop", (7,), 5)),
        (4, 4, 1, ("robber", None, None)),
        (4, 4, 2, ("cop", (1, 13), 3)),
    ],
)
def test_small_grid_exact_values(fam, m, n, k, want):
    # The family bounds leave these open (lower bound ceil(mn/121) = 1).
    assert _outcome(cop_wins_with_k(fam("grid", m, n), k, budget=None)) == want


@pytest.mark.parametrize("m, n, cb", [(3, 3, 1), (3, 4, 1), (3, 5, 1), (4, 4, 2)])
def test_small_grid_cop_numbers_lie_inside_the_family_bounds(m, n, cb):
    # cb is read off test_small_grid_exact_values' rows.
    bounds = family_formula(FamilySpec("grid", (m, n)))
    assert bounds.exact is None and bounds.lower <= cb <= bounds.upper
