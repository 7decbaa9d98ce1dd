import inspect
import json

import pytest

from bridgeburn import arena, engine, graph, solver
from bridgeburn.arena import IllegalPolicyMoveError, exhaust_vs_policy, run_match
from bridgeburn.engine import Outcome, Transcript
from bridgeburn.families import FamilySpec, generate
from bridgeburn.graph import VertexRangeError, build_graph
from bridgeburn.solver import BudgetExceeded
from bridgeburn.strategies import (
    EulerianStallRobber,
    FarthestRobber,
    GreedyCloserCop,
    GuardStartVertexCop,
    HypercubeMirrorCop,
    LeafIsolateRobber,
    PlanRobber,
    Policy,
    PolicyApplicabilityError,
    StationaryCop,
    make_policy,
)


def test_transcript_replays_to_outcome(fam):
    g = fam("hypercube", 3)
    tr = run_match(g, HypercubeMirrorCop(g), FarthestRobber())
    final = tr.replay()
    assert tr.outcome.kind == "cop_win"
    assert final.robber in final.cops


def test_transcript_json_shape(fam):
    g = fam("path", 4)
    tr = run_match(g, GreedyCloserCop(g, (1,)), PlanRobber(g, 3, []))
    d = tr.to_json_dict()
    assert set(d) == {"graph", "cops0", "robber0", "turns", "outcome"}
    assert d["turns"][0]["actor"] == "cop0"
    assert all(t["actor"] in ("cop0", "robber") for t in d["turns"])


def test_robber_placement_on_cop_is_round_zero_capture(fam):
    g = fam("path", 3)

    class Suicidal(PlanRobber):
        def robber_start(self, g, cops):
            return cops[0], ()

    tr = run_match(g, StationaryCop(g, (1,)), Suicidal(g, 1, []))
    assert tr.outcome.kind == "cop_win" and tr.outcome.round == 0


def test_robber_placement_off_the_graph_is_rejected(fam):
    g = fam("path", 3)

    class Astray(PlanRobber):
        def robber_start(self, g, cops):
            return 7, ()

    with pytest.raises(ValueError, match="vertex 7 "):
        run_match(g, StationaryCop(g, (1,)), Astray(g, 1, []))
    with pytest.raises(ValueError, match="max_rounds"):
        run_match(g, StationaryCop(g, (1,)), PlanRobber(g, 0, []), max_rounds=-1)


@pytest.mark.parametrize("bad", [-1, 6])
def test_exhaust_rejects_free_placements_off_the_graph(fam, bad):
    g = fam("path", 6)
    # checked before the search: the robber starts alone beat this cop
    starts = [v for v in range(6) if v != 2]
    assert exhaust_vs_policy(g, GreedyCloserCop(g, (2,)), starts).outcome == "beaten"
    with pytest.raises(ValueError, match=f"vertex {bad} "):
        exhaust_vs_policy(g, GreedyCloserCop(g, (2,)), free_side_placements=[*starts, bad])
    with pytest.raises(ValueError, match=f"vertex {bad} "):
        exhaust_vs_policy(g, LeafIsolateRobber(g), free_side_placements=[(2,), (bad,)])


@pytest.mark.parametrize(
    "make, placement, detail",
    [
        (lambda g: GreedyCloserCop(g, (2,)), (3,), r"vertex \(3,\) "),
        (lambda g: GreedyCloserCop(g, (2,)), 2.5, "vertex 2.5 "),
        (lambda g: FarthestRobber(), 3, "cop placement 3 is not a list of vertices"),
    ],
    ids=["robber-tuple", "robber-float", "cops-int"],
)
def test_exhaust_rejects_a_placement_that_is_not_vertices(fam, make, placement, detail):
    g = fam("path", 6)
    with pytest.raises(VertexRangeError, match=detail):
        exhaust_vs_policy(g, make(g), [placement])


def test_run_match_rejects_policies_on_the_wrong_sides(fam):
    g = fam("path", 6)
    cop, robber = StationaryCop(g, (0,)), FarthestRobber()
    for pair in ((robber, cop), (cop, cop), (robber, robber)):
        with pytest.raises(ValueError, match="one cop policy and one robber policy"):
            run_match(g, *pair)


def test_exhaust_budget_exceeded(fam):
    g = fam("capture_family", 2, 2)
    with pytest.raises(BudgetExceeded):
        exhaust_vs_policy(g, EulerianStallRobber(g, 2, 2), k_cops=1, budget=10)


def test_exhaust_beaten_carries_min_round_counterexample(fam):
    g = fam("capture_family", 2, 2)
    v = exhaust_vs_policy(g, EulerianStallRobber(g, 2, 2), k_cops=1)
    assert v.outcome == "beaten"
    tr = v.counterexample
    assert tr.outcome.kind == "cop_win"
    assert tr.outcome.round >= 5  # the quadratic stalling bound m^2 k(k-1)/2 + 1
    final = tr.replay()
    assert final.robber in final.cops


def test_exhaust_cop_side_counterexample_replays(fam):
    g = fam("path", 6)
    v = exhaust_vs_policy(g, GreedyCloserCop(g, (2,)))
    assert v.outcome == "beaten"
    tr = v.counterexample
    assert tr.outcome.kind == "robber_escape"
    tr.replay()


def test_exhaust_repeatable_position_counterexample_closes_the_loop(fam):
    g = fam("cycle", 6)
    v = exhaust_vs_policy(g, StationaryCop(g, (0,)))
    tr = v.counterexample
    assert (v.outcome, tr.outcome.reason) == ("beaten", "repeatable position")
    assert len(tr.turns) == 2  # the cop stays on 0, the robber stays on 1
    earlier = [
        Transcript(graph=g, initial=tr.initial, turns=tr.turns[:i]).replay()
        for i in range(len(tr.turns))
    ]
    assert tr.replay() in earlier


def test_exhaust_rejects_k_cops_below_one(fam):
    g = fam("path", 6)
    with pytest.raises(ValueError, match="k_cops"):
        exhaust_vs_policy(g, FarthestRobber(), k_cops=0)


def test_exhaust_rejects_k_cops_beside_a_pinned_cop(fam):
    g = fam("cycle", 6)
    cop = GreedyCloserCop(g, (0,))
    with pytest.raises(ValueError, match="k_cops"):
        exhaust_vs_policy(g, cop, k_cops=3)
    assert exhaust_vs_policy(g, cop, k_cops=1).wins_always


def test_exhaust_rejects_a_cop_placement_of_another_size_than_k_cops(fam):
    g = fam("path", 6)
    with pytest.raises(ValueError, match=r"cop placement \(0, 5\) has 2 cops, but k_cops=1"):
        exhaust_vs_policy(g, FarthestRobber(), [(0, 5)])
    with pytest.raises(ValueError, match=r"cop placement \(2,\) has 1 cops, but k_cops=2"):
        exhaust_vs_policy(g, FarthestRobber(), [(0, 5), (2,)], k_cops=2)
    v = exhaust_vs_policy(g, FarthestRobber(), [(0, 5)], k_cops=2)
    assert v.outcome == "beaten"
    assert (v.counterexample.initial.cops, v.counterexample.outcome.kind) == ((0, 5), "cop_win")


def test_exhaust_placement_restriction(fam):
    g = fam("path", 6)
    # a greedy cop starting on v3 still catches a robber who begins adjacent
    v = exhaust_vs_policy(g, GreedyCloserCop(g, (2,)), free_side_placements=[1, 3])
    assert v.wins_always


def test_exhaust_deterministic(fam):
    g = fam("stalemate")
    from bridgeburn.strategies import StalematePolicyRobber

    a = exhaust_vs_policy(g, StalematePolicyRobber(g), k_cops=1)
    b = exhaust_vs_policy(g, StalematePolicyRobber(g), k_cops=1)
    assert (a.outcome, a.nodes_searched) == (b.outcome, b.nodes_searched)


@pytest.mark.parametrize(
    "family,m,n,nodes,half_turns",
    [("grid", 8, 9, 1881, 26), ("grid", 16, 14, 9447, 84), ("torus", 16, 14, 139, 74)],
)
def test_placement_exhaust_answers_pinned(fam, family, m, n, nodes, half_turns):
    """The placement chasers' exhaustive searches: verdict, nodes searched,
    escape reason and counterexample length, pinned."""
    g = fam(family, m, n)
    v = exhaust_vs_policy(g, make_policy(f"{family}_placement", g, [m, n]))
    assert (v.outcome, v.nodes_searched) == ("beaten", nodes)
    assert v.counterexample.outcome.reason == "isolated"
    assert len(v.counterexample.turns) == half_turns


@pytest.mark.parametrize(
    "family, make",
    [
        ("cycle", lambda g: (StationaryCop(g, (0,)), 1)),  # depth-first, the cop pinned
        ("path", lambda g: (FarthestRobber(), 2)),  # breadth-first, the robber pinned
    ],
    ids=["cop", "robber"],
)
def test_exhaust_checks_the_escape_only_after_a_robber_crossing(fam, monkeypatch, family, make):
    """A cop move or a robber who stays keeps the robber's component, and a
    cop never leaves its own, so most nodes need no escape check."""
    g = fam(family, 6)
    policy, k = make(g)
    plain = exhaust_vs_policy(g, policy, k_cops=k)
    calls = []
    canonical = engine.PackedGame.canonical

    def counted(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(engine.PackedGame, "canonical", counted)
    v = exhaust_vs_policy(g, policy, k_cops=k)
    assert v.to_json_dict() == plain.to_json_dict()
    assert 0 < len(calls) < v.nodes_searched


def _record_searches(monkeypatch) -> dict:
    """The key of every component and distance search from here on: the
    robber's (burned, vertex) and the distance's (source, burned)."""
    keys: dict = {"component_bitmask": [], "component_after_burn": [], "all_distances_from": []}

    def record(module, name, key):
        search = getattr(module, name)

        def wrapper(*args):
            keys[name].append(key(*args))
            return search(*args)

        monkeypatch.setattr(module, name, wrapper)

    record(engine, "component_bitmask", lambda g, v, burned: (burned, v))
    record(engine, "component_after_burn", lambda g, burned, u, v, comp_u: (burned, v))
    record(graph, "all_distances_from", lambda g, u, burned: (u, burned))
    return keys


def test_exhaust_searches_each_component_from_scratch_once_per_start(fam, monkeypatch):
    """Below a root, a robber crossing updates the parent's component
    instead of searching the robber's from scratch."""
    g = fam("hypercube", 4)
    keys = _record_searches(monkeypatch)
    v = exhaust_vs_policy(g, HypercubeMirrorCop(g))
    assert (v.outcome, v.nodes_searched) == ("wins", 14446)
    starts = [r for r in range(16) if r != 15]  # the cop starts on 15
    assert keys["component_bitmask"] == [(0, r) for r in starts]
    assert len(set(keys["component_after_burn"])) == len(keys["component_after_burn"]) > 0


@pytest.mark.parametrize(
    "family, make",
    [
        ("cycle", lambda g: GuardStartVertexCop(g, 0)),  # depth-first, the cop pinned
        ("path", lambda g: FarthestRobber()),  # breadth-first, the robber pinned
    ],
    ids=["cop", "robber"],
)
def test_exhaust_computes_each_distance_and_component_once_per_call(
    fam, monkeypatch, family, make
):
    """The distance and component memos live for one exhaust_vs_policy
    call: a second call searches the same keys again, each once."""
    g = fam(family, 12 if family == "cycle" else 6)
    policy = make(g)
    keys = _record_searches(monkeypatch)
    first = exhaust_vs_policy(g, policy)
    runs = [{name: searched[:] for name, searched in keys.items()}]
    for searched in keys.values():
        searched.clear()
    second = exhaust_vs_policy(g, policy)
    runs.append(keys)
    assert first.to_json_dict() == second.to_json_dict()
    assert runs[0] == runs[1]
    components = runs[0]["component_bitmask"] + runs[0]["component_after_burn"]
    for searched in (components, runs[0]["all_distances_from"]):
        assert 0 < len(searched) == len(set(searched))


@pytest.mark.parametrize("max_rounds", [None, 0])
def test_run_match_start_cut_off_from_the_cops_is_an_escape_at_round_zero(max_rounds):
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    tr = run_match(g, StationaryCop(g, (0,)), PlanRobber(g, 3, []), max_rounds)
    assert tr.outcome == Outcome("robber_escape", round=0, reason="isolated")
    assert tr.turns == []
    assert tr.replay() == tr.initial


def test_exhaust_start_cut_off_from_the_cops_is_an_escape_at_the_root():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    v = exhaust_vs_policy(g, StationaryCop(g, (0,)), [3])
    tr = v.counterexample
    assert (v.outcome, v.nodes_searched, tr.outcome.reason) == ("beaten", 1, "isolated")
    assert (tr.initial.robber, tr.turns) == (3, [])


@pytest.mark.parametrize("placements, nodes", [([(0,)], 1), ([(0,), (2,)], 2)])
def test_exhaust_pinned_robber_starting_cut_off_from_the_cops_wins_at_the_root(
    placements, nodes
):
    """The farthest robber starts in the component without the cop."""
    g = build_graph(4, [(0, 1), (2, 3)])
    assert exhaust_vs_policy(g, FarthestRobber(), placements) == arena.Verdict("wins", nodes)


_PATH6 = {"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], "n": 6}
_CYCLE6 = {"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]], "n": 6}


@pytest.mark.parametrize(
    "family, n, policy, params, k, nodes, counterexample",
    [
        ("path", 6, "farthest", [], 2, 172, {
            "graph": _PATH6, "cops0": [1, 4], "robber0": 0,
            "turns": [{"actor": "cop0", "from": 1, "to": 0, "burned": None},
                      {"actor": "cop1", "from": 4, "to": 4, "burned": None}],
            "outcome": {"kind": "cop_win", "round": 1, "reason": None},
        }),
        ("cycle", 6, "stationary", [0], 1, 2, {
            "graph": _CYCLE6, "cops0": [0], "robber0": 1,
            "turns": [{"actor": "cop0", "from": 0, "to": 0, "burned": None},
                      {"actor": "robber", "from": 1, "to": 1, "burned": None}],
            "outcome": {"kind": "robber_escape", "round": None, "reason": "repeatable position"},
        }),
    ],
    ids=["farthest-path6-k2", "stationary-cycle6"],
)
def test_exhaust_counterexample_json_pinned(
    fam, family, n, policy, params, k, nodes, counterexample
):
    """Move records are rebuilt only for the counterexample; they must be
    the ones the engine gives for each half-turn."""
    g = fam(family, n)
    v = exhaust_vs_policy(g, make_policy(policy, g, params), k_cops=k)
    assert (v.outcome, v.nodes_searched) == ("beaten", nodes)
    assert json.loads(json.dumps(v.counterexample.to_json_dict())) == counterexample
    v.counterexample.replay()


def test_run_match_robber_walks_onto_a_cop(fam):
    g = fam("path", 3)
    tr = run_match(g, StationaryCop(g, (0,)), PlanRobber(g, 2, [1, 0]))
    assert (tr.outcome.kind, tr.outcome.round) == ("cop_win", 2)
    assert [mv.actor for half in tr.turns for mv in half] == [0, -1, 0, -1]
    assert tr.replay().robber == 0


def test_exhaust_robber_starting_on_a_cop_is_one_node(fam):
    g = fam("path", 3)
    pol = PlanRobber(g, 2, [])
    first = exhaust_vs_policy(g, pol, [(0,)])
    assert first.outcome == "beaten" and first.counterexample.outcome.round == 2
    v = exhaust_vs_policy(g, pol, [(0,), (2,)])
    assert (v.outcome, v.nodes_searched) == ("beaten", first.nodes_searched + 1)
    tr = v.counterexample
    assert (tr.initial.cops, tr.initial.robber, tr.turns) == ((2,), 2, [])
    assert (tr.outcome.kind, tr.outcome.round) == ("cop_win", 0)


@pytest.mark.parametrize(
    "placements, budget, nodes",
    [([(0, 0, 0), (0, 1, 2)], 8, 9), ([(0, 1, 2)], 0, 1)],
)
def test_exhaust_budget_counts_a_placement_covering_the_robber(fam, placements, budget, nodes):
    """The one-node search of a placement that covers the robber's start
    is held to the budget like every other node."""
    g = fam("path", 3)
    v = exhaust_vs_policy(g, FarthestRobber(), placements, k_cops=3, budget=None)
    assert (v.outcome, v.nodes_searched) == ("beaten", nodes)
    assert v.counterexample.initial.cops == (0, 1, 2)
    assert exhaust_vs_policy(g, FarthestRobber(), placements, k_cops=3, budget=nodes) == v
    with pytest.raises(BudgetExceeded) as err:
        exhaust_vs_policy(g, FarthestRobber(), placements, k_cops=3, budget=budget)
    assert err.value.explored == nodes


def test_exhaust_skips_starts_on_the_cop_and_repeated_starts(fam):
    g = fam("path", 6)
    cop = GreedyCloserCop(g, (2,))
    once = exhaust_vs_policy(g, cop, [1, 3])
    v = exhaust_vs_policy(g, cop, [2, 1, 3, 1, 3, 2])
    assert once.wins_always and v.wins_always
    assert v.nodes_searched == once.nodes_searched


def test_exhaust_searches_a_repeated_cop_placement_once(fam):
    g = fam("path", 6)
    once = exhaust_vs_policy(g, FarthestRobber(), [(2,)])
    v = exhaust_vs_policy(g, FarthestRobber(), [(2,), (2,)])
    assert v.outcome == once.outcome
    assert v.nodes_searched == once.nodes_searched == 10


def test_exhaust_names_the_cop_placement_a_robber_declines(fam):
    g = fam("path", 6)
    with pytest.raises(PolicyApplicabilityError, match=r"'leaf_isolate' declines cops \(3,\)"):
        exhaust_vs_policy(g, LeafIsolateRobber(g, 5))


def test_exhaust_budget_exceeded_with_the_cop_pinned(fam):
    g = fam("path", 6)
    cop = GreedyCloserCop(g, (2,))
    nodes = exhaust_vs_policy(g, cop, [1, 3]).nodes_searched
    assert exhaust_vs_policy(g, cop, [1, 3], budget=nodes).wins_always
    with pytest.raises(BudgetExceeded):
        exhaust_vs_policy(g, cop, [1, 3], budget=nodes - 1)


@pytest.mark.parametrize(
    "family, n, make, k",
    [
        ("hypercube", 3, lambda g: HypercubeMirrorCop(g), 1),  # wins: no counterexample
        ("path", 6, lambda g: FarthestRobber(), 2),  # beaten by a one-round capture
        ("cycle", 6, lambda g: StationaryCop(g, (0,)), 1),  # beaten by a loop
    ],
    ids=["cop", "robber", "cop-beaten"],
)
def test_exhaust_lists_moves_on_states_only_for_the_counterexample(
    fam, monkeypatch, family, n, make, k
):
    """The search runs on keys: the free side expands through PackedGame's
    successor lists and the pinned side's move goes through PackedGame.apply.
    Moves are applied to GameStates only for a counterexample's records,
    one apply_cop_moves / apply_robber_move call per half-turn of it; a
    free half-turn's move is re-derived by apply_robber_move for a free
    robber and by cop_dests for a free cop team."""
    g = fam(family, n)
    policy = make(g)
    calls = {name: [] for name in ("apply_cop_moves", "apply_robber_move", "cop_dests")}
    for name, called in calls.items():
        derive = getattr(arena, name)
        monkeypatch.setattr(
            arena, name, lambda g, s, *a, f=derive, c=called: c.append(s) or f(g, s, *a)
        )
    v = exhaust_vs_policy(g, policy, k_cops=k)
    turns = v.counterexample.turns if v.counterexample else []
    # the robber's half-turns are free when the cop is pinned, and vice versa
    free = [half for half in turns if (half[0].actor == engine.ROBBER) == (policy.side == "cop")]
    name = "apply_robber_move" if policy.side == "cop" else "cop_dests"
    assert len(calls[name]) == len(free) < v.nodes_searched
    applied = len(calls["apply_cop_moves"]) + len(calls["apply_robber_move"])
    assert applied == len(turns)


def test_arena_lists_no_moves_itself():
    """The free side's moves are the engine's successor functions."""
    src = inspect.getsource(arena)
    assert "cop_move_options" not in src and "itertools.product" not in src


def test_solver_lists_no_moves_itself():
    """The solver and its strategy walk expand through PackedGame only."""
    src = inspect.getsource(solver)
    for name in ("cop_move_options", "itertools.product", "apply_cop_moves", "apply_robber_move"):
        assert name not in src


class _FirstMoveCop(StationaryCop):
    """Plays `move` from its start, legal or not."""

    name = "first_move"

    def __init__(self, g, starts, move):
        super().__init__(g, starts)
        self.move = move

    def choose(self, g, state, pstate, dist):
        return self.move, pstate


class _BurnedEdgeCop(GreedyCloserCop):
    """Chases greedily, but crosses a burned edge at its vertex once there is one."""

    name = "burned_edge"

    def choose(self, g, state, pstate, dist):
        (c,) = state.cops
        for (y, eid) in g.adjacency[c]:
            if state.burned >> eid & 1:
                return (y,), pstate
        return super().choose(g, state, pstate, dist)


class _WalkRobber(Policy):
    """Plays its walk, legal or not, one entry a turn; then stays."""

    side = "robber"
    name = "walk"

    def __init__(self, start, walk):
        self.start, self.walk = start, tuple(walk)

    def robber_start(self, g, cops):
        return self.start, self.walk

    def choose(self, g, state, pstate, dist):
        return (pstate[0], pstate[1:]) if pstate else (state.robber, pstate)


def _illegal_move_message(play) -> str:
    with pytest.raises(IllegalPolicyMoveError) as exc:
        play()
    return str(exc.value)


@pytest.mark.parametrize(
    "make, walk, nodes, detail",
    [
        (lambda g: _FirstMoveCop(g, (0,), (8,)), [], 1, "cop 0 0->8 is not an edge"),  # a teleport
        (lambda g: _BurnedEdgeCop(g, (0,)), [3, 6, 6, 6], 15, "cop 0 4->3 crosses burned edge 5"),
        (lambda g: _FirstMoveCop(g, (0,), (0, 1)), [], 1, "2 moves for 1 cops"),
        # 16 = 2**w for w = 4 bits per vertex: packed unchecked, it would
        # spill into the robber's field
        (lambda g: _FirstMoveCop(g, (0,), (16,)), [], 1, "cop 0 0->16 is not an edge"),
    ],
    ids=["teleport", "burned-edge", "move-count", "past-the-vertex-field"],
)
def test_exhaust_pinned_cop_illegal_move_is_the_match_error(fam, make, walk, nodes, detail):
    """The depth-first search applies the pinned cop's move on keys; an
    illegal one raises what run_match raises for it, at the node where the
    search meets it (so a budget of that many nodes is enough), not later
    from a counterexample's records.  The robber's walk is the branch on
    which the search meets the illegal move first."""
    g = fam("grid", 3, 3)
    cop = make(g)
    searched = _illegal_move_message(lambda: exhaust_vs_policy(g, cop, [4], budget=nodes))
    played = _illegal_move_message(lambda: run_match(g, cop, _WalkRobber(4, walk)))
    assert searched == played == f"policy {cop.name!r} returned an illegal move: {detail}"


@pytest.mark.parametrize(
    "walk, nodes, detail",
    [
        ([1], 2, "robber 4->1 is not an edge"),  # a teleport
        ([5, 4], 8, "robber 5->4 crosses burned edge 4"),
        ([(5,)], 2, "robber 4->(5,) is not an edge"),  # a cop team's move tuple
        ([16], 2, "robber 4->16 is not an edge"),  # 2**w, past the vertex field
    ],
    ids=["teleport", "burned-edge", "move-tuple", "past-the-vertex-field"],
)
def test_exhaust_pinned_robber_illegal_move_is_the_match_error(fam, walk, nodes, detail):
    """The breadth-first search applies the pinned robber's move on keys; an
    illegal one raises what run_match raises for it, at the node where the
    search meets it.  The cop starts three steps from where the robber
    crosses, so no capture ends the search first."""
    g = fam("cycle", 8)
    robber = _WalkRobber(4, walk)
    searched = _illegal_move_message(lambda: exhaust_vs_policy(g, robber, [(0,)], budget=nodes))
    played = _illegal_move_message(lambda: run_match(g, StationaryCop(g, (0,)), robber))
    assert searched == played == f"policy 'walk' returned an illegal move: {detail}"
