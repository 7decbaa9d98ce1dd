import inspect

import pytest

from bridgeburn import arena
from bridgeburn.arena import exhaust_vs_policy, run_match
from bridgeburn.engine import Transcript
from bridgeburn.families import FamilySpec, generate
from bridgeburn.solver import BudgetExceeded
from bridgeburn.strategies import (
    EulerianStallRobber,
    FarthestRobber,
    GreedyCloserCop,
    HypercubeMirrorCop,
    LeafIsolateRobber,
    PlanRobber,
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
    [("grid", 8, 9, 1881, 26), ("torus", 16, 14, 139, 74)],
)
def test_placement_exhaust_answers_pinned(fam, family, m, n, nodes, half_turns):
    """The placement chasers' exhaustive searches: verdict, nodes searched,
    escape reason and counterexample length, pinned."""
    g = fam(family, m, n)
    v = exhaust_vs_policy(g, make_policy(f"{family}_placement", g, [m, n]))
    assert (v.outcome, v.nodes_searched) == ("beaten", nodes)
    assert v.counterexample.outcome.reason == "isolated"
    assert len(v.counterexample.turns) == half_turns


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


def test_arena_lists_no_moves_itself():
    """The free side's moves are the engine's successor functions."""
    src = inspect.getsource(arena)
    assert "cop_move_options" not in src and "itertools.product" not in src
