"""Solver vs. independent oracle on every small connected graph.

The attractor-based solver and the memoization-free minimax oracle must
agree on winner and capture rounds for every connected graph with at most
five vertices, one cop, from every initial placement pair; and with two
cops, from every cop multiset and robber start, which exercises the
solver's sentinel for cops cut off from the robber.
"""

import itertools

import pytest
from minimax_oracle import oracle_rounds

from bridgeburn.engine import CLASSIC, COP_TURN, GameState
from bridgeburn.enumeration import connected_graph_classes
from bridgeburn.solver import solve_position


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_equivalence_bridge_burning(n):
    for g in connected_graph_classes(n):
        for c in range(n):
            for r in range(n):
                if r == c:
                    continue
                got = solve_position(g, GameState(0, (c,), r, COP_TURN))
                want = oracle_rounds(g, (c,), r)
                if want is None:
                    assert got.winner == "robber", (g.edges, c, r)
                else:
                    assert (got.winner, got.rounds) == ("cop", want), (g.edges, c, r)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_equivalence_classic(n):
    for g in connected_graph_classes(n):
        for c in range(n):
            for r in range(n):
                if r == c:
                    continue
                got = solve_position(g, GameState(0, (c,), r, COP_TURN), CLASSIC)
                want = oracle_rounds(g, (c,), r, burning=False)
                if want is None:
                    assert got.winner == "robber"
                else:
                    assert (got.winner, got.rounds) == ("cop", want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_equivalence_two_cops(n):
    for g in connected_graph_classes(n):
        for cops in itertools.combinations_with_replacement(range(n), 2):
            for r in range(n):
                if r in cops:
                    continue
                got = solve_position(g, GameState(0, cops, r, COP_TURN))
                want = oracle_rounds(g, cops, r)
                if want is None:
                    assert got.winner == "robber", (g.edges, cops, r)
                else:
                    assert (got.winner, got.rounds) == ("cop", want), (g.edges, cops, r)
