"""Match runner and exhaustive one-sided policy validation.

run_match plays two policies against each other and records a replayable
transcript.  exhaust_vs_policy pins one side to a policy and searches
every move (and optionally every placement) of the free side:

* fixed cop: the product system is a one-robber-chooser graph, so the
  policy is beaten iff an escape or a repeatable position is reachable
  (that counterexample ends with the half-turn back into the loop);
* fixed robber: the cop chooses, so the policy is beaten iff any capture
  is reachable, and breadth-first order yields an earliest-capture
  counterexample transcript.

Nodes are (game state, policy internal state) pairs, which keeps the
memoization sound for stateful policies.

The arena holds no rules of its own: a policy's move is applied by the
engine's apply_cop_moves / apply_robber_move, and the free side's moves
are the engine's cop_successors / robber_successors, which apply theirs
the same way.  Both searches expand a node through one function,
_children: the pinned side's one move on its turn, else every successor.
A robber policy's `robber_start` gives its start vertex and initial
state in one call per play, so nothing a placement decides outlives that
play.  Every placement is checked against the graph before play from it
starts: free-side placements before the search, a cop policy's cops
before the robber policy sees them, then the robber's vertex.

Each exhaustive search keeps one dict, for that exhaust_vs_policy call
only, from (burned mask, robber vertex) to the robber's component, and
answers every escape check from it through robber_component_check.  That
is sound because the component depends on nothing else, and it pays
because a cop move never changes the burned mask or the robber's vertex,
and neither does a robber who stays: most checked states repeat a key.
The dict gains at most one entry per node in the search's own seen/done
map, so the node budget bounds it too.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .engine import (
    COP_TURN,
    GameState,
    IllegalMoveError,
    Outcome,
    Transcript,
    apply_cop_moves,
    apply_robber_move,
    cop_successors,
    is_capture,
    robber_component_check,
    robber_successors,
)
from .graph import Graph, check_vertex
from .solver import BudgetExceeded
from .strategies import Policy

DEFAULT_EXHAUST_BUDGET = 10**7


class IllegalPolicyMoveError(ValueError):
    def __init__(self, policy: Policy, detail: str):
        super().__init__(f"policy {policy.name!r} returned an illegal move: {detail}")
        self.policy = policy


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "wins" | "beaten"
    nodes_searched: int
    counterexample: Transcript | None = None

    @property
    def wins_always(self) -> bool:
        return self.outcome == "wins"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "nodesSearched": self.nodes_searched,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json_dict(),
        }


def _policy_move(policy: Policy, g: Graph, state: GameState, move):
    """The policy's move applied by the engine, as (state, records)."""
    try:
        if state.phase == COP_TURN:
            return apply_cop_moves(g, state, move)
        nstate, record = apply_robber_move(g, state, move)
        return nstate, [record]
    except IllegalMoveError as e:
        raise IllegalPolicyMoveError(policy, str(e)) from None


def _take_cops(g: Graph, placement) -> tuple[int, ...]:
    """The sorted cop multiset of a placement; VertexRangeError on a non-vertex."""
    cops = tuple(sorted(placement))
    for c in cops:
        check_vertex(g, c)
    return cops


def run_match(
    g: Graph,
    cop: Policy,
    robber: Policy,
    max_rounds: int | None = None,
) -> Transcript:
    """Alternate half-turns until capture, permanent escape, or the limit."""
    if cop.side != "cop" or robber.side != "robber":
        raise ValueError("run_match needs one cop policy and one robber policy")
    if max_rounds is None:
        max_rounds = max(1, g.edge_count * g.vertex_count)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    cops = _take_cops(g, cop.cop_placement(g))
    r0, rob_ps = robber.robber_start(g, cops)
    check_vertex(g, r0)
    state = GameState(0, cops, r0, COP_TURN)
    t = Transcript(graph=g, initial=state)
    if is_capture(state):
        t.outcome = Outcome("cop_win", round=0)
        return t
    pstates = [cop.initial_pstate(g, cops, r0), rob_ps]
    for rnd in range(1, max_rounds + 1):
        for i, policy in enumerate((cop, robber)):
            move, pstates[i] = policy.choose(g, state, pstates[i])
            state, records = _policy_move(policy, g, state, move)
            t.turns.append(records)
            if is_capture(state):
                t.outcome = Outcome("cop_win", round=rnd)
                return t
        if not robber_component_check(g, state):
            t.outcome = Outcome("robber_escape", round=rnd, reason="isolated")
            return t
    t.outcome = Outcome("round_limit", round=max_rounds)
    return t


# --- exhaustive validation ----------------------------------------------------


def exhaust_vs_policy(
    g: Graph,
    fixed: Policy,
    free_side_placements=None,
    k_cops: int = 1,
    budget: int | None = DEFAULT_EXHAUST_BUDGET,
) -> Verdict:
    """Search all free-side play against the pinned policy.

    free_side_placements restricts the free side's initial choices (cop
    multisets when the robber is pinned; robber vertices when the cop is
    pinned).  The verdict's counterexample is the earliest loss by round
    (fixed robber) or the first refutation in search order (fixed cop).
    """
    if k_cops < 1:
        raise ValueError(f"k_cops must be at least 1, got {k_cops}")
    if fixed.side == "robber":
        return _exhaust_cops_vs_robber(g, fixed, free_side_placements, k_cops, budget)
    return _exhaust_robbers_vs_cop(g, fixed, free_side_placements, budget)


def _exhaust_cops_vs_robber(g, fixed, placements, k_cops, budget):
    if placements is None:
        placements = itertools.combinations_with_replacement(range(g.vertex_count), k_cops)
    else:
        placements = [_take_cops(g, p) for p in placements]
    nodes = 0
    components: dict[tuple[int, int], int] = {}
    best: tuple[int, Transcript] | None = None  # (capture half-depth, transcript)
    for cops in placements:
        r0, ps0 = fixed.robber_start(g, cops)
        check_vertex(g, r0)
        init = GameState(0, cops, r0, COP_TURN)
        if is_capture(init):
            tr = Transcript(graph=g, initial=init, outcome=Outcome("cop_win", round=0))
            return Verdict("beaten", nodes + 1, tr)
        # BFS by half-turns; cop branches, robber move pinned by the policy.
        seen = {(init, ps0): None}
        frontier: deque = deque([((init, ps0), 0)])
        while frontier:
            (node, depth) = frontier.popleft()
            if best is not None and depth >= best[0]:
                break
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(nodes)
            for key, records in _children(g, fixed, node):
                if key in seen:
                    continue
                seen[key] = (node, records)
                nstate = key[0]
                if is_capture(nstate):
                    tr = _rebuild_transcript(g, init, seen, key)
                    tr.outcome = Outcome("cop_win", round=(depth + 2) // 2)
                    if best is None or depth + 1 < best[0]:
                        best = (depth + 1, tr)
                    continue
                if not robber_component_check(g, nstate, components):
                    continue  # escaped: the fixed robber wins this branch
                frontier.append((key, depth + 1))
    if best is None:
        return Verdict("wins", nodes)
    return Verdict("beaten", nodes, best[1])


def _exhaust_robbers_vs_cop(g, fixed, placements, budget):
    cops = _take_cops(g, fixed.cop_placement(g))
    if placements is None:
        starts = [v for v in range(g.vertex_count) if v not in cops]
    else:
        starts = list(placements)
        for r0 in starts:
            check_vertex(g, r0)
    nodes = 0
    components: dict[tuple[int, int], int] = {}
    # Iterative DFS with an explicit GRAY set: a repeated in-progress node
    # means the robber can loop forever, beating the cop policy.
    done: set = set()
    for r0 in starts:
        init = GameState(0, cops, r0, COP_TURN)
        if is_capture(init):
            continue
        root = (init, fixed.initial_pstate(g, cops, r0))
        if root in done:
            continue  # a repeated start
        parent = {root: None}
        gray: set = set()
        stack: list[tuple] = [(root, None)]  # (node, child iterator)
        while stack:
            node, it = stack[-1]
            if it is None:  # first visit; a pushed node is never done or gray
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceeded(nodes)
                state = node[0]
                if is_capture(state):
                    done.add(node)
                    stack.pop()
                    continue
                if not robber_component_check(g, state, components):
                    tr = _rebuild_transcript(g, init, parent, node)
                    tr.outcome = Outcome("robber_escape", reason="isolated")
                    return Verdict("beaten", nodes, tr)
                gray.add(node)
                it = iter(_children(g, fixed, node))
                stack[-1] = (node, it)
            try:
                child, records = next(it)
            except StopIteration:
                gray.discard(node)
                done.add(node)
                stack.pop()
                continue
            if child in gray:
                # child is on the path to node: close the loop back to it
                tr = _rebuild_transcript(g, init, parent, node)
                tr.turns.append(records)
                tr.outcome = Outcome("robber_escape", reason="repeatable position")
                return Verdict("beaten", nodes, tr)
            if child not in done:
                parent[child] = (node, records)
                stack.append((child, None))
    return Verdict("wins", nodes)


def _children(g, fixed, node) -> list:
    """(child node, records) pairs: the pinned policy's one move on its
    side's turn, else every engine successor of the free side."""
    state, ps = node
    if (state.phase == COP_TURN) == (fixed.side == "cop"):
        move, nps = fixed.choose(g, state, ps)
        nstate, records = _policy_move(fixed, g, state, move)
        return [((nstate, nps), records)]
    if state.phase == COP_TURN:
        return [((t, ps), records) for (t, records) in cop_successors(g, state)]
    return [((t, ps), [record]) for (t, record) in robber_successors(g, state)]


def _rebuild_transcript(g, init, parent, node) -> Transcript:
    chain = []
    cur = node
    while parent[cur] is not None:
        prev, records = parent[cur]
        chain.append(records)
        cur = prev
    chain.reverse()
    return Transcript(graph=g, initial=init, turns=chain)
