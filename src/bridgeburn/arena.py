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

Nodes are (key, policy internal state) pairs, where the key is the
state packed into one int by engine.PackedGame (one PackedGame per
search, for its k cops).  The node is the memo key of both searches,
which keeps the memoization sound for stateful policies.  It holds the
raw key, because a policy sees the whole burned mask.

The arena holds no rules of its own.  The free side's moves are
PackedGame.cop_successors / robber_successors on the key.  On the pinned
side's turn the key is decoded only to call the policy's choose; its move
is applied to the key by PackedGame.apply, which checks it with the same
edge test and errors as apply_cop_moves / apply_robber_move.  Both
searches expand a node through one function, made by _expander.  A
robber policy's `robber_start` gives its start vertex and initial state
in one call per play, so nothing a placement decides outlives that play.
Every placement is checked against the graph before play from it starts:
free-side placements (their size too) before the search, a cop policy's
cops before the robber policy sees them, then the robber's vertex.

The checks read the key.  Capture is PackedGame.captured; the keys are
raw, so no cop is at the sentinel and none is escaped.  The escape check
is engine.robber_component_check(game, key, parent): on a search's root
without a parent, and on every uncaptured node below it with its parent
node's key (run_match passes the previous round's key), so only a root's
component is searched from scratch.  The depth-first search calls it only
at a root and after a robber crossing, the only moves that can cut the
robber off.  There is one PackedGame per search and per match, so its
component memo dies with the call, and it gains at most one entry per
checked node, so the node budget bounds it too.

Each search, and each run_match, also keeps one graph.distance_memo and
passes it to every Policy.choose as `dist`, so a distance from one source
over one burned mask is computed once per search, not once per choice.
It dies with the call: a memo kept between calls would answer a repeated
search from the first one's work.  It holds at most as many entries as
the distinct sources one choose asks for (one for a greedy chaser, up to
deg + 1 for the farthest robber) times the nodes searched, so the node
budget bounds it as well.

The searches store no move records.  The breadth-first search keeps each
node's parent node, and the depth-first search's stack is the path to
the node it is on.  Only a counterexample's path is decoded and gets its
records, re-derived half-turn by half-turn by _records through apply_*,
as run_match plays: a free robber's move is its new vertex, and a free
cop team's is engine.cop_dests of its new multiset, the first move tuple
in the order PackedGame lists the moves.
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
    ROBBER_TURN,
    PackedGame,
    Transcript,
    apply_cop_moves,
    apply_robber_move,
    cop_dests,
    is_capture,
    robber_component_check,
)
from .graph import Graph, VertexRangeError, check_vertex, distance_memo
from .solver import BudgetExceeded
from .strategies import Policy, PolicyApplicabilityError

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
    """The sorted cop multiset of a placement; VertexRangeError unless it lists vertices."""
    try:
        cops = tuple(sorted(placement))
    except TypeError:
        raise VertexRangeError(f"cop placement {placement!r} is not a list of vertices") from None
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
    game = PackedGame(g, len(cops))
    key = game.encode(state)
    if not robber_component_check(game, key):
        t.outcome = Outcome("robber_escape", round=0, reason="isolated")
        return t
    pstates = [cop.initial_pstate(g, cops, r0), rob_ps]
    dist = distance_memo(g)
    for rnd in range(1, max_rounds + 1):
        for i, policy in enumerate((cop, robber)):
            move, pstates[i] = policy.choose(g, state, pstates[i], dist)
            state, records = _policy_move(policy, g, state, move)
            t.turns.append(records)
            if is_capture(state):
                t.outcome = Outcome("cop_win", round=rnd)
                return t
        parent, key = key, game.encode(state)
        if not robber_component_check(game, key, parent):
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
    pinned); a repeated placement is searched once.  A pinned robber
    policy that declines a cop placement raises PolicyApplicabilityError
    naming it.  The verdict's counterexample is the earliest loss by round
    (fixed robber) or the first refutation in search order (fixed cop).
    k_cops is the free cops' count: every given cop placement must have
    that many cops, and it must be 1 when the cop is pinned.
    """
    if k_cops < 1:
        raise ValueError(f"k_cops must be at least 1, got {k_cops}")
    if fixed.side == "cop" and k_cops != 1:
        raise ValueError(f"k_cops={k_cops}, but a pinned cop policy places every cop itself")
    if fixed.side == "robber":
        return _exhaust_cops_vs_robber(g, fixed, free_side_placements, k_cops, budget)
    return _exhaust_robbers_vs_cop(g, fixed, free_side_placements, budget)


def _exhaust_cops_vs_robber(g, fixed, placements, k_cops, budget):
    if placements is None:
        placements = itertools.combinations_with_replacement(range(g.vertex_count), k_cops)
    else:
        placements = dict.fromkeys(_take_cops(g, p) for p in placements)
        for cops in placements:
            if len(cops) != k_cops:
                raise ValueError(f"cop placement {cops} has {len(cops)} cops, but k_cops={k_cops}")
    game = PackedGame(g, k_cops)
    captured = game.captured
    nodes = 0
    dist = distance_memo(g)
    children = _expander(g, game, fixed, dist)
    best: tuple[int, list] | None = None  # (capture half-depth, path of nodes)
    for cops in placements:
        try:
            r0, ps0 = fixed.robber_start(g, cops)
        except PolicyApplicabilityError as e:
            raise PolicyApplicabilityError(
                f"policy {fixed.name!r} declines cops {cops}: {e}") from e
        check_vertex(g, r0)
        init = GameState(0, cops, r0, COP_TURN)
        if is_capture(init):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(nodes)
            tr = Transcript(graph=g, initial=init, outcome=Outcome("cop_win", round=0))
            return Verdict("beaten", nodes, tr)
        # BFS by half-turns; cop branches, robber move pinned by the policy.
        root = (game.encode(init), ps0)
        seen = {root: None}  # node -> its parent node
        frontier: deque = deque([(root, 0)])
        while frontier:
            (node, depth) = frontier.popleft()
            if best is not None and depth >= best[0]:
                break
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(nodes)
            key = node[0]
            if depth == 0 and not robber_component_check(game, key):
                break  # the robber starts cut off from every cop
            for child in children(node):
                if child in seen:
                    continue
                seen[child] = node
                ckey = child[0]
                if captured(ckey):
                    if best is None or depth + 1 < best[0]:
                        best = (depth + 1, _path(seen, child))
                    continue
                if not robber_component_check(game, ckey, key):
                    continue  # escaped: the fixed robber wins this branch
                frontier.append((child, depth + 1))
    if best is None:
        return Verdict("wins", nodes)
    tr = _transcript(g, game, fixed, best[1], dist)
    tr.outcome = Outcome("cop_win", round=(best[0] + 1) // 2)
    return Verdict("beaten", nodes, tr)


_GRAY, _DONE = 1, 2


def _exhaust_robbers_vs_cop(g, fixed, placements, budget):
    cops = _take_cops(g, fixed.cop_placement(g))
    if placements is None:
        starts = [v for v in range(g.vertex_count) if v not in cops]
    else:
        starts = list(placements)
        for r0 in starts:
            check_vertex(g, r0)
    game = PackedGame(g, len(cops))
    captured, shift = game.captured, game.robber_shift
    nodes = 0
    dist = distance_memo(g)
    children = _expander(g, game, fixed, dist)
    # Iterative DFS; the stack is the path from the root.  A child that is
    # _GRAY is on that path, so the robber can loop forever, beating the
    # cop policy.
    status: dict = {}
    for r0 in starts:
        init = GameState(0, cops, r0, COP_TURN)
        if is_capture(init):
            continue
        root = (game.encode(init), fixed.initial_pstate(g, cops, r0))
        if root in status:
            continue  # a repeated start
        stack: list[tuple] = [(root, None)]  # (node, child iterator)
        while stack:
            node, it = stack[-1]
            if it is None:  # first visit; a pushed node has no status yet
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceeded(nodes)
                key = node[0]
                if captured(key):
                    status[node] = _DONE
                    stack.pop()
                    continue
                # the node under this one on the stack is its parent; only a
                # root or a robber crossing can cut the robber off
                parent = stack[-2][0][0] if len(stack) > 1 else None
                crossed = parent is None or key >> shift != parent >> shift
                if crossed and not robber_component_check(game, key, parent):
                    tr = _transcript(g, game, fixed, [n for n, _ in stack], dist)
                    tr.outcome = Outcome("robber_escape", reason="isolated")
                    return Verdict("beaten", nodes, tr)
                status[node] = _GRAY
                it = iter(children(node))
                stack[-1] = (node, it)
            for child in it:
                mark = status.get(child)
                if mark is None:
                    stack.append((child, None))
                    break
                if mark == _GRAY:
                    # child is on the path to node: close the loop back to it
                    tr = _transcript(g, game, fixed, [n for n, _ in stack] + [child], dist)
                    tr.outcome = Outcome("robber_escape", reason="repeatable position")
                    return Verdict("beaten", nodes, tr)
            else:
                status[node] = _DONE
                stack.pop()
    return Verdict("wins", nodes)


def _pinned_turn(fixed, phase: int) -> bool:
    return (phase == COP_TURN) == (fixed.side == "cop")


def _expander(g, game, fixed, dist):
    """The search's children(node): the pinned policy's one move on its
    side's turn, applied to the key by PackedGame.apply, else every packed
    successor of the free side."""
    if fixed.side == "cop":
        pinned, free = COP_TURN, game.robber_successors
    else:
        pinned, free = ROBBER_TURN, game.cop_successors
    decode, apply, choose = game.decode, game.apply, fixed.choose

    def children(node) -> list:
        key, ps = node
        if key & 1 != pinned:
            return [(t, ps) for t in free(key)]
        move, nps = choose(g, decode(key), ps, dist)
        try:
            return [(apply(key, move), nps)]
        except IllegalMoveError as e:
            raise IllegalPolicyMoveError(fixed, str(e)) from None

    return children


def _records(g, fixed, node, child, dist) -> list:
    """The move records of the half-turn from node to child, both decoded,
    re-derived through the engine; policies are pure, so choose repeats its
    move."""
    state = node[0]
    if _pinned_turn(fixed, state.phase):
        move, _ = fixed.choose(g, state, node[1], dist)
        return _policy_move(fixed, g, state, move)[1]
    if state.phase == COP_TURN:
        return apply_cop_moves(g, state, cop_dests(g, state, child[0].cops))[1]
    return [apply_robber_move(g, state, child[0].robber)[1]]


def _path(parent, node) -> list:
    """The nodes from the search's root to node, by the parent links."""
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


def _transcript(g, game, fixed, path, dist) -> Transcript:
    """The transcript of a path of nodes; only a counterexample's is decoded."""
    path = [(game.decode(key), ps) for key, ps in path]
    turns = [_records(g, fixed, a, b, dist) for a, b in zip(path, path[1:])]
    return Transcript(graph=g, initial=path[0][0], turns=turns)
