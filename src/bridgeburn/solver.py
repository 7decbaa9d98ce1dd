"""Exact game solving by attractor computation over the reachable game graph.

The cop side wins from exactly the least fixed point W of:

* captured states are in W;
* a CopTurn state is in W iff some successor is in W;
* a RobberTurn state is in W iff every successor is in W.

States outside W, including all infinite plays, are robber wins (the
robber plays a safety game).  W and its ranks are computed retrograde
with per-state outstanding-successor counters, so cycles default to
robber wins without any loop bookkeeping.

Ranks count half-turns; a capture on the cop half-turn of round t has
rank 2t-1 from the round-t CopTurn state, and a robber move into capture
has rank 2t, so rounds = ceil(rank / 2).

States are `engine.PackedGame` keys: one int holding, from the low bits
up, the phase, the sorted cops, the robber and the burned-edge mask.
The initial state and every robber-move successor are put into canonical
form by two quotients:

* burned bits of edges with no endpoint in the robber's component are
  cleared;
* every cop outside the robber's component moves to a sentinel vertex n
  that has no moves, and the cops are re-sorted.

Both are sound because burning only splits components.  A cop outside
the robber's component can never reach the robber again, so only its
absence matters; an edge with no endpoint in that component can only
ever be next to such cops, so whether it is burned cannot matter.  A cop move
changes neither the burned mask nor the robber's component, so cop-move
successors need no re-canonicalizing.  A state whose cops are all at the
sentinel is an escape.  A RobberTurn state with an escaping move is a
robber win, so its other successors are never generated.

Whole-game solving runs in one process, one robber start at a time.  For
each start r, in vertex order, one space is seeded with every placement
not yet refuted that does not contain r, so the placements share the
states their plays have in common (the burned mask is a trail from r, so
spaces of different starts hardly overlap).  `explored_states`, the CLI's
`exploredStates` and every budget count these quotient states, summed
over the starts' spaces.

The reachable graph is grown in stages (horizon doubling).  States past
the current horizon count as robber wins, which is pessimistic for the
cop, so a cop win certified with rank below the horizon is exact; robber
wins are only reported once the reachable graph is fully expanded.  This
keeps dense graphs with fast captures cheap while staying exact.  Growth
goes breadth-first from all roots at once, so every state within the
horizon of any one root is expanded and the argument holds per root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .engine import (
    BRIDGE_BURNING,
    CAPTURED,
    COP_TURN,
    ESCAPED,
    ROBBER_TURN,
    GameState,
    PackedGame,
    Variant,
    cop_successors,
    is_capture,
    robber_successors,
)
from .graph import Graph, check_vertex, is_connected

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when a solve touches more states than its budget allows.

    `explored` is the running total at which the search stopped; for
    whole-game solving that is the budget itself.
    """

    def __init__(self, explored: int):
        super().__init__(f"explored-state budget exceeded ({explored} states)")
        self.explored = explored


class SolverInvariantError(RuntimeError):
    """A result broke a property the solver guarantees; a solver bug."""


class DisconnectedGraphError(ValueError):
    """Whole-game solving assumes a connected graph."""


class CaptureTimeDomainError(ValueError):
    """capt_b is defined only for graphs with bridge-burning cop number 1."""


class PositionValue(NamedTuple):
    winner: str  # "cop" | "robber"
    rounds: int | None  # present iff winner == "cop"
    explored: int


@dataclass(frozen=True)
class SolveResult:
    winner: str
    k: int
    optimal_placement: tuple[int, ...] | None
    capture_time_rounds: int | None
    explored_states: int

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "k": self.k,
            "placement": list(self.optimal_placement) if self.optimal_placement else None,
            "captureTimeRounds": self.capture_time_rounds,
            "exploredStates": self.explored_states,
        }


@dataclass(frozen=True)
class CopNumberResult:
    value: int | None  # None when the search exceeded k_max
    k_max: int
    explored_states: int

    @property
    def exceeded(self) -> bool:
        return self.value is None


class _GameSpace:
    """Reachable quotient game graph from its roots, grown stage by stage.

    The roots are interned first, in order, so root i has id i.  Expansion
    goes one breadth-first layer at a time, so after `expand_to(h)` every
    live state of depth < h is expanded and no deeper one is; a state's
    depth is its distance from the nearest root.
    """

    def __init__(self, g: Graph, roots: list[GameState], variant: Variant, budget: int | None):
        self.game = game = PackedGame(g, len(roots[0].cops), variant)
        self.budget = budget
        self.ids: dict[int, int] = {}
        self.keys: list[int] = []
        self.kind = bytearray()
        self.preds: list[list[int]] = []
        self.robber_succ_count: list[int] = []
        self.captured_ids: list[int] = []
        self._layer: list[int] = []  # unexpanded live states, all of one depth
        self._depth = 0
        for s in roots:
            self._intern(game.canonical(game.encode(s)))

    def _intern(self, key: int) -> int:
        sid = len(self.keys)
        if self.budget is not None and sid >= self.budget:
            raise BudgetExceeded(sid)
        self.ids[key] = sid
        self.keys.append(key)
        kind = self.game.kind(key)
        if kind == CAPTURED:
            self.captured_ids.append(sid)
        elif kind != ESCAPED:
            self._layer.append(sid)
        self.kind.append(kind)
        self.preds.append([])
        self.robber_succ_count.append(0)
        return sid

    def expand_to(self, horizon: int) -> None:
        """Expand every live state of depth < horizon.

        A cop move changes neither the burned mask nor the robber's
        component, so only robber moves need `canonical`.
        """
        ids, keys, kind, preds, intern = self.ids, self.keys, self.kind, self.preds, self._intern
        game = self.game
        canonical, escaped = game.canonical, game.escaped
        cop_moves, robber_moves = game.cop_successors, game.robber_successors
        while self._layer and self._depth < horizon:
            layer, self._layer = self._layer, []
            for sid in layer:
                if kind[sid] == ROBBER_TURN:
                    succ = [canonical(t) for t in robber_moves(keys[sid])]
                    if any(map(escaped, succ)):
                        continue  # a robber win: never in W, so no successors needed
                    self.robber_succ_count[sid] = len(succ)
                else:
                    succ = cop_moves(keys[sid])
                for t in succ:
                    tid = ids.get(t)
                    if tid is None:
                        tid = intern(t)
                    preds[tid].append(sid)
            self._depth += 1

    @property
    def fully_expanded(self) -> bool:
        return not self._layer

    def run_attractor(self) -> tuple[bytearray, list[int]]:
        """Retrograde pass; returns (in-W flags, half-turn ranks).

        Only expanded states have predecessors, so unexpanded states stay
        out of W unless captured: pessimistic for the cop side.
        """
        won = bytearray(len(self.keys))
        rank = [0] * len(self.keys)
        pending = self.robber_succ_count.copy()
        kind, preds = self.kind, self.preds
        bfs = self.captured_ids.copy()
        for sid in bfs:
            won[sid] = 1
        for sid in bfs:  # grows while iterated: a breadth-first queue
            r1 = rank[sid] + 1
            for p in preds[sid]:
                if won[p]:
                    continue
                if kind[p] == ROBBER_TURN:
                    pending[p] -= 1
                    if pending[p]:
                        continue
                won[p] = 1
                rank[p] = r1
                bfs.append(p)
        return won, rank


def solve_position(
    g: Graph,
    state: GameState,
    variant: Variant = BRIDGE_BURNING,
    budget: int | None = DEFAULT_BUDGET,
) -> PositionValue:
    """Decide one position exactly: CopWin(rounds) or RobberWin."""
    state = state.canonical()
    _validate_state(g, state)
    space, won, rank = _solve(g, [state], variant, budget)
    rounds = (rank[0] + 1) // 2 if won[0] else None
    return PositionValue("cop" if won[0] else "robber", rounds, len(space.keys))


def _solve(
    g: Graph,
    roots: list[GameState],
    variant: Variant,
    budget: int | None,
) -> tuple[_GameSpace, bytearray, list[int]]:
    """The space grown from `roots` until every root is decided, with its
    attractor (in-W flags, half-turn ranks).

    The roots must stay distinct under the quotient, so root i has id i.
    """
    space = _GameSpace(g, roots, variant, budget)
    root_ids = range(len(roots))
    horizon = 4
    while True:
        space.expand_to(horizon)
        won, rank = space.run_attractor()
        if space.fully_expanded or all(won[i] and rank[i] < horizon for i in root_ids):
            return space, won, rank
        horizon *= 2


def _validate_state(g: Graph, s: GameState) -> None:
    for v in (*s.cops, s.robber):
        check_vertex(g, v)
    if s.burned >> g.edge_count:
        raise ValueError("burned mask has bits beyond edge_count")
    if s.phase not in (COP_TURN, ROBBER_TURN):
        raise ValueError(f"bad phase {s.phase}")


def extract_strategy(
    g: Graph,
    state: GameState,
    variant: Variant = BRIDGE_BURNING,
    budget: int | None = DEFAULT_BUDGET,
) -> dict[GameState, GameState] | None:
    """Optimal cop moves from `state`, or None if the robber wins.

    The quotient space is grown as for `solve_position`, up to the first
    horizon above the root's rank; the strategy is then read off by
    walking real states forward: the chosen cop move, and every robber
    reply.  The result maps each CopTurn state of that walk to its move.
    The chosen move minimizes the attractor rank, ties broken by smallest
    successor state, so the mapping is deterministic.  The walk stays
    inside that horizon, where ranks are exact, so the fully expanded
    space would give the same strategy.
    """
    state = state.canonical()
    _validate_state(g, state)
    space, won, rank = _solve(g, [state], variant, budget)
    if not won[0]:
        return None
    game = space.game
    strategy: dict[GameState, GameState] = {}
    seen = {state}
    todo = [state]
    while todo:
        s = todo.pop()
        if is_capture(s):
            continue
        if s.phase == COP_TURN:
            best: tuple[int, GameState] | None = None
            for t, _records in cop_successors(g, s):
                tid = space.ids.get(game.canonical(game.encode(t)))
                if tid is not None and won[tid] and (best is None or (rank[tid], t) < best):
                    best = (rank[tid], t)
            if best is None:
                raise SolverInvariantError(f"winning state {s} has no winning cop move")
            strategy[s] = best[1]
            nexts = [best[1]]
        else:
            nexts = [t for (t, _mv) in robber_successors(g, s, variant)]
        for t in nexts:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return strategy


def _placement_rounds(
    g: Graph,
    placements: list[tuple[int, ...]],
    variant: Variant,
    budget: int | None,
) -> tuple[dict[tuple[int, ...], int], int]:
    """Worst capture rounds of every placement that beats each robber start.

    Starts go in vertex order.  Each start's space is seeded with every
    placement still live that does not contain it; the placements it
    refutes are dropped, and the search stops once none is live.  A
    placement that covers every vertex is a 0-round cop win.  Returns
    {placement: worst rounds} for the winners, in the given order, and
    the states explored, which the budget bounds.
    """
    worst = dict.fromkeys(placements, 0)
    explored = 0
    for r in range(g.vertex_count):
        live = [p for p in worst if r not in p]
        if not live:
            continue
        remaining = None if budget is None else budget - explored
        roots = [GameState(0, p, r, COP_TURN) for p in live]
        space, won, rank = _solve(g, roots, variant, remaining)
        explored += len(space.keys)
        for i, p in enumerate(live):
            if won[i]:
                worst[p] = max(worst[p], (rank[i] + 1) // 2)
            else:
                del worst[p]
        del space, won, rank  # free this start's space before the next one is grown
        if not worst:
            break
    return worst, explored


def _evaluate_placement(g, placement, variant, budget):
    # The one-placement case; bench/tracer.py patches this name.
    return _placement_rounds(g, [placement], variant, budget)


def cop_wins_with_k(
    g: Graph,
    k: int,
    variant: Variant = BRIDGE_BURNING,
    budget: int | None = DEFAULT_BUDGET,
    threads: int | None = None,
) -> SolveResult:
    """Search all initial cop multisets of size k against best robber play.

    The cop side wins iff some placement beats every robber start.  The
    reported placement is the lexicographically least one among those
    minimizing worst-case capture rounds; a robber start on top of a cop
    counts as capture in round 0 and is never chosen while another vertex
    exists.  `threads` is accepted and has no effect: the solve runs in
    one process.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not is_connected(g):
        raise DisconnectedGraphError("cop_wins_with_k requires a connected graph")
    # Robber start 0 alone seeds one root per placement avoiding vertex 0,
    # so a budget below their number is spent before any is listed.
    if budget is not None and math.comb(max(g.vertex_count - 1, 0) + k - 1, k) > budget:
        raise BudgetExceeded(budget)
    placements = list(itertools.combinations_with_replacement(range(g.vertex_count), k))
    try:
        worst, explored = _placement_rounds(g, placements, variant, budget)
    except BudgetExceeded:
        # A start's space stops at the remaining budget, so the running
        # total at the stop is the budget.
        raise BudgetExceeded(budget) from None
    if not worst:
        return SolveResult("robber", k, None, None, explored)
    best = min(worst, key=worst.__getitem__)  # lex order: min keeps the least argmin
    return SolveResult("cop", k, best, worst[best], explored)


def bridge_burning_cop_number(
    g: Graph,
    k_max: int = 8,
    variant: Variant = BRIDGE_BURNING,
    budget: int | None = DEFAULT_BUDGET,
) -> CopNumberResult:
    """Least k <= k_max such that k cops win; monotonicity in k is assumed.

    `budget` bounds the states explored over all k together.
    """
    explored = 0
    for k in range(1, k_max + 1):
        remaining = None if budget is None else budget - explored
        try:
            res = cop_wins_with_k(g, k, variant, remaining)
        except BudgetExceeded:
            raise BudgetExceeded(budget) from None
        explored += res.explored_states
        if res.winner == "cop":
            return CopNumberResult(k, k_max, explored)
    return CopNumberResult(None, k_max, explored)


def capture_time_bb(
    g: Graph,
    budget: int | None = DEFAULT_BUDGET,
    threads: int | None = None,
) -> SolveResult:
    """Worst-case rounds for one cop on a graph with c_b = 1 (capt_b).

    `threads` is accepted and has no effect.
    """
    res = cop_wins_with_k(g, 1, BRIDGE_BURNING, budget)
    if res.winner != "cop":
        raise CaptureTimeDomainError("capture time is defined only when c_b(G) = 1")
    if res.capture_time_rounds is None:
        raise SolverInvariantError("a cop win must report its capture rounds")
    if res.capture_time_rounds > g.edge_count * g.vertex_count:
        # The paper's bound capt_b(G) <= |E| * n.
        raise SolverInvariantError(
            f"capture time {res.capture_time_rounds} exceeds |E| * n = "
            f"{g.edge_count * g.vertex_count}"
        )
    return res
