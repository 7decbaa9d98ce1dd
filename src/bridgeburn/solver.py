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
Every state is kept in canonical form, given by two quotients:

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
sentinel is an escape.

A space calls `PackedGame.canonical` on its roots only.  A state's high
bits, its canonical burned mask and robber, are its view, and many states
share one: grid(3,4) k=1 has 14,105 states on 739 views.
`PackedGame.crossings` lists, once per view, the robber's component and
the canonical high bits after each crossing out of it, each component got
from the view's own: kept when the crossed edge lies on a cycle with no
burned edge, else updated by `graph.component_after_burn`.  A RobberTurn
state's successors are its stay and, per crossing, those high bits with
its cops, any cop outside the new component parked at the sentinel.  A
RobberTurn state with an escaping move is a robber win, so none of its
successors is interned; as a cop move keeps every cop in the robber's
component, no state but a root is ever escaped.  A space keeps per state
its key (the phase is its low bit), its predecessors and its robber
successor count; it tests capture when it interns a state, and escape on
its roots only.

Whole-game solving runs in one process, one orbit of robber starts at a
time.  An automorphism sigma of the graph does not change a game's value,
so placement p against start r is worth sigma(p) against sigma(r).
`graph.vertex_orbits` gives each start r the least vertex rho of its
orbit under Aut(G) and a checked automorphism sigma_r with sigma_r(r) =
rho.  For each orbit, in order of rho, one space rooted at rho is seeded
with sigma_r(p) for every start r of the orbit and every placement p not
yet refuted that does not contain r, so the placements share the states
their plays have in common (the burned mask is a trail from rho, so
spaces of different orbits hardly overlap).  A graph with no symmetry
has one orbit per vertex, one space per start.  `explored_states`, the
CLI's `exploredStates` and every budget count these quotient states,
summed over the spaces of the orbits' representatives.

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
    COP_TURN,
    ROBBER_TURN,
    GameState,
    PackedGame,
    Variant,
)
from .graph import Graph, check_vertex, is_connected, vertex_orbits

DEFAULT_BUDGET = 10**7

# extract_strategy's move lists; bench/tracer.py patches these names.
cop_successors, robber_successors = PackedGame.cop_successors, PackedGame.robber_successors


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

    Per state id: `keys` (the phase is the low bit), `preds` and
    `robber_succ_count`.  `_intern` sends a captured state to
    `captured_ids`, any other to the next layer; an escaped root (only a
    root can be one) keeps its id but is never expanded, a robber win.

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
        self.preds: list[list[int]] = []
        self.robber_succ_count: list[int] = []
        self.captured_ids: list[int] = []
        self._layer: list[int] = []  # unexpanded live states, all of one depth
        self._depth = 0
        for s in roots:
            self._intern(game.canonical(game.encode(s)))
        self._layer = [sid for sid in self._layer if not game.escaped(self.keys[sid])]

    def _intern(self, key: int) -> int:
        sid = len(self.keys)
        if self.budget is not None and sid >= self.budget:
            raise BudgetExceeded(sid)
        self.ids[key] = sid
        self.keys.append(key)
        if self.game.captured(key):
            self.captured_ids.append(sid)
        else:
            self._layer.append(sid)
        self.preds.append([])
        self.robber_succ_count.append(0)
        return sid

    def expand_to(self, horizon: int) -> None:
        """Expand every live state of depth < horizon.

        A cop move changes neither the burned mask nor the robber's
        component, so `cop_successors` gives canonical keys.  A robber
        state's successors are its stay and, from `PackedGame.crossings`,
        each crossing's canonical head with the cops, parked at the
        sentinel if outside the new component.
        """
        ids, keys, preds, intern = self.ids, self.keys, self.preds, self._intern
        game = self.game
        cop_moves, crossings, park = game.cop_successors, game.crossings, game.park
        one_cop, m = game.k == 1, game.vertex_mask
        cops_mask, all_sentinel = game.cops_mask, game.all_sentinel
        while self._layer and self._depth < horizon:
            layer, self._layer = self._layer, []
            for sid in layer:
                key = keys[sid]
                if key & 1 == ROBBER_TURN:
                    table = crossings(key)
                    succ = [key ^ ROBBER_TURN]
                    if one_cop:
                        # Direct, as in cop_successors: with park() on each
                        # crossing, as below, solve-copwin took 10-39% longer.
                        c, cop = key >> 1 & m, key & cops_mask
                        succ += [head | cop for comp, head in table if comp >> c & 1]
                    else:
                        for comp, head in table:
                            cops = park(key, comp)
                            if cops == all_sentinel:
                                break
                            succ.append(head | cops)
                    if len(succ) <= len(table):
                        continue  # an escaping crossing: a robber win, never in W
                    self.robber_succ_count[sid] = len(succ)
                else:
                    succ = cop_moves(key)
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
        keys, preds = self.keys, self.preds
        bfs = self.captured_ids.copy()
        for sid in bfs:
            won[sid] = 1
        for sid in bfs:  # grows while iterated: a breadth-first queue
            r1 = rank[sid] + 1
            for p in preds[sid]:
                if won[p]:
                    continue
                if keys[p] & 1 == ROBBER_TURN:
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
    if not (isinstance(s.cops, tuple) and s.cops):
        raise ValueError(f"cops {s.cops!r} is not a non-empty tuple of vertices")
    for v in (*s.cops, s.robber):
        check_vertex(g, v)
    if not (isinstance(s.burned, int) and 0 <= s.burned < 1 << g.edge_count):
        raise ValueError(f"burned mask {s.burned!r} is not an int in [0, 2**{g.edge_count})")
    if not (isinstance(s.phase, int) and s.phase in (COP_TURN, ROBBER_TURN)):
        raise ValueError(f"phase {s.phase!r} is neither COP_TURN (0) nor ROBBER_TURN (1)")


def extract_strategy(
    g: Graph,
    state: GameState,
    variant: Variant = BRIDGE_BURNING,
    budget: int | None = DEFAULT_BUDGET,
) -> dict[GameState, GameState] | None:
    """Optimal cop moves from `state`, or None if the robber wins.

    The quotient space is grown as for `solve_position`, up to the first
    horizon above the root's rank; the strategy is then read off by
    walking real (not canonical) packed keys forward: the chosen cop move,
    and every robber reply.  The result maps each CopTurn state of that
    walk to its move, both decoded.  The chosen move minimizes the
    attractor rank, ties broken by the smallest sorted cop tuple, so the
    mapping is deterministic.  The walk stays inside that horizon, where
    ranks are exact, so the fully expanded space would give the same
    strategy.
    """
    _validate_state(g, state)
    space, won, rank = _solve(g, [state], variant, budget)
    if not won[0]:
        return None
    game, ids = space.game, space.ids
    strategy: dict[GameState, GameState] = {}
    root = game.encode(state)
    seen = {root}
    todo = [root]
    while todo:
        key = todo.pop()
        if game.captured(key):
            continue
        if key & 1 == COP_TURN:
            best = move = None
            for t in cop_successors(game, key):
                tid = ids.get(game.canonical(t))
                if tid is not None and won[tid]:
                    order = (rank[tid], game.cops(t))
                    if best is None or order < best:
                        best, move = order, t
            if move is None:
                s = game.decode(key)
                raise SolverInvariantError(f"winning state {s} has no winning cop move")
            strategy[game.decode(key)] = game.decode(move)
            nexts = [move]
        else:
            nexts = robber_successors(game, key)
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

    An automorphism sigma of g does not change a game's value, so
    placement p against start r is worth sigma(p) against sigma(r).  The
    starts are taken one orbit of Aut(g) at a time (`vertex_orbits`), in
    order of the orbit's least vertex rho, and one space is rooted at rho.
    It is seeded with sorted sigma_r(p) for every start r of the orbit and
    every placement p still live that does not contain r, each distinct
    placement once; p falls at r iff sigma_r(p) falls at rho, in as many
    rounds.  The placements an orbit refutes are dropped, and the search
    stops once none is live.  A placement that covers every vertex is a
    0-round cop win.  Returns {placement: worst rounds} for the winners,
    in the given order, and the states explored, which the budget bounds.
    """
    worst = dict.fromkeys(placements, 0)
    explored = 0
    orbits: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for r, (rho, sigma) in enumerate(vertex_orbits(g)):
        orbits.setdefault(rho, []).append((r, sigma))
    for rho in sorted(orbits):
        roots: dict[tuple[int, ...], int] = {}
        images = []  # (placement, root id of its image), per start of the orbit
        for p in worst:
            for r, sigma in orbits[rho]:
                if r not in p:
                    q = tuple(sorted([sigma[c] for c in p]))
                    images.append((p, roots.setdefault(q, len(roots))))
        if not roots:
            continue
        remaining = None if budget is None else budget - explored
        space, won, rank = _solve(g, [GameState(0, q, rho, COP_TURN) for q in roots], variant, remaining)
        explored += len(space.keys)
        for p, i in images:
            if not won[i]:
                worst.pop(p, None)
            elif p in worst:
                worst[p] = max(worst[p], (rank[i] + 1) // 2)
        del space, won, rank  # free this orbit's space before the next one is grown
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

    The cop side wins iff some placement beats every robber start.  Starts
    are solved one orbit of Aut(g) at a time, at the orbit's least vertex
    (see `_placement_rounds`); `explored_states` sums the states of those
    representatives' spaces.  The reported placement is the
    lexicographically least one among those minimizing worst-case capture
    rounds; a robber start on top of a cop counts as capture in round 0
    and is never chosen while another vertex exists.  `threads` is
    accepted and has no effect: the solve runs in one process.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if g.vertex_count == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("cop_wins_with_k requires a connected graph")
    # Vertex 0 is the least vertex of the first orbit, whose space is seeded
    # with exactly the placements avoiding vertex 0, so a budget below their
    # number is spent before any is listed.
    if budget is not None and math.comb(max(g.vertex_count - 1, 0) + k - 1, k) > budget:
        raise BudgetExceeded(budget)
    placements = list(itertools.combinations_with_replacement(range(g.vertex_count), k))
    try:
        worst, explored = _placement_rounds(g, placements, variant, budget)
    except BudgetExceeded:
        # An orbit's space stops at the remaining budget, so the running
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
