"""Bridge-burning game rules: states, legal moves, transitions, terminals.

A round is one cop half-turn followed by one robber half-turn.  Every cop
independently stays or crosses one unburned edge; the robber stays or
crosses one unburned incident edge, and crossing permanently deletes that
edge for both sides.  Capture (any cop sharing the robber's vertex) is
checked after every half-turn and ends the game immediately.

`_unburned_edge` is the only legality test of a move.  Three functions
apply a half-turn through it: `apply_cop_moves` and `apply_robber_move`
on GameStates, with move records, for `run_match`, counterexample
records and `Transcript.replay`; and `PackedGame.apply` on packed keys,
without records, for the pinned policy of the arena's exhaustive
searches.  `PackedGame` is the only list of a side's moves, on states
packed into one int: the solver's strategy walk (`extract_strategy`) and
the arena's exhaustive searches expand through
`PackedGame.cop_successors` / `robber_successors`; the solver's search
expands through `cop_successors` and `PackedGame.crossings`, a per-view
table of robber crossings built from `robber_successors`.
`escaped(canonical(key))` is the one escape test; `run_match` and the
arena's searches ask it by `robber_component_check`.  Its component
memo searches a component from scratch only at a root: a robber
crossing's view keeps the parent's component when the crossed edge lies
on a cycle with no burned edge (`Graph.cycle_masks`), and else updates
it by `component_after_burn`.  A
counterexample's cop half-turn gets its records from `cop_dests`, which
finds the move tuple behind a cop multiset in the order those lists
use.  The scripted policies ask `cop_move_options` which moves are
open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import Graph, GraphError, component_after_burn, component_bitmask

COP_TURN = 0
ROBBER_TURN = 1

ROBBER = -1  # MoveRecord.actor value for the robber; cops use their index


class PhaseError(ValueError):
    pass


class IllegalMoveError(ValueError):
    pass


class GameState(NamedTuple):
    """Search node: burned-edge bitmask, sorted cop multiset, robber, phase."""

    burned: int
    cops: tuple[int, ...]
    robber: int
    phase: int


class MoveRecord(NamedTuple):
    actor: int  # cop index, or ROBBER
    from_vertex: int
    to_vertex: int
    burned_edge: int | None = None  # set iff the robber actually moved


@dataclass(frozen=True)
class Variant:
    """burning=False recovers classic Cops and Robbers (no edge deletion)."""

    burning: bool = True


BRIDGE_BURNING = Variant(burning=True)
CLASSIC = Variant(burning=False)


def is_capture(s: GameState) -> bool:
    return s.robber in s.cops


def cop_move_options(g: Graph, burned: int, c: int) -> list[int]:
    """Vertices a cop or robber at c may occupy next turn (stay first, then neighbors)."""
    opts = [c]
    for (y, eid) in g.adjacency[c]:
        if not burned >> eid & 1:
            opts.append(y)
    return opts


def cop_dests(g: Graph, s: GameState, cops) -> tuple[int, ...]:
    """The cop move tuple behind the half-turn from s to the multiset `cops`.

    It is the first tuple, in product order of the cops' `cop_move_options`,
    whose sorted multiset is `cops`, so two cops that keep their places stay
    rather than swap.  IllegalMoveError if no move reaches `cops`.
    """
    want = tuple(sorted(cops))
    for combo in itertools.product(*(cop_move_options(g, s.burned, c) for c in s.cops)):
        if tuple(sorted(combo)) == want:
            return combo
    raise IllegalMoveError(f"no cop move takes {s.cops} to {want}")


def _unburned_edge(g: Graph, burned: int, frm: int, to: int, who: str) -> int:
    try:
        eid = g.edge_id(frm, to)
    except GraphError:
        raise IllegalMoveError(f"{who} {frm}->{to} is not an edge") from None
    if burned >> eid & 1:
        raise IllegalMoveError(f"{who} {frm}->{to} crosses burned edge {eid}")
    return eid


def apply_cop_moves(g: Graph, s: GameState, dests) -> tuple[GameState, list[MoveRecord]]:
    """The cop half-turn in which the i-th sorted cop goes to dests[i].

    Each cop stays or crosses one unburned edge; an illegal move raises
    IllegalMoveError.  The burned mask never changes on a cop turn.
    """
    if s.phase != COP_TURN:
        raise PhaseError("apply_cop_moves requires a CopTurn state")
    if is_capture(s):
        raise IllegalMoveError("the robber is already caught")
    if len(dests) != len(s.cops):
        raise IllegalMoveError(f"{len(dests)} moves for {len(s.cops)} cops")
    records = []
    for i, (frm, to) in enumerate(zip(s.cops, dests)):
        if frm != to:
            _unburned_edge(g, s.burned, frm, to, f"cop {i}")
        records.append(MoveRecord(i, frm, to))
    return GameState(s.burned, tuple(sorted(dests)), s.robber, ROBBER_TURN), records


def apply_robber_move(
    g: Graph, s: GameState, to: int, variant: Variant = BRIDGE_BURNING
) -> tuple[GameState, MoveRecord]:
    """The robber half-turn to `to`: stay, or cross one unburned incident edge.

    Crossing burns the edge (bridge-burning variant only).  Moving onto a
    cop is legal and yields a captured state.
    """
    if s.phase != ROBBER_TURN:
        raise PhaseError("apply_robber_move requires a RobberTurn state")
    if is_capture(s):
        raise IllegalMoveError("the robber is already caught")
    r = s.robber
    if to == r:
        return GameState(s.burned, s.cops, r, COP_TURN), MoveRecord(ROBBER, r, r)
    eid = _unburned_edge(g, s.burned, r, to, "robber")
    burned = s.burned | 1 << eid if variant.burning else s.burned
    return GameState(burned, s.cops, to, COP_TURN), MoveRecord(ROBBER, r, to, eid)


# --- packed states -----------------------------------------------------------


class PackedGame:
    """The same rules on states packed into one int, for one graph and k cops.

    With w = n.bit_length() bits per vertex (enough for 0..n), a key is,
    from the low bits up:

        phase (1 bit) | k cops in ascending order (w bits each) | robber (w bits) | burned mask

    Vertex n is a sentinel with no moves; only `canonical` and `park` put
    cops there.  `cop_successors` and `robber_successors` list the moves of
    the rules above, computed on keys from per-vertex (neighbour, edge-bit)
    tables.

    The key's high bits, burned mask and robber, are its view.  Two memos
    on views live as long as the PackedGame: `_views`, the one component
    memo, maps a view to (robber's component, canonical high bits), and
    `_crossings` (see `crossings`) maps a view to the `_views` entries of
    the robber's crossings out of it.  The solver makes one PackedGame per
    `_GameSpace`, so the memos are freed with each orbit's space; the arena
    makes one per search or match.
    """

    def __init__(self, g: Graph, k: int, variant: Variant = BRIDGE_BURNING):
        n = g.vertex_count
        w = n.bit_length()
        self.g = g
        self.k = k
        self.burning = variant.burning
        self.sentinel = n
        self.width = w
        self.vertex_mask = (1 << w) - 1
        self.robber_shift = 1 + k * w
        self.cop_shifts = tuple(range(1, self.robber_shift, w))
        self.cops_mask = ((1 << k * w) - 1) << 1
        self.all_sentinel = sum(n << shift for shift in self.cop_shifts)
        self.moves = tuple(
            tuple((y, 1 << eid) for (y, eid) in adj) for adj in g.adjacency
        ) + ((),)
        self.incident = [g.incident_edge_bits(v) for v in range(n)]
        # The one component memo on keys, the solver's and the arena's:
        # (burned << w | robber) -> (robber's component, canonical high bits)
        self._views: dict[int, tuple[int, int]] = {}
        # The solver's robber-move table: view -> the _views entry of each
        # robber crossing out of it (see `crossings`)
        self._crossings: dict[int, tuple[tuple[int, int], ...]] = {}
        self.all_vertices = (1 << n) - 1

    def pack_cops(self, cops) -> int:
        key = 0
        for c, shift in zip(sorted(cops), self.cop_shifts):
            key |= c << shift
        return key

    def cops(self, key: int) -> list[int]:
        m = self.vertex_mask
        return [key >> shift & m for shift in self.cop_shifts]

    def encode(self, s: GameState) -> int:
        if len(s.cops) != self.k:
            raise ValueError(f"state has {len(s.cops)} cops, expected {self.k}")
        high = (s.burned << self.width | s.robber) << self.robber_shift
        return high | self.pack_cops(s.cops) | s.phase

    def decode(self, key: int) -> GameState:
        """The GameState of a key; a sentinel cop decodes as vertex n."""
        high = key >> self.robber_shift
        m = self.vertex_mask
        if self.k == 1:  # direct, as in cop_successors
            cops = (key >> 1 & m,)
        elif self.k == 2:
            cops = (key >> 1 & m, key >> self.cop_shifts[1] & m)
        else:
            cops = tuple(self.cops(key))
        return GameState(high >> self.width, cops, high & m, key & 1)

    def cop_successors(self, key: int) -> list[int]:
        """RobberTurn keys of every cop-team move, one per cop multiset.

        Cops move simultaneously and independently; two cops may swap
        across one edge.  Each multiset comes where the product of the
        cops' options (stay first, then neighbours in adjacency order)
        first reaches it, the order `cop_dests` searches.
        """
        burned = key >> (self.robber_shift + self.width)
        head = key >> self.robber_shift << self.robber_shift | ROBBER_TURN
        options = []
        for c in self.cops(key):
            opts = [c]
            for (y, bit) in self.moves[c]:
                if not burned & bit:
                    opts.append(y)
            options.append(opts)
        # One and two cops, the solver's common cases, get direct code:
        # with the general product alone for either, the solve benchmarks
        # take 8-29% longer.
        if self.k == 1:
            return [head | d << 1 for d in options[0]]
        if self.k == 2:
            (first, second), s = options, self.cop_shifts[1]
            return list({
                head | (a << 1 | b << s if a <= b else b << 1 | a << s): None
                for a in first
                for b in second
            })
        return list({head | self.pack_cops(m): None for m in itertools.product(*options)})

    def robber_successors(self, key: int) -> list[int]:
        """CopTurn keys of the robber's stay, then one per unburned incident edge."""
        w, shift = self.width, self.robber_shift
        high = key >> shift
        r = high & self.vertex_mask
        burned = high >> w
        cops = key & self.cops_mask
        out = [key ^ ROBBER_TURN]
        for (y, bit) in self.moves[r]:
            if not burned & bit:
                mask = burned | bit if self.burning else burned
                out.append((mask << w | y) << shift | cops)
        return out

    def canonical(self, key: int, parent: int | None = None) -> int:
        """The key with what can no longer matter quotiented out.

        Burned bits of edges with no endpoint in the robber's component are
        cleared, and every cop outside that component moves to the
        sentinel.  Burning only splits components, so such cops can never
        reach the robber again, and such edges can only ever be next to
        such cops.  A state is escaped iff all its cops are at the sentinel.

        `parent`, if given, is the key from which the robber has just
        crossed to key's vertex, and its view must be memoized already; a
        view not memoized yet then comes from the parent's view (see
        `_view`) instead of a search from scratch.
        """
        high = key >> self.robber_shift
        view = self._views.get(high)
        if view is None:
            view = self._memo(high, parent)
        comp, head = view
        if self.k == 1:  # direct, as in cop_successors
            c = key >> 1 & self.vertex_mask
            return head | (c if comp >> c & 1 else self.sentinel) << 1 | key & 1
        return head | self.park(key, comp) | key & 1

    def park(self, key: int, comp: int) -> int:
        """key's cop bits with every cop outside `comp` at the sentinel, sorted."""
        cops = self.cops(key)
        if all(comp >> c & 1 for c in cops):
            return key & self.cops_mask
        n = self.sentinel
        return self.pack_cops(c if comp >> c & 1 else n for c in cops)

    def crossings(self, key: int) -> tuple[tuple[int, int], ...]:
        """(component, canonical head) of each robber crossing out of key.

        One per unburned edge at the robber, in `robber_successors` order
        with the stay left out; only key's view matters.  The crossing's
        canonical key is head | park(key, component), an escape if every
        cop is parked.  Built once per view from `robber_successors` on the
        cop-less key; each child view comes from key's view (see `_view`).
        """
        high = key >> self.robber_shift
        table = self._crossings.get(high)
        if table is None:
            shift, views = self.robber_shift, self._views
            parent = high << shift | ROBBER_TURN
            if high not in views:
                self._memo(high, None)
            table = self._crossings[high] = tuple(
                views.get(t >> shift) or self._memo(t >> shift, parent)
                for t in self.robber_successors(parent)[1:]
            )
        return table

    def _memo(self, high: int, parent: int | None) -> tuple[int, int]:
        """The view of `high`, computed and memoized under `high` and under
        its canonical high bits, whose view is the same; so a canonical
        key's view is always memoized, and a crossing out of it gets its
        view from it."""
        view = self._views[high] = self._view(high, parent)
        self._views.setdefault(view[1] >> self.robber_shift, view)
        return view

    def _view(self, high: int, parent: int | None) -> tuple[int, int]:
        """(robber's component, canonical high bits) of `high`.

        Without a parent, the component is searched from scratch.  With
        one, the robber has crossed one edge out of the parent's view.  If
        that edge lies on a cycle with no burned edge, one of
        `Graph.cycle_masks`, or nothing burns (the classic game), the
        robber keeps the parent's component; the canonical high bits are
        then the parent's with the new robber and the crossed edge's bit,
        which has an endpoint in the component, and nothing is searched.
        Otherwise `component_after_burn` updates the parent's component.
        """
        w, m, shift = self.width, self.vertex_mask, self.robber_shift
        r, burned = high & m, high >> w
        if parent is None:
            comp = component_bitmask(self.g, r, burned)
        else:
            before = parent >> shift
            comp, head = self._views[before]
            crossed = burned ^ before >> w  # the crossed edge's bit, or 0
            for cycle in self.g.cycle_masks(crossed.bit_length() - 1) if crossed else (0,):
                if not burned & cycle:
                    return comp, ((head >> shift + w | crossed) << w | r) << shift
            comp = component_after_burn(self.g, burned, before & m, r, comp)
        if comp == self.all_vertices:  # every edge has an endpoint in comp
            return comp, high << shift
        near = 0
        for v, bits in enumerate(self.incident):
            if comp >> v & 1:
                near |= bits
        return comp, ((burned & near) << w | r) << shift

    def apply(self, key: int, move) -> int:
        """The key after the side to move in `key` plays `move`.

        The same half-turn as `apply_cop_moves` / `apply_robber_move` on
        the decoded state, with the same IllegalMoveError for an illegal
        move, but with no move records.  `key` must be uncaptured.
        """
        w, m, shift = self.width, self.vertex_mask, self.robber_shift
        burned = key >> (shift + w)
        if key & 1 == ROBBER_TURN:
            r = key >> shift & m
            if move == r:
                return key ^ ROBBER_TURN
            eid = _unburned_edge(self.g, burned, r, move, "robber")
            if self.burning:
                burned |= 1 << eid
            return (burned << w | move) << shift | key & self.cops_mask
        if len(move) != self.k:
            raise IllegalMoveError(f"{len(move)} moves for {self.k} cops")
        head = key >> shift << shift | ROBBER_TURN
        if self.k == 1:  # direct, as in cop_successors
            frm, (to,) = key >> 1 & m, move
            if frm != to:
                _unburned_edge(self.g, burned, frm, to, "cop 0")
            return head | to << 1
        for i, (frm, to) in enumerate(zip(self.cops(key), move)):
            if frm != to:
                _unburned_edge(self.g, burned, frm, to, f"cop {i}")
        return head | self.pack_cops(move)

    def escaped(self, key: int) -> bool:
        """For canonical keys: no cop is left in the robber's component."""
        return key & self.cops_mask == self.all_sentinel

    def captured(self, key: int) -> bool:
        """Whether a cop is on the robber's vertex."""
        m = self.vertex_mask
        r = key >> self.robber_shift & m
        if self.k == 1:  # direct, as in cop_successors
            return key >> 1 & m == r
        for shift in self.cop_shifts:
            if key >> shift & m == r:
                return True
        return False


def robber_component_check(game: PackedGame, key: int, parent: int | None = None) -> bool:
    """True iff some cop still shares the robber's component in `key`.

    False means the robber has escaped for good: burning only ever splits
    components.  `parent`, if given, is a key of the same play at most one
    robber half-turn earlier, and it (or an earlier key with the same
    robber and burned bits) passed this check, so its view is memoized.
    If the robber has not crossed since, the answer is True, as no cop can
    leave its component; else `canonical` gets his component from the
    parent's view (see `PackedGame._view`).
    """
    shift = game.robber_shift
    if parent is not None and key >> shift == parent >> shift:
        return True
    return not game.escaped(game.canonical(key, parent))


# --- transcripts -------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    kind: str  # "cop_win" | "robber_escape" | "round_limit"
    round: int | None = None
    reason: str | None = None


@dataclass
class Transcript:
    """Full record of one play-through; replayable move by move."""

    graph: Graph
    initial: GameState
    turns: list[list[MoveRecord]] = field(default_factory=list)
    outcome: Outcome | None = None

    def replay(self) -> GameState:
        """Re-apply every recorded move, validating legality; returns final state.

        Raises IllegalMoveError unless each half-turn is legal and its
        records are exactly the ones the engine produces for it.
        """
        s = self.initial
        for half_turn in self.turns:
            if s.phase == COP_TURN:
                s, records = apply_cop_moves(self.graph, s, [mv.to_vertex for mv in half_turn])
            elif len(half_turn) == 1:
                s, record = apply_robber_move(self.graph, s, half_turn[0].to_vertex)
                records = [record]
            else:
                raise IllegalMoveError(f"robber half-turn has {len(half_turn)} moves")
            if records != list(half_turn):
                raise IllegalMoveError(f"recorded {half_turn}, expected {records}")
        return s

    def to_json_dict(self) -> dict:
        from .graph import to_json_dict

        out = {
            "graph": to_json_dict(self.graph),
            "cops0": list(self.initial.cops),
            "robber0": self.initial.robber,
            "turns": [
                {
                    "actor": "robber" if mv.actor == ROBBER else f"cop{mv.actor}",
                    "from": mv.from_vertex,
                    "to": mv.to_vertex,
                    "burned": mv.burned_edge,
                }
                for half in self.turns
                for mv in half
            ],
        }
        if self.outcome is not None:
            out["outcome"] = {
                "kind": self.outcome.kind,
                "round": self.outcome.round,
                "reason": self.outcome.reason,
            }
        return out
