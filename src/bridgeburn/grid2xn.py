"""Cop team for 2xn grids: the ceil((n+2)/9) placement plus chase rules.

Placement follows the constructive upper-bound argument: a cop in column
3 (column n-1 when n <= 3), then one every ninth column, finishing with a
cop in column n-4.

In-game play composes the two chase arguments.  While the robber sits
between two cops they squeeze horizontally with the itemized exceptions
(burned-vertical sidestep; drop to row 1 after an opening run-away or an
opening up-move; hand-off after the robber loops back to his start).
Once the robber is past every cop on one side, the cop on that flank
plays the end-guard script: close to column 2, column-match across rows,
switch rows when the robber's way back is burned, and finish greedily in
the confined corner region.
"""

from __future__ import annotations

from .bounds import placement_generators
from .engine import GameState, cop_move_options
from .families import grid_vertex
from .graph import Graph, component_bitmask
from .strategies import Policy, _greedy_step, _require_family

LEFT, RIGHT = -1, 1


class Grid2xnCopTeam(Policy):
    side = "cop"
    name = "grid2xn_cop"

    def __init__(self, g: Graph, n: int):
        self.spec = _require_family(self, g, "grid", 2, n)
        self.n = n

    # vertex <-> coordinate helpers ------------------------------------------
    def _col(self, v: int) -> int:
        return v % self.n

    def _row(self, v: int) -> int:
        return v // self.n

    def cop_placement(self, g):
        return placement_generators(self.spec)

    def initial_pstate(self, g, cops, robber):
        # (cop turns taken, robber trace (first 5 positions), row-1-committed
        #  bitmask by sorted-cop slot, per-slot endgame side or 0)
        return (0, (robber,), 0, (0,) * len(cops))

    def choose(self, g, state: GameState, pstate):
        nturn, trace, committed, endgame = pstate
        r = state.robber
        if nturn > 0 and len(trace) < 6:
            trace = trace + (r,)
        cops = state.cops

        rcol = self._col(r)
        # Logical order by (column, row) keeps flag ownership stable when a
        # cop drops rows (vertex order would reshuffle the sorted multiset).
        order = sorted(range(len(cops)), key=lambda i: (self._col(cops[i]), self._row(cops[i]), i))
        ccols = [self._col(cops[i]) for i in order]
        left_pos = max((p for p in range(len(order)) if ccols[p] <= rcol),
                       key=lambda p: (ccols[p], p), default=None)
        right_pos = min(
            (p for p in range(len(order)) if ccols[p] >= rcol and p != left_pos),
            key=lambda p: (ccols[p], p),
            default=None,
        )

        new_endgame = list(endgame)  # sticky: a guard never drops its assignment
        if right_pos is None and left_pos is not None and endgame[left_pos] == 0:
            new_endgame[left_pos] = RIGHT  # robber past the right flank
        if left_pos is None and right_pos is not None and endgame[right_pos] == 0:
            new_endgame[right_pos] = LEFT
        if self._four_cycle_return(trace):
            comp = component_bitmask(g, r, state.burned)
            for p in range(len(order)):
                c = cops[order[p]]
                if comp >> c & 1 and new_endgame[p] == 0:
                    new_endgame[p] = LEFT if rcol <= self._col(c) else RIGHT

        dests = [0] * len(cops)
        new_committed = committed
        for p in range(len(order)):
            slot = order[p]
            c = cops[slot]
            if new_endgame[p] != 0:
                dests[slot] = self._endgame_move(g, state, c, new_endgame[p])
                continue
            role = LEFT if p == left_pos else RIGHT if p == right_pos else 0
            d, went_down = self._squeeze_move(g, state, c, role, p, trace, committed, nturn)
            if went_down:
                new_committed |= 1 << p
            dests[slot] = d
        return tuple(dests), (min(nturn + 1, 8), trace, new_committed, tuple(new_endgame))

    # --- squeeze (two flanking cops) ------------------------------------------
    def _four_cycle_return(self, trace) -> bool:
        if len(trace) < 5 or trace[4] != trace[0]:
            return False
        deltas = set()
        for a, b in zip(trace[:4], trace[1:5]):
            deltas.add((self._col(b) - self._col(a), self._row(b) - self._row(a)))
        return deltas == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def _opening_ran_away(self, trace, cop_col: int) -> bool:
        # exception: robber starts in row 0 and his first move runs
        # horizontally away from this cop
        if len(trace) < 2 or self._row(trace[0]) != 0:
            return False
        c0, c1 = self._col(trace[0]), self._col(trace[1])
        if self._row(trace[1]) != 0 or c0 == c1:
            return False
        return abs(c1 - cop_col) > abs(c0 - cop_col)

    def _opening_popped_up(self, trace) -> bool:
        # exception: robber starts in row 1 and moves up on his first turn
        return (
            len(trace) >= 2
            and self._row(trace[0]) == 1
            and trace[1] == trace[0] - self.n
        )

    def _squeeze_move(self, g, state, c, role, slot, trace, committed, nturn):
        """Returns (destination, committed_to_row1_now)."""
        burned, r = state.burned, state.robber
        open_moves = cop_move_options(g, burned, c)
        if r in open_moves:
            return r, False
        ccol, crow = self._col(c), self._row(c)
        rcol = self._col(r)
        if role == 0:
            return c, False  # not a flank: hold position
        went_down = False
        if crow == 0 and not committed >> slot & 1:
            if self._opening_popped_up(trace) or self._opening_ran_away(trace, ccol):
                down = grid_vertex(self.n, ccol, 1)
                if down in open_moves:
                    return down, True
        if ccol == rcol:
            return c, went_down  # directly above/below with the rung burned
        step = grid_vertex(self.n, ccol + (1 if rcol > ccol else -1), crow)
        if step in open_moves:
            other = grid_vertex(self.n, self._col(step), 1 - crow)
            if other not in cop_move_options(g, burned, step):
                # entering a rungless vertex: sidestep to the other row first
                side = grid_vertex(self.n, ccol, 1 - crow)
                if side in open_moves:
                    return side, went_down
            return step, went_down
        side = grid_vertex(self.n, ccol, 1 - crow)
        if side in open_moves:
            return side, went_down
        return c, went_down

    # --- end-guard (one cop, robber cornered beyond it) ------------------------
    def _endgame_move(self, g, state, c, side) -> int:
        burned, r = state.burned, state.robber
        open_moves = cop_move_options(g, burned, c)
        if r in open_moves:
            return r
        ccol, crow = self._col(c), self._row(c)
        rcol = self._col(r)
        guard_col = 2 if side == LEFT else self.n - 3
        cornerward = rcol < ccol if side == LEFT else rcol > ccol

        # opener: close in on the guard column while the robber stays cornered;
        # afterwards plain shortest-path pursuit finishes (against a parked
        # robber the distance drops every turn, and every robber move burns
        # one of his own escape edges)
        if cornerward and (ccol > guard_col if side == LEFT else ccol < guard_col):
            step = grid_vertex(self.n, ccol + side, crow)
            if step in open_moves:
                return step
        return _greedy_step(g, burned, c, r)
