"""Scripted policies for both sides, mirroring the constructive arguments.

A policy is deterministic: given the graph, the current state, and its own
internal state it returns exactly one move for its side.  In-game state
is explicit and hashable so exhaustive validation can memoize on
(game state, policy state) pairs.  Whatever a placement decides, such as
a scripted robber's walk, goes into that state: no policy method but
`__init__` assigns to the instance, so one instance serves any number of
plays.

Cop policies return a tuple of destination vertices aligned with the
sorted cop multiset; robber policies return a single destination vertex.
A policy written for one family raises `PolicyApplicabilityError` unless
`families.is_member` accepts the graph (`HypercubeMirrorCop` also takes Q0).
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Hashable

from .bounds import placement_generators
from .engine import GameState, apply_robber_move, cop_move_options
from .families import (
    FamilySpec,
    FamilySpecError,
    capture_family_blocks,
    grid_coords,
    grid_vertex,
    is_member,
)
from .graph import Graph, all_degrees_even, all_distances_from

class PolicyApplicabilityError(ValueError):
    """The policy's preconditions do not hold for this graph/placement."""


class PolicyStateError(ValueError):
    """A policy's internal state contradicts the game state it was given."""


def _require_family(policy: "Policy", g: Graph, family: str, *params: int) -> FamilySpec:
    """The spec of g's family; PolicyApplicabilityError unless g is exactly it."""
    try:
        spec = FamilySpec(family, params)
    except FamilySpecError as e:
        raise PolicyApplicabilityError(f"{policy.name}: {e}") from None
    if not is_member(g, spec):
        raise PolicyApplicabilityError(f"{policy.name} needs the graph {spec}")
    return spec


class Policy:
    """A cop side places with `cop_placement` and starts its state with
    `initial_pstate`; a robber side does both in `robber_start`, after
    seeing the cops."""

    side: str  # "cop" | "robber"
    name: str

    def cop_placement(self, g: Graph) -> tuple[int, ...]:
        raise NotImplementedError

    def initial_pstate(self, g: Graph, cops: tuple[int, ...], robber: int) -> Hashable:
        return None

    def robber_start(self, g: Graph, cops: tuple[int, ...]) -> tuple[int, Hashable]:
        """Return (start vertex, initial pstate) against the placed cops."""
        raise NotImplementedError

    def choose(self, g: Graph, state: GameState, pstate: Hashable):
        """Return (move, new_pstate)."""
        raise NotImplementedError


def _greedy_step(g: Graph, burned: int, frm: int, dist: list[int]) -> int:
    """One step reducing `dist`, current-graph distances to a target; stay
    if impossible."""
    if dist[frm] <= 0:
        return frm
    best = frm
    best_d = dist[frm]
    for y in sorted(cop_move_options(g, burned, frm)[1:]):
        if 0 <= dist[y] < best_d:
            best, best_d = y, dist[y]
    return best


def _follow(g: Graph, state: GameState, walk: tuple[int, ...]):
    """(move, rest of walk): the walk's next step if its edge is open, else stay."""
    if walk and walk[0] in cop_move_options(g, state.burned, state.robber):
        return walk[0], walk[1:]
    return state.robber, walk


# --- cop policies -------------------------------------------------------------


class StationaryCop(Policy):
    side = "cop"
    name = "stationary"

    def __init__(self, g: Graph, starts=(0,)):
        self.starts = tuple(sorted(int(s) for s in starts))

    def cop_placement(self, g):
        return self.starts

    def choose(self, g, state, pstate):
        return tuple(state.cops), pstate


class GreedyCloserCop(StationaryCop):
    """Baseline chaser: each cop steps along a shortest unburned path."""

    name = "greedy_closer"

    def choose(self, g, state, pstate):
        dist = all_distances_from(g, state.robber, state.burned)
        dest = tuple(_greedy_step(g, state.burned, c, dist) for c in state.cops)
        return dest, pstate


class TorusPlacementCop(GreedyCloserCop):
    """Torus upper-bound placement; in-game play is plain greedy chasing,
    which is NOT the full multi-case chase the bound's argument uses.

    `tests/test_strategies.py::test_placement_chasers_outcomes` checks
    with exhaust_vs_policy that it wins on the 3x3, 4x4 and 5x5 tori and
    loses to an isolated escape, which replays, on the 6x6 torus.
    """

    name = "torus_placement"

    def __init__(self, g: Graph, m: int, n: int):
        super().__init__(g, placement_generators(_require_family(self, g, "torus", m, n)))


class GridPlacementCop(GreedyCloserCop):
    """Grid upper-bound placement with greedy in-game play (same caveat).

    `tests/test_strategies.py::test_placement_chasers_outcomes` checks
    with exhaust_vs_policy that it wins on the 8x8 grid and loses to an
    isolated escape, which replays, on the 8x9 grid.
    """

    name = "grid_placement"

    def __init__(self, g: Graph, m: int, n: int):
        super().__init__(g, placement_generators(_require_family(self, g, "grid", m, n)))


class Grid2xnCopTeam(GreedyCloserCop):
    """The 2xn grid's ceil((n+2)/9) placement with greedy in-game play.

    The placement is the one behind the paper's upper bound (see
    `bounds.thm_2xn_columns`): a cop in column 3 (column n-1 when n <= 3),
    then one every ninth column, finishing with a cop in column n-4.  The
    exhaustive test `test_grid2xn_wins_small` checks that this team wins
    every 2xn grid with n <= 40.
    """

    name = "grid2xn_cop"

    def __init__(self, g: Graph, n: int):
        super().__init__(g, placement_generators(_require_family(self, g, "grid", 2, n)))


class HypercubeMirrorCop(Policy):
    """Single cop on Q_d: start at all-ones, close in, then mirror.

    Once the positions differ in exactly one coordinate the robber has
    never had set, every edge the cop needs is guaranteed unburned and
    copying the robber's coordinate flips forces capture.
    """

    side = "cop"
    name = "hypercube_mirror"

    def __init__(self, g: Graph):
        d = (g.vertex_count - 1).bit_length()
        if (
            g.vertex_count != 1 << d
            or 2 * g.edge_count != d << d
            or any((u ^ v).bit_count() != 1 for (u, v) in g.edges)
        ):
            raise PolicyApplicabilityError("hypercube_mirror needs Q_d with binary labels")
        self.d = d

    def cop_placement(self, g):
        return ((1 << self.d) - 1,)

    def initial_pstate(self, g, cops, robber):
        # (mirror dimension or -1, robber's visited-dimension bits, robber's last seen position)
        return (-1, robber, robber)

    def choose(self, g, state, pstate):
        mode, visited, prev_r = pstate
        c, r = state.cops[0], state.robber
        visited |= r
        burned = state.burned
        if mode >= 0:
            diff = c ^ r
            kbit = 1 << mode
            if diff == kbit:
                dest = r  # robber stayed adjacent: step onto him
            else:
                jbit = diff ^ kbit
                if jbit & (jbit - 1):
                    raise PolicyStateError(
                        f"{self.name}: mirror invariant broken, cop {c} and robber {r}"
                        f" must differ in dimension {mode} and at most one other"
                    )
                dest = c ^ jbit
            return (dest,), (mode, visited, r)

        moved_away = r != prev_r and not (prev_r ^ c) & (r ^ prev_r)
        dest = None
        if moved_away:
            jbit = r ^ prev_r
            if (c ^ jbit) in cop_move_options(g, burned, c):
                dest = c ^ jbit
        if dest is None:
            dest = self._closer_move(g, burned, c, r, visited)
        ndiff = dest ^ r
        nmode = mode
        if ndiff and ndiff & (ndiff - 1) == 0 and not visited & ndiff:
            nmode = ndiff.bit_length() - 1
        return (dest,), (nmode, visited, r)

    def _closer_move(self, g, burned, c, r, visited):
        candidates = []
        diff = c ^ r
        open_moves = cop_move_options(g, burned, c)
        b = 1
        for _ in range(self.d):
            if diff & b and (c ^ b) in open_moves:
                keeps_unvisited = bool((c ^ b) & ~visited & ((1 << self.d) - 1))
                candidates.append((not keeps_unvisited, b.bit_length() - 1, c ^ b))
            b <<= 1
        if not candidates:
            return c
        return min(candidates)[2]


class GuardStartVertexCop(Policy):
    """Even-degree graphs: reach the robber's start, then shadow it.

    While guarding, the robber and the guarded vertex are the only two
    odd-degree vertices, so they always share a component and the robber
    can neither outwait nor outrun the cop.
    """

    side = "cop"
    name = "guard_start_vertex"

    def __init__(self, g: Graph, start: int = 0):
        if not all_degrees_even(g):
            raise PolicyApplicabilityError("guard_start_vertex needs all degrees even")
        self.start = int(start)

    def cop_placement(self, g):
        return (self.start,)

    def initial_pstate(self, g, cops, robber):
        return (False, robber, 0)

    def choose(self, g, state, pstate):
        reached, v, prev_rv = pstate
        c, r, burned = state.cops[0], state.robber, state.burned
        if not reached and c == v:
            reached = True
        from_r = all_distances_from(g, r, burned)
        cur_rv = from_r[v]
        if not reached:
            dest = _greedy_step(g, burned, c, all_distances_from(g, v, burned))
            if dest == c:
                dest = _greedy_step(g, burned, c, from_r)
        else:
            robber_closed_in = cur_rv != -1 and (prev_rv == -1 or cur_rv < prev_rv)
            dist = all_distances_from(g, v, burned) if robber_closed_in else from_r
            dest = _greedy_step(g, burned, c, dist)
        return (dest,), (reached, v, cur_rv)


# --- robber policies ----------------------------------------------------------


class FarthestRobber(Policy):
    """Baseline evader: keep the nearest cop as far away as possible."""

    side = "robber"
    name = "farthest"

    def _score(self, g, burned, v, cops):
        dist = all_distances_from(g, v, burned)
        best = None
        for c in cops:
            d = dist[c]
            if d >= 0 and (best is None or d < best):
                best = d
        return g.vertex_count + 1 if best is None else best

    def robber_start(self, g, cops):
        choices = [v for v in range(g.vertex_count) if v not in cops]
        if not choices:
            return 0, None
        return max(choices, key=lambda v: (self._score(g, 0, v, cops), -v)), None

    def choose(self, g, state, pstate):
        best = max(
            cop_move_options(g, state.burned, state.robber),
            key=lambda v: (
                self._score(g, apply_robber_move(g, state, v)[0].burned, v, state.cops),
                -v,
            ),
        )
        return best, pstate


class PlanRobber(Policy):
    """Follows a fixed walk, then stays put.  Building block for the
    scripted isolation sequences; the state is the rest of the walk."""

    side = "robber"
    name = "plan"

    def __init__(self, g: Graph, start: int, walk: list[int]):
        prev = start
        for v in walk:
            if not g.has_edge(prev, v):
                raise PolicyApplicabilityError(f"plan step {prev}->{v} is not an edge")
            prev = v
        self.start = start
        self.walk = tuple(walk)

    def robber_start(self, g, cops):
        return self.start, self.walk

    def choose(self, g, state, pstate):
        return _follow(g, state, pstate)


class LeafIsolateRobber(PlanRobber):
    """Start beside an unguarded leaf and step onto it: a plan whose start
    and one-step walk are chosen per placement."""

    side = "robber"
    name = "leaf_isolate"

    def __init__(self, g: Graph, leaf: int | None = None):
        if leaf is not None and not 0 <= leaf < g.vertex_count:
            raise PolicyApplicabilityError(f"leaf {leaf} is not a vertex")
        if leaf is not None and g.degree(leaf) != 1:
            raise PolicyApplicabilityError(f"vertex {leaf} is not a leaf")
        self.requested_leaf = leaf

    def robber_start(self, g, cops):
        if self.requested_leaf is not None:
            candidates = [self.requested_leaf]
        else:
            candidates = [v for v in range(g.vertex_count) if g.degree(v) == 1]
        for leaf in candidates:
            dist = all_distances_from(g, leaf)
            if all(dist[c] > 2 for c in cops):
                return g.neighbors(leaf)[0], (leaf,)
        raise PolicyApplicabilityError("no unguarded leaf for this cop placement")


class CornerIsolateRobber(PlanRobber):
    """Four-move loop around a grid corner, ending isolated on it."""

    name = "corner_isolate"

    def __init__(self, g: Graph, m: int, n: int, corner: tuple[int, int] = (0, 0)):
        _require_family(self, g, "grid", m, n)
        ci, cj = corner
        if ci not in (0, n - 1) or cj not in (0, m - 1):
            raise PolicyApplicabilityError(f"{corner} is not a corner of the {m}x{n} grid")
        dx = 1 if ci == 0 else -1
        dy = 1 if cj == 0 else -1
        walk = [
            grid_vertex(n, ci + dx, cj),
            grid_vertex(n, ci + dx, cj + dy),
            grid_vertex(n, ci, cj + dy),
            grid_vertex(n, ci, cj),
        ]
        super().__init__(g, grid_vertex(n, ci, cj), walk)


class BorderIsolateRobber(PlanRobber):
    """Five-move border run isolating the robber one column shy of (i, row)."""

    name = "border_isolate"

    def __init__(self, g: Graph, m: int, n: int, i: int, row: int = 0, direction: int = 1):
        _require_family(self, g, "grid", m, n)
        dy = 1 if row == 0 else -1
        d = direction
        if row not in (0, m - 1) or not (0 <= i - 2 * d < n and 0 <= i < n):
            raise PolicyApplicabilityError("border run leaves the grid")
        start = grid_vertex(n, i - 2 * d, row)
        walk = [
            grid_vertex(n, i - d, row),
            grid_vertex(n, i - d, row + dy),
            grid_vertex(n, i, row + dy),
            grid_vertex(n, i, row),
            grid_vertex(n, i - d, row),
        ]
        super().__init__(g, start, walk)


class GapIsolateRobber(BorderIsolateRobber):
    """2xn mid-grid run: cop in column j of `row`, robber isolates on (j+3, row).

    The loop dips into the opposite row, away from the cop.
    """

    name = "gap_isolate"

    def __init__(self, g: Graph, n: int, j: int, row: int = 0, direction: int = 1):
        super().__init__(g, 2, n, i=j + 4 * direction, row=row, direction=direction)


class Degree4IsolateRobber(Policy):
    """Eight-move double loop around an interior degree-4 vertex.

    With no cop within distance 9 the loop is fixed; with exactly one cop
    within 9 (but none within 5) the second half is chosen live, circling
    through whichever neighbor the nearby cop cannot reach in 3 steps.

    On a torus that cop must also be more than 7 away the other way
    round; from (+1, +5) on the 11x11 torus, say, it catches the loop.
    exhaust_vs_policy checked every single cop at distance 6-9 from the
    middle vertex of the 11x11 to 16x16 square tori, the 11x13, 13x11 and
    12x15 tori, and the 11x11, 12x12, 13x13 and 14x13 grids: the policy
    wins every placement it accepts.
    """

    side = "robber"
    name = "degree4_isolate"

    def __init__(self, g: Graph, m: int, n: int, center: tuple[int, int], wrap: bool):
        _require_family(self, g, "torus" if wrap else "grid", m, n)
        self.m, self.n, self.wrap = m, n, wrap
        self.ci, self.cj = center
        v = grid_vertex(n, self.ci, self.cj)
        if not (0 <= self.ci < n and 0 <= self.cj < m) or g.degree(v) != 4:
            raise PolicyApplicabilityError("center must have degree 4")
        self.v = v

    def _at(self, sx: int, sy: int, a: int, b: int) -> int:
        # Wraps round a torus; on a grid the center is interior, so the
        # loop one step around it never needs to.
        return grid_vertex(self.n, (self.ci + sx * a) % self.n, (self.cj + sy * b) % self.m)

    def robber_start(self, g, cops):
        dist = all_distances_from(g, self.v)
        near5 = [c for c in cops if dist[c] <= 5]
        near9 = [c for c in cops if dist[c] <= 9]
        if near5 or len(near9) > 1:
            raise PolicyApplicabilityError(
                "needs no cop within distance 5 and at most one within 9"
            )
        if not near9:
            at = partial(self._at, 1, 1)
            # the fixed figure: right, up, left, down, then left, down, right, up
            return self.v, (at(1, 0), at(1, -1), at(0, -1), at(0, 0),
                            at(-1, 0), at(-1, 1), at(0, 1), at(0, 0))
        i, j = grid_coords(self.n, near9[0])
        dx, dy = i - self.ci, j - self.cj
        if self.wrap:
            dx, dy = _shorter_way(dx, self.n), _shorter_way(dy, self.m)
            if min(self.n - abs(dx) + abs(dy), abs(dx) + self.m - abs(dy)) <= 7:
                raise PolicyApplicabilityError("the nearby cop is within 7 the other way round")
        # Flip axes so the nearby cop sits weakly left of and above the center.
        at = partial(self._at, 1 if dx <= 0 else -1, 1 if dy <= 0 else -1)
        right_first = (at(1, 0), at(1, 1), at(0, 1), at(0, 0))
        down_first = (at(0, 1), at(1, 1), at(1, 0), at(0, 0))
        # up, left, down, right around the center, then one of two halves
        return self.v, (at(0, -1), at(-1, -1), at(-1, 0), at(0, 0), (right_first, down_first))

    def choose(self, g, state, pstate):
        if pstate and isinstance(pstate[0], tuple):
            right_first, down_first = pstate[0]

            def nearest(target):
                dist = all_distances_from(g, target, state.burned)
                return min((dist[c] for c in state.cops if dist[c] >= 0), default=1 << 30)

            # circle through the side no cop can cover within 3 steps
            down, right = right_first[2], down_first[2]
            pstate = down_first if nearest(down) <= 3 < nearest(right) else right_first
        return _follow(g, state, pstate)


def _shorter_way(d: int, size: int) -> int:
    """The offset d round a cycle of `size`, taken the shorter way."""
    if d > size // 2:
        return d - size
    if d < -(size // 2):
        return d + size
    return d


class EulerianStallRobber(Policy):
    """Stalling robber on the quadratic-capture-time family.

    Burns every partite-block edge along a fixed Eulerian circuit before
    capture becomes possible; bolts for a pendant the moment the cop
    leaves the central clique unguarded.
    """

    side = "robber"
    name = "eulerian_stall"

    def __init__(self, g: Graph, m: int, k: int):
        if k < 2:
            raise PolicyApplicabilityError("needs k >= 2 partite blocks")
        # The family's own rule, m(k-1) even, is what the Eulerian circuit needs.
        _require_family(self, g, "capture_family", m, k)
        self.m, self.k = m, k
        self.vs, self.us, self.blocks = capture_family_blocks(m, k)
        self.block_of = {}
        for i, block in enumerate(self.blocks):
            for s in block:
                self.block_of[s] = i
        # The stall circuit starts in block 0, or in block 1 when the cop is v_0.
        allowed = set().union(*map(set, self.blocks))
        self.circuits = tuple(
            tuple(_eulerian_circuit(g, self.blocks[j][0], allowed)) for j in (0, 1)
        )

    def robber_start(self, g, cops):
        # pstate (mode, circuit index, circuit position); modes: 0 stall,
        # 2 escape->u, 3 done/pendant
        if len(cops) != 1:
            raise PolicyApplicabilityError("eulerian_stall plays against one cop")
        cop = cops[0]
        if cop not in self.vs:
            for vj in self.vs:
                if vj != cop and not g.has_edge(vj, cop):
                    return vj, (3, 0, 0)
            raise AssertionError("some clique vertex always avoids an off-clique cop")
        index = 1 if cop == self.vs[0] else 0
        return self.circuits[index][0], (0, index, 0)

    def choose(self, g, state, pstate):
        mode, index, pos = pstate
        r, cop, burned = state.robber, state.cops[0], state.burned
        if mode == 3:
            if r in self.vs:  # pendant dash: v_j -> u_j
                uj = self.us[self.vs.index(r)]
                if uj in cop_move_options(g, burned, r):
                    return uj, pstate
            return r, pstate
        if mode == 2:
            if r in self.vs:
                uj = self.us[self.vs.index(r)]
                if uj in cop_move_options(g, burned, r) and cop != uj:
                    return uj, (3, index, pos)
            return r, (3, index, pos)
        # stall mode
        t = self.block_of[r]
        vt = self.vs[t]
        if cop in self.vs:
            if cop == vt:  # adjacent through the gateway: forced along the circuit
                nxt = self._advance(r, index, pos)
                if nxt is not None:
                    return nxt
            return r, pstate  # circuit exhausted, or the cop is elsewhere: wait
        # cop strayed off the clique
        d_vt = all_distances_from(g, cop, burned)[vt]
        if (d_vt < 0 or d_vt >= 2) and vt in cop_move_options(g, burned, r):
            return vt, (2, index, pos)
        if cop != r and r in cop_move_options(g, burned, cop):
            nxt = self._advance(r, index, pos)
            if nxt is not None and nxt[0] != cop:
                return nxt
        return r, pstate

    def _advance(self, r, index, pos):
        circuit = self.circuits[index]
        if pos + 1 < len(circuit) and circuit[pos] == r:
            return circuit[pos + 1], (0, index, pos + 1)
        return None


def _eulerian_circuit(g: Graph, start: int, allowed: set[int]) -> list[int]:
    """Hierholzer's circuit over the subgraph induced by `allowed`,
    smallest-neighbor-first, beginning and ending at `start`."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in allowed}
    for v in allowed:
        for (u, eid) in sorted(g.adjacency[v]):
            if u in allowed:
                adj[v].append((u, eid))
    used: set[int] = set()
    ptr = {v: 0 for v in allowed}
    stack = [start]
    out: list[int] = []
    while stack:
        v = stack[-1]
        found = False
        while ptr[v] < len(adj[v]):
            u, eid = adj[v][ptr[v]]
            ptr[v] += 1
            if eid not in used:
                used.add(eid)
                stack.append(u)
                found = True
                break
        if not found:
            out.append(stack.pop())
    out.reverse()
    return out


class StalematePolicyRobber(Policy):
    """The six-vertex stalemate analysis: dash for a pendant when the cop
    commits, otherwise sit tight forever."""

    side = "robber"
    name = "stalemate_policy"

    U, V, W, X, Y, Z = range(6)

    def __init__(self, g: Graph):
        _require_family(self, g, "stalemate")

    def robber_start(self, g, cops):
        if len(cops) != 1:
            raise PolicyApplicabilityError("stalemate_policy plays against one cop")
        c = cops[0]
        if c in (self.V, self.Y):
            return self.X, None
        if c in (self.X, self.Z):
            return self.V, None
        return (self.W if c == self.U else self.U), None

    def choose(self, g, state, pstate):
        r, c = state.robber, state.cops[0]
        dest = r
        if r == self.X and c != self.Z:
            dest = self.Z
        elif r == self.V and c != self.Y:
            dest = self.Y
        elif r == self.W:
            if c == self.V:
                dest = self.X
            elif c == self.X:
                dest = self.V
        elif r == self.U:
            if c == self.X:
                dest = self.V
            elif c == self.V:
                dest = self.X
        if dest not in cop_move_options(g, state.burned, r):
            dest = r
        return dest, pstate


# --- the distance-safety hypothesis -------------------------------------------


def robber_distance_safe(
    g: Graph,
    v: int,
    d: int,
    planned_moves: list[int],
    cop_placements: tuple[int, ...],
) -> bool:
    """Check the robber-safety hypothesis for a planned walk.

    planned_moves is the full walk w_0, w_1, ..., w_K (w_0 = start).  True
    iff i + dist(w_i, v) < d for every prefix position i < K (distances in
    the intact graph) and no cop starts within distance d of v.  Under
    that hypothesis no cop can capture the robber before his K-th move.
    """
    if not planned_moves:
        raise ValueError("planned_moves must contain at least the start vertex")
    for a, b in zip(planned_moves, planned_moves[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"planned_moves is not a walk: {a}->{b} missing")
    dist_v = all_distances_from(g, v)
    if any(0 <= dist_v[c] <= d for c in cop_placements):
        return False
    for i, w in enumerate(planned_moves[:-1]):
        if dist_v[w] < 0 or i + dist_v[w] >= d:
            return False
    return True


# --- catalog ------------------------------------------------------------------


# Policy name -> constructor called as (g, *int params).  A lambda's
# parameter names are the CLI parameter list.
_POLICIES = {
    "stationary": lambda g, *cops: StationaryCop(g, cops or (0,)),
    "greedy_closer": lambda g, *cops: GreedyCloserCop(g, cops or (0,)),
    "hypercube_mirror": HypercubeMirrorCop,
    "guard_start_vertex": GuardStartVertexCop,
    "grid2xn_cop": Grid2xnCopTeam,
    "torus_placement": TorusPlacementCop,
    "grid_placement": GridPlacementCop,
    "farthest": lambda g: FarthestRobber(),
    "leaf_isolate": LeafIsolateRobber,
    "corner_isolate": lambda g, m, n, ci, cj: CornerIsolateRobber(g, m, n, (ci, cj)),
    "border_isolate": BorderIsolateRobber,
    "gap_isolate": GapIsolateRobber,
    "degree4_isolate": lambda g, m, n, i, j, wrap: Degree4IsolateRobber(
        g, m, n, (i, j), bool(wrap)
    ),
    "eulerian_stall": EulerianStallRobber,
    "stalemate_policy": StalematePolicyRobber,
}


def make_policy(name: str, g: Graph, params: list = ()) -> Policy:
    """Build the named policy on g; `params` must convert with `int`."""
    make = _POLICIES.get(name)
    if make is None:
        raise PolicyApplicabilityError(f"unknown policy {name!r}")
    try:
        args = [int(p) for p in params]
        inspect.signature(make).bind(g, *args)
    except (TypeError, ValueError) as e:
        raise PolicyApplicabilityError(f"bad parameters {list(params)} for {name}: {e}") from None
    return make(g, *args)


def policy_names() -> list[str]:
    return sorted(_POLICIES)
