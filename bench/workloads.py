"""The benchmark's workloads: fixed instances, seeded inputs, expected answers.

Each workload is a list of operations run in order as one pass.  Every
expected answer comes from a source that does not depend on the solver's
speed: the closed-form family values in `bounds.family_formula`, the tree
algorithm in `trees.tree_cop_number`, or capture rounds pinned to the
values the solver gave when this benchmark was defined.

Building a workload imports `bridgeburn`, so that import is part of the
measured set-up time.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("solve-copwin", "solve-refute", "exhaust-policy")

# (call, family, params, k, capture rounds pinned at the first baseline).
# The cop side wins every instance, so every robber start of each winning
# placement is solved to the end.
SOLVE_COPWIN = (
    ("cop_wins_with_k", "grid", (3, 4), 1, 5),
    ("cop_wins_with_k", "hypercube", (3,), 1, 7),
    ("cop_wins_with_k", "complete", (6,), 2, 1),
    ("cop_wins_with_k", "complete_bipartite", (3, 4), 1, 7),
    ("capture_time_bb", "grid", (2, 7), 1, 8),
    ("capture_time_bb", "cycle", (12,), 1, 15),
    ("capture_time_bb", "capture_family", (1, 3), 1, 5),
)

# The robber wins every instance, so each placement stops at its first
# refuting start, and that solve has to expand its whole game graph.
SOLVE_REFUTE = (
    ("cop_wins_with_k", "grid", (2, 8), 1, None),
    ("cop_wins_with_k", "grid", (2, 9), 1, None),
    ("cop_wins_with_k", "spider", (4, 4, 4), 2, None),
)

# grid2xn_cop loses 2x15 and beyond to a repeatable position, although
# the paper claims it wins; the probe keeps that defect in view.
GRID2XN_TIMED = range(8, 15)
GRID2XN_PROBE = range(15, 21)


@dataclass
class Op:
    """One benchmark operation: `check` returns None or what was wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    policy: object = None  # the pinned policy of an exhaust operation


def build(workload: str, seed: int):
    """Import bridgeburn; return (modules, timed operations, untimed probe)."""
    bb = Modules()
    if workload == "solve-copwin":
        return bb, [_solve_op(bb, row, seed) for row in SOLVE_COPWIN], []
    if workload == "solve-refute":
        return bb, [_solve_op(bb, row, seed) for row in SOLVE_REFUTE], []
    if workload == "exhaust-policy":
        return bb, _exhaust_ops(bb, seed), [_grid2xn_op(bb, n, None) for n in GRID2XN_PROBE]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


class Modules:
    """The library modules.  Operations look functions up on the module at
    call time, so the tracer's wrappers on module attributes take effect."""

    NAMES = ("arena", "bounds", "engine", "families", "graph", "grid2xn", "solver",
             "strategies", "trees")

    def __init__(self):
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"bridgeburn.{name}"))

    def modules(self) -> list:
        return [getattr(self, name) for name in self.NAMES]


def _relabel(bb, g, rng: random.Random):
    """The same graph with shuffled vertex labels and edge order."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return bb.graph.build_graph(g.vertex_count, edges)


def _solve_op(bb, row, seed: int) -> Op:
    call, family, params, k, rounds = row
    spec = bb.families.FamilySpec(family, params)
    name = f"{call} {spec} k={k}"
    # Winners and capture rounds do not change under relabeling; the order
    # of robber starts and placements, and so the early exits, do.
    g = _relabel(bb, bb.families.generate(spec), random.Random(f"{seed}:{name}"))
    formula = None if family == "spider" else bb.bounds.family_formula(spec)
    cop_number = bb.trees.tree_cop_number(g).N if formula is None else formula.exact
    # grid(3,4) has only the bounds 1 <= c_b <= 4; its pinned rounds say
    # one cop wins.
    winner = "cop" if cop_number is None or k >= cop_number else "robber"
    lower = formula.capture_time_lower if formula is not None else None

    def check(res) -> str | None:
        if res.winner != winner:
            return f"winner {res.winner}, expected {winner}"
        if res.capture_time_rounds != rounds:
            return f"{res.capture_time_rounds} capture rounds, expected {rounds}"
        if lower is not None and res.capture_time_rounds < lower:
            return f"{res.capture_time_rounds} capture rounds, below the lower bound {lower}"
        return None

    # threads=1 keeps BRIDGEBURN_THREADS in the environment from changing a run.
    if call == "capture_time_bb":
        return Op(name, lambda: bb.solver.capture_time_bb(g, threads=1), check)
    return Op(name, lambda: bb.solver.cop_wins_with_k(g, k, threads=1), check)


def _check_verdict(v) -> str | None:
    """Every policy here is expected to win.  A loss must come with a
    counterexample that replays; one that does not raises."""
    if v.outcome == "wins":
        return None
    v.counterexample.replay()
    reason = v.counterexample.outcome.reason
    return f"beaten in {v.nodes_searched} nodes ({reason}); counterexample replays"


def _exhaust_op(bb, name, g, policy, placements) -> Op:
    return Op(
        name,
        lambda: bb.arena.exhaust_vs_policy(g, policy, free_side_placements=placements),
        _check_verdict,
        policy,
    )


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _grid2xn_op(bb, n: int, rng: random.Random | None) -> Op:
    g = bb.families.generate(bb.families.FamilySpec("grid", (2, n)))
    policy = bb.grid2xn.Grid2xnCopTeam(g, n)
    starts = [v for v in range(g.vertex_count) if v not in policy.cop_placement(g)]
    if rng is not None:
        starts = _shuffled(starts, rng)
    return _exhaust_op(bb, f"grid2xn_cop grid(2,{n})", g, policy, starts)


def _exhaust_ops(bb, seed: int) -> list[Op]:
    """Canonical family numbering, which the policies need; the seed only
    shuffles the order in which the free side's starts are searched."""
    rng = random.Random(f"{seed}:exhaust-policy")
    fam = lambda family, *p: bb.families.generate(bb.families.FamilySpec(family, p))  # noqa: E731
    ops = []

    q4 = fam("hypercube", 4)
    mirror = bb.strategies.HypercubeMirrorCop(q4)
    starts = [v for v in range(q4.vertex_count) if v not in mirror.cop_placement(q4)]
    ops.append(_exhaust_op(bb, "hypercube_mirror hypercube(4)", q4, mirror, _shuffled(starts, rng)))

    t11 = fam("torus", 11, 11)
    center = bb.families.grid_vertex(11, 5, 5)
    dist = bb.graph.all_distances_from(t11, center)
    far = [(v,) for v in range(t11.vertex_count) if dist[v] >= 10]
    loop = bb.strategies.Degree4IsolateRobber(t11, 11, 11, (5, 5), wrap=True)
    ops.append(_exhaust_op(bb, "degree4_isolate torus(11,11)", t11, loop, _shuffled(far, rng)))

    c12 = fam("cycle", 12)
    guard = bb.strategies.GuardStartVertexCop(c12, 0)
    starts = [v for v in range(c12.vertex_count) if v not in guard.cop_placement(c12)]
    ops.append(_exhaust_op(bb, "guard_start_vertex cycle(12)", c12, guard, _shuffled(starts, rng)))

    ops.extend(_grid2xn_op(bb, n, rng) for n in GRID2XN_TIMED)

    # Every single cop on 2x8 loses to a corner run (as in the 2xn acceptance test).
    g8 = fam("grid", 2, 8)
    for col in range(8):
        for row in (0, 1):
            corner = (0, row) if col >= 4 else (7, row)
            run = bb.strategies.CornerIsolateRobber(g8, 2, 8, corner)
            cop = bb.families.grid_vertex(8, col, row)
            ops.append(_exhaust_op(bb, f"corner_isolate grid(2,8) cop={cop}", g8, run, [(cop,)]))
    return ops
