import ast
import inspect
import random
import textwrap

import pytest

from bridgeburn.arena import IllegalPolicyMoveError, exhaust_vs_policy, run_match
from bridgeburn.bounds import family_formula, thm_2xn_columns
from bridgeburn.engine import (
    COP_TURN,
    GameState,
    apply_cop_moves,
    apply_robber_move,
    cop_move_options,
    is_capture,
)
from bridgeburn.families import FamilySpec, generate, grid_coords, grid_vertex
from bridgeburn.graph import all_distances_from, build_graph
from bridgeburn.strategies import (
    CornerIsolateRobber,
    Degree4IsolateRobber,
    EulerianStallRobber,
    FarthestRobber,
    GapIsolateRobber,
    GreedyCloserCop,
    Grid2xnCopTeam,
    GuardStartVertexCop,
    HypercubeMirrorCop,
    LeafIsolateRobber,
    PlanRobber,
    Policy,
    PolicyApplicabilityError,
    PolicyStateError,
    StalematePolicyRobber,
    StationaryCop,
    make_policy,
    policy_names,
    robber_distance_safe,
)


def test_catalog_names_cover_paper_strategies():
    names = policy_names()
    for required in [
        "hypercube_mirror",
        "guard_start_vertex",
        "grid2xn_cop",
        "torus_placement",
        "grid_placement",
        "greedy_closer",
        "leaf_isolate",
        "corner_isolate",
        "border_isolate",
        "gap_isolate",
        "degree4_isolate",
        "eulerian_stall",
        "stalemate_policy",
    ]:
        assert required in names


def test_make_policy_unknown():
    g = generate(FamilySpec("path", (3,)))
    with pytest.raises(PolicyApplicabilityError):
        make_policy("nope", g)


# One valid (family, parameters) pair per catalog name.
CATALOG_CASES = {
    "stationary": (("path", 4), ["1", "2"]),
    "greedy_closer": (("cycle", 7), []),
    "hypercube_mirror": (("hypercube", 3), []),
    "guard_start_vertex": (("cycle", 6), ["2"]),
    "grid2xn_cop": (("grid", 2, 6), ["6"]),
    "torus_placement": (("torus", 4, 4), ["4", "4"]),
    "grid_placement": (("grid", 8, 8), ["8", "8"]),
    "farthest": (("path", 4), []),
    "leaf_isolate": (("path", 6), ["5"]),
    "corner_isolate": (("grid", 2, 8), ["2", "8", "7", "1"]),
    "border_isolate": (("grid", 3, 8), ["3", "8", "4", "2", "-1"]),
    "gap_isolate": (("grid", 2, 13), ["13", "3"]),
    "degree4_isolate": (("torus", 11, 11), ["11", "11", "5", "5", "1"]),
    "eulerian_stall": (("capture_family", 2, 2), ["2", "2"]),
    "stalemate_policy": (("stalemate",), []),
}


@pytest.mark.parametrize("name", policy_names())
def test_catalog_builds_every_policy(fam, name):
    family, params = CATALOG_CASES[name]
    assert make_policy(name, fam(*family), params).name == name


@pytest.mark.parametrize(
    "name,params",
    [
        ("grid2xn_cop", []),
        ("grid2xn_cop", ["6", "1"]),
        ("grid2xn_cop", ["six"]),
        ("grid2xn_cop", ["6.0"]),
        ("corner_isolate", ["2", "6"]),
        ("hypercube_mirror", ["3"]),
        ("farthest", ["1"]),
    ],
)
def test_make_policy_rejects_bad_parameter_lists(fam, name, params):
    family, _ = CATALOG_CASES[name]
    with pytest.raises(PolicyApplicabilityError):
        make_policy(name, fam(*family), params)


@pytest.mark.parametrize(
    "name,family,params",
    [
        ("grid2xn_cop", ("grid", 2, 5), ["6"]),
        ("grid_placement", ("torus", 8, 8), ["8", "8"]),
        ("torus_placement", ("grid", 3, 3), ["3", "3"]),
        ("torus_placement", ("grid", 3, 3), ["2", "2"]),  # not a valid torus spec
        ("corner_isolate", ("grid", 2, 5), ["2", "8", "7", "1"]),
        ("border_isolate", ("grid", 2, 5), ["2", "5", "3", "7"]),
        ("degree4_isolate", ("grid", 11, 11), ["11", "11", "5", "5", "1"]),
        ("eulerian_stall", ("capture_family", 2, 3), ["2", "2"]),
        ("stalemate_policy", ("cycle", 6), []),
        ("degree4_isolate", ("grid", 5, 5), ["5", "5", "7", "2", "0"]),  # column 7 of 5
        ("leaf_isolate", ("path", 6), ["6"]),
        ("leaf_isolate", ("path", 6), ["-1"]),
        ("leaf_isolate", ("path", 6), ["2"]),  # degree 2
    ],
)
def test_family_policies_reject_other_graphs(fam, name, family, params):
    with pytest.raises(PolicyApplicabilityError):
        make_policy(name, fam(*family), params)


def test_grid2xn_rejects_a_supergraph(fam):
    g = fam("grid", 2, 5)
    with pytest.raises(PolicyApplicabilityError):
        Grid2xnCopTeam(build_graph(10, [*g.edges, (0, 6)]), 5)


# --- applicability validation --------------------------------------------------


def test_guard_start_needs_even_degrees(fam):
    with pytest.raises(PolicyApplicabilityError):
        GuardStartVertexCop(fam("path", 4))


def test_eulerian_stall_needs_even_block_degree(fam):
    g = fam("capture_family", 2, 2)
    with pytest.raises(PolicyApplicabilityError):
        EulerianStallRobber(g, 3, 2)  # m(k-1) = 3 is odd


def test_degree4_needs_interior(fam):
    g = fam("grid", 5, 5)
    with pytest.raises(PolicyApplicabilityError):
        Degree4IsolateRobber(g, 5, 5, (0, 0), wrap=False)


def test_corner_rejects_non_corner(fam):
    with pytest.raises(PolicyApplicabilityError):
        CornerIsolateRobber(fam("grid", 2, 6), 2, 6, (3, 0))


def test_mirror_rejects_non_hypercube(fam):
    with pytest.raises(PolicyApplicabilityError):
        HypercubeMirrorCop(fam("cycle", 6))


def test_mirror_rejects_relabeled_hypercube(fam):
    # Q3 with shuffled labels has Q3's vertex and edge counts, but edge
    # 0-1 becomes 5-0, which flips two bits.
    perm = [5, 0, 7, 2, 6, 3, 1, 4]
    g = build_graph(8, [(perm[u], perm[v]) for (u, v) in fam("hypercube", 3).edges])
    with pytest.raises(PolicyApplicabilityError):
        HypercubeMirrorCop(g)


def test_mirror_rejects_inconsistent_pstate(fam):
    # Mirroring on dimension 2 needs cop and robber to differ in it and in
    # one more; cop 0 and robber 3 differ in dimensions 0 and 1 only.
    g = fam("hypercube", 3)
    with pytest.raises(PolicyStateError, match="mirror invariant"):
        HypercubeMirrorCop(g).choose(g, GameState(0, (0,), 3, COP_TURN), (2, 3, 3))


def test_mirror_accepts_q0():
    g = build_graph(1, [])
    assert exhaust_vs_policy(g, HypercubeMirrorCop(g)).wins_always


# --- matches -------------------------------------------------------------------


def test_mirror_beats_farthest_on_q3(fam):
    g = fam("hypercube", 3)
    tr = run_match(g, HypercubeMirrorCop(g), FarthestRobber())
    assert tr.outcome.kind == "cop_win"
    assert tr.replay().robber in tr.replay().cops


def test_leaf_isolate_escapes_stationary_cop(fam):
    g = fam("path", 6)
    tr = run_match(g, StationaryCop(g, (2,)), LeafIsolateRobber(g))
    assert tr.outcome.kind == "robber_escape"


def test_leaf_isolate_requested_leaf(fam):
    g = fam("path", 6)
    pol = LeafIsolateRobber(g, 5)
    assert pol.robber_start(g, (0,)) == (4, (5,))
    with pytest.raises(PolicyApplicabilityError, match="no unguarded leaf"):
        pol.robber_start(g, (3,))  # leaf 0 is unguarded, but 5 was asked for
    assert exhaust_vs_policy(g, pol, [(0,), (1,), (2,)]).wins_always


def test_eulerian_stall_survives_five_rounds(fam):
    g = fam("capture_family", 2, 2)
    tr = run_match(g, GreedyCloserCop(g, (0,)), EulerianStallRobber(g, 2, 2))
    assert tr.outcome.kind != "cop_win" or tr.outcome.round >= 5


def test_match_round_limit(fam):
    g = fam("path", 5)
    tr = run_match(g, StationaryCop(g, (2,)), PlanRobber(g, 0, []), max_rounds=3)
    assert tr.outcome.kind == "round_limit"


def test_illegal_policy_move_is_hard_error(fam):
    class BadCop(StationaryCop):
        def choose(self, g, state, pstate):
            return (state.robber,), pstate  # teleports

    g = fam("path", 5)
    with pytest.raises(IllegalPolicyMoveError) as exc:
        run_match(g, BadCop(g, (4,)), PlanRobber(g, 0, []))
    assert "stationary" in str(exc.value)


# --- exhaustive validation of the named strategies -----------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_mirror_wins_always_small(fam, d):
    g = fam("hypercube", d)
    assert exhaust_vs_policy(g, HypercubeMirrorCop(g)).wins_always


def test_stalemate_policy_wins_always(fam):
    g = fam("stalemate")
    assert exhaust_vs_policy(g, StalematePolicyRobber(g), k_cops=1).wins_always


def test_guard_start_vertex_wins_on_c6(fam):
    g = fam("cycle", 6)
    assert exhaust_vs_policy(g, GuardStartVertexCop(g, 0)).wins_always


@pytest.mark.parametrize("n", range(1, 41))
def test_grid2xn_wins_small(n):
    # The theorem's ceil((n+2)/9) cops, chasing greedily, beat every robber:
    # the upper bound of c_b(P2 x Pn) at each size.
    spec = FamilySpec("grid", (2, n))
    g = generate(spec)
    team = Grid2xnCopTeam(g, n)
    assert len(team.cop_placement(g)) == family_formula(spec).exact
    assert exhaust_vs_policy(g, team).outcome == "wins"


@pytest.mark.parametrize(
    "family,m,n,outcome",
    [
        ("torus", 3, 3, "wins"),
        ("torus", 4, 4, "wins"),
        ("torus", 5, 5, "wins"),
        ("torus", 6, 6, "beaten"),
        ("grid", 8, 8, "wins"),
        ("grid", 8, 9, "beaten"),
    ],
)
def test_placement_chasers_outcomes(fam, family, m, n, outcome):
    """The bound placements with greedy chasing win on small boards and
    lose to an isolated escape on torus 6x6 and grid 8x9."""
    g = fam(family, m, n)
    v = exhaust_vs_policy(g, make_policy(f"{family}_placement", g, [m, n]))
    assert v.outcome == outcome
    if outcome == "beaten":
        assert v.counterexample.outcome.reason == "isolated"
        v.counterexample.replay()


def test_thm_2xn_columns_shape():
    assert thm_2xn_columns(2) == [1]
    assert thm_2xn_columns(7) == [3]
    assert thm_2xn_columns(8) == [3, 4]
    assert thm_2xn_columns(22) == [3, 12, 18]
    for n in range(2, 40):
        assert len(thm_2xn_columns(n)) == -(-(n + 2) // 9)


def test_gap_isolate_lemma_scenario():
    # the anchoring cop on (j, 0) itself cannot stop the run
    g = generate(FamilySpec("grid", (2, 13)))
    pol = GapIsolateRobber(g, 13, 3)
    assert exhaust_vs_policy(g, pol, free_side_placements=[(3,)]).wins_always
    # a second cop 10+ columns right of column j is too far, as is anyone
    # parked at the far left
    g14 = generate(FamilySpec("grid", (2, 14)))
    pol14 = GapIsolateRobber(g14, 14, 3)
    far = [(row * 14 + col,) for col in (0, 13) for row in (0, 1)]
    assert exhaust_vs_policy(g14, pol14, free_side_placements=far).wins_always


def test_degree4_runs_figure_loop(fam):
    g = fam("torus", 11, 11)
    pol = Degree4IsolateRobber(g, 11, 11, (5, 5), wrap=True)
    cops = (0,)  # distance 10 from (5,5): no cop within 9
    start, ps = pol.robber_start(g, cops)
    assert start == 5 * 11 + 5
    at = lambda i, j: (j % 11) * 11 + (i % 11)  # noqa: E731
    expected = [
        at(6, 5), at(6, 4), at(5, 4), at(5, 5),  # right, up, left, down
        at(4, 5), at(4, 6), at(5, 6), at(5, 5),  # left, down, right, up
    ]
    state = GameState(0, cops, start, COP_TURN)
    walk = []
    for _ in range(8):
        state = GameState(state.burned, state.cops, state.robber, 1)  # robber to move
        dest, ps = pol.choose(g, state, ps)
        eid = g.edge_id(state.robber, dest)
        state = GameState(state.burned | (1 << eid), state.cops, dest, COP_TURN)
        walk.append(dest)
    assert walk == expected


def test_degree4_applicability_distance(fam):
    g = fam("torus", 11, 11)
    pol = Degree4IsolateRobber(g, 11, 11, (5, 5), wrap=True)
    with pytest.raises(PolicyApplicabilityError):
        pol.robber_start(g, (5 * 11 + 7,))  # cop within distance 5


def test_degree4_reused_across_placements_plays_the_same(fam):
    g = fam("torus", 11, 11)
    pol = Degree4IsolateRobber(g, 11, 11, (5, 5), wrap=True)

    def walk(cop):
        tr = run_match(g, StationaryCop(g, (cop,)), pol)
        return [t[0].to_vertex for t in tr.turns[1::2]]

    first = walk(0)
    assert first == [61, 50, 49, 60, 59, 70, 71, 60]
    walk(107)  # one cop at offset (+3, +4): the oriented, adaptive loop
    assert walk(0) == first


@pytest.mark.parametrize("family,rejected", [
    # offsets (+-1, +-5) and (+-5, +-1): 7 away the other way round
    ("torus", {4, 6, 44, 54, 66, 76, 114, 116}),
    ("grid", set()),
])
def test_degree4_one_nearby_cop(fam, family, rejected):
    """Every single cop at distance 6-9: the policy rejects it or wins."""
    g = fam(family, 11, 11)
    pol = Degree4IsolateRobber(g, 11, 11, (5, 5), wrap=family == "torus")
    dist = all_distances_from(g, 5 * 11 + 5)
    refused = set()
    for cop in range(g.vertex_count):
        if not 6 <= dist[cop] <= 9:
            continue
        try:
            verdict = exhaust_vs_policy(g, pol, [(cop,)])
        except PolicyApplicabilityError:
            refused.add(cop)
            continue
        assert verdict.wins_always, cop
    assert refused == rejected


def _degree4_verdicts(g, center):
    """Per offset from the center of every single cop at distance 6-9 on
    the 12x12 torus: rejected, or outcome, nodes and counterexample length."""
    ci, cj = center
    pol = Degree4IsolateRobber(g, 12, 12, center, wrap=True)
    dist = all_distances_from(g, grid_vertex(12, ci, cj))
    out = {}
    for cop in range(g.vertex_count):
        if not 6 <= dist[cop] <= 9:
            continue
        i, j = grid_coords(12, cop)
        offset = ((i - ci) % 12, (j - cj) % 12)
        try:
            v = exhaust_vs_policy(g, pol, [(cop,)])
        except PolicyApplicabilityError:
            out[offset] = "rejected"
            continue
        tr = v.counterexample
        out[offset] = (v.outcome, v.nodes_searched, tr and len(tr.turns))
    return out


def test_degree4_offsets_wrap_round_the_torus(fam):
    """Near a corner the nearby cop's offset wraps round, either way; the
    verdicts are those of the same offsets from the middle."""
    g = fam("torus", 12, 12)
    middle = _degree4_verdicts(g, (6, 6))
    assert len(middle) == 70
    assert sum(r == "rejected" for r in middle.values()) == 6
    assert all(r == "rejected" or r[0] == "wins" for r in middle.values())
    for center in [(1, 1), (10, 10)]:
        assert _degree4_verdicts(g, center) == middle


def _policy_classes(cls=Policy):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("bridgeburn."):
            yield sub
        yield from _policy_classes(sub)


def _assigns_to_self(fn: ast.FunctionDef) -> bool:
    self_name = fn.args.args[0].arg

    def on_self(t):
        while isinstance(t, (ast.Attribute, ast.Subscript)):
            if isinstance(t.value, ast.Name) and t.value.id == self_name:
                return True
            t = t.value
        if isinstance(t, (ast.Tuple, ast.List)):
            return any(on_self(e) for e in t.elts)
        return isinstance(t, ast.Starred) and on_self(t.value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(on_self(t) for t in node.targets):
            return True
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)) and on_self(node.target):
            return True
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
            return True
    return False


def test_policies_assign_to_self_only_in_init():
    """A placement's choices live in the policy state, so one instance
    can serve any number of plays."""
    offenders = []
    for cls in _policy_classes():
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        for fn in tree.body[0].body:
            if isinstance(fn, ast.FunctionDef) and fn.name != "__init__" and fn.args.args:
                if _assigns_to_self(fn):
                    offenders.append(f"{cls.__name__}.{fn.name}")
    assert len(list(_policy_classes())) >= 15
    assert offenders == []


def test_eulerian_stall_pendant_escape(fam):
    g = fam("capture_family", 2, 2)
    pol = EulerianStallRobber(g, 2, 2)
    start, _ = pol.robber_start(g, (6,))  # cop inside a partite block
    assert start in (0, 1)
    tr = run_match(g, StationaryCop(g, (6,)), EulerianStallRobber(g, 2, 2))
    assert tr.outcome.kind == "robber_escape"


# --- distance-safety hypothesis -------------------------------------------------


def test_distance_safe_degree4_loop(fam):
    g = fam("torus", 11, 11)
    at = lambda i, j: (j % 11) * 11 + (i % 11)  # noqa: E731
    v = at(5, 5)
    walk = [v, at(6, 5), at(6, 4), at(5, 4), v, at(4, 5), at(4, 6), at(5, 6), v]
    assert robber_distance_safe(g, v, 9, walk, (at(0, 0),))
    assert not robber_distance_safe(g, v, 9, walk, (at(5, 9),))  # cop within 9


def test_distance_safe_corner_loop(fam):
    g = fam("grid", 7, 7)
    at = lambda i, j: j * 7 + i  # noqa: E731
    v = at(0, 0)
    walk = [v, at(1, 0), at(1, 1), at(0, 1), v]
    far_cop = (at(6, 6),)
    assert robber_distance_safe(g, v, 5, walk, far_cop)
    assert not robber_distance_safe(g, v, 5, walk, (at(3, 2),))  # distance 5 exactly


def test_distance_safe_rejects_runaway(fam):
    g = fam("path", 8)
    assert not robber_distance_safe(g, 0, 2, [0, 1, 2], (7,))


def test_distance_safe_rejects_non_walk(fam):
    g = fam("path", 8)
    with pytest.raises(ValueError):
        robber_distance_safe(g, 0, 3, [0, 2], (7,))


# --- legality fuzz: every policy emits only legal moves -------------------------
# Moves go through engine.apply_cop_moves / apply_robber_move, which raise
# IllegalMoveError on an illegal one.


@pytest.mark.parametrize("seed", range(8))
def test_cop_policies_emit_legal_moves(fam, seed):
    rnd = random.Random(seed)
    cases = [
        (fam("hypercube", 3), lambda g: HypercubeMirrorCop(g)),
        (fam("torus", 3, 3), lambda g: GuardStartVertexCop(g, 0)),
        (fam("grid", 2, 6), lambda g: Grid2xnCopTeam(g, 6)),
        (fam("cycle", 7), lambda g: GreedyCloserCop(g, (0,))),
    ]
    for g, make in cases:
        pol = make(g)
        cops = tuple(sorted(pol.cop_placement(g)))
        starts = [v for v in range(g.vertex_count) if v not in cops]
        r = rnd.choice(starts)
        state = GameState(0, cops, r, COP_TURN)
        ps = pol.initial_pstate(g, cops, r)
        for _ in range(25):
            if is_capture(state):
                break
            dests, ps = pol.choose(g, state, ps)
            state, _ = apply_cop_moves(g, state, dests)
            if is_capture(state):
                break
            # random legal robber reply
            to = rnd.choice(cop_move_options(g, state.burned, state.robber))
            state, _ = apply_robber_move(g, state, to)


@pytest.mark.parametrize("seed", range(8))
def test_robber_policies_emit_legal_moves(fam, seed):
    rnd = random.Random(seed)
    cases = [
        (fam("stalemate"), lambda g: StalematePolicyRobber(g), (0,)),
        (fam("capture_family", 2, 2), lambda g: EulerianStallRobber(g, 2, 2), (0,)),
        (fam("path", 6), lambda g: LeafIsolateRobber(g), (2,)),
        (fam("grid", 2, 8), lambda g: CornerIsolateRobber(g, 2, 8, (0, 0)), (5,)),
        (fam("torus", 11, 11), lambda g: Degree4IsolateRobber(g, 11, 11, (5, 5), True), (0,)),
    ]
    for g, make, cops in cases:
        pol = make(g)
        r, ps = pol.robber_start(g, cops)
        assert 0 <= r < g.vertex_count and r not in cops
        state = GameState(0, cops, r, COP_TURN)
        for _ in range(25):
            # random legal cop move
            dests = tuple(rnd.choice(cop_move_options(g, state.burned, c)) for c in state.cops)
            state, _ = apply_cop_moves(g, state, dests)
            if is_capture(state):
                break
            to, ps = pol.choose(g, state, ps)
            state, _ = apply_robber_move(g, state, to)
            if is_capture(state):
                break
