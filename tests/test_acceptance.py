"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; a pytest failure on any test is that criterion's FAIL line.
"""

import itertools

import pytest
from minimax_oracle import oracle_capture_time, oracle_rounds

from bridgeburn.arena import exhaust_vs_policy
from bridgeburn.bounds import (
    domination_numbers,
    family_formula,
    grid_theorem_upper,
    placement_generators,
    torus_theorem_upper,
)
from bridgeburn.engine import CLASSIC, COP_TURN, GameState
from bridgeburn.enumeration import connected_graph_classes, unlabeled_trees
from bridgeburn.families import FamilySpec, generate
from bridgeburn.graph import all_distances_from
from bridgeburn.grid2xn import Grid2xnCopTeam
from bridgeburn.solver import (
    bridge_burning_cop_number,
    capture_time_bb,
    cop_wins_with_k,
    solve_position,
)
from bridgeburn.strategies import (
    CornerIsolateRobber,
    Degree4IsolateRobber,
    HypercubeMirrorCop,
    robber_distance_safe,
)
from bridgeburn.trees import tree_cop_number

# Computed once by the exact solver, cross-checked by the independent
# minimax oracle (both report 6), then frozen as a regression constant.
CAPTURE_FAMILY_22_CAPT = 6


def fam(name, *p):
    return generate(FamilySpec(name, p))


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_elementary_families():
    for n in range(2, 7):
        assert bridge_burning_cop_number(fam("complete", n), 2).value == 1, f"K_{n}"
    for n in range(3, 9):
        assert bridge_burning_cop_number(fam("cycle", n), 2).value == 1, f"C_{n}"
    for n in range(2, 6):
        assert bridge_burning_cop_number(fam("path", n), 3).value == 1, f"P_{n}"
    for n in range(6, 9):
        assert bridge_burning_cop_number(fam("path", n), 3).value == 2, f"P_{n}"
    report(1, "c_b exact on K_n (2..6), C_n (3..8), P_n (2..8)")


def test_criterion_2_complete_bipartite():
    pairs = [(m, n) for m in range(1, 7) for n in range(m, 7) if m + n <= 7]
    for m, n in pairs:
        assert bridge_burning_cop_number(fam("complete_bipartite", m, n), 2).value == 1, (m, n)
    report(2, f"c_b(K_mn) = 1 for all {len(pairs)} shapes with m+n <= 7")


def test_criterion_3_stalemate_tightness():
    g = fam("stalemate")
    assert bridge_burning_cop_number(g, 3).value == 2
    rep = domination_numbers(g)
    assert rep.gamma2 == 1
    assert rep.clique_cover_dom == 2
    report(3, "stalemate graph: c_b = 2, gamma2 = 1, cliqueCoverDom = 2 (both bounds tight)")


def test_criterion_4_tree_oracle_equivalence():
    classes = [t for n in range(1, 9) for t in unlabeled_trees(n)]
    assert len(classes) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23
    for t in classes:
        want = tree_cop_number(t).N
        for root in range(1, t.vertex_count):
            assert tree_cop_number(t, root).N == want, (t.edges, root)
        if t.vertex_count >= 2:
            assert bridge_burning_cop_number(t, 4).value == want, t.edges
    report(4, f"tree algorithm == exact solver on all {len(classes)} tree classes "
              "(every tree on <= 8 vertices up to isomorphism), N root-invariant")


def test_criterion_5_bound_inequalities():
    total = 0
    for n in range(1, 7):
        for g in connected_graph_classes(n):
            rep = domination_numbers(g)
            cb = bridge_burning_cop_number(g, rep.gamma2 + 1).value
            assert cb is not None, g.edges  # Thm 2.4 guarantees a winner by then
            assert cb <= rep.clique_cover_dom, g.edges
            assert cb <= rep.gamma2 + 1, g.edges
            total += 1
    assert total == 1 + 1 + 2 + 6 + 21 + 112
    report(5, f"c_b <= cliqueCoverDom and c_b <= gamma2+1 on all {total} connected"
              " graphs with <= 6 vertices")


def test_criterion_6_2xn_grids():
    for n in range(1, 7):
        want = family_formula(FamilySpec("grid", (2, n))).exact
        got = bridge_burning_cop_number(fam("grid", 2, n), 3).value
        assert got == want, n
    # n = 8: one cop is insufficient
    g8 = fam("grid", 2, 8)
    assert cop_wins_with_k(g8, 1).winner == "robber"
    # ... and the scripted corner runs beat any single cop placement
    for col in range(8):
        for row in (0, 1):
            corner = (0, row) if col >= 4 else (7, row)
            pol = CornerIsolateRobber(g8, 2, 8, corner)
            verdict = exhaust_vs_policy(g8, pol, free_side_placements=[(row * 8 + col,)])
            assert verdict.wins_always, (col, row)
    # stretch: certify the two-cop win from the constructive placement {3, 4}
    worst = 0
    for r0 in range(16):
        if r0 in (3, 4):
            continue
        val = solve_position(g8, GameState(0, (3, 4), r0, COP_TURN), budget=2_000_000)
        assert val.winner == "cop", r0
        worst = max(worst, val.rounds)
    report(6, "2xn formula matches the solver (n <= 6); on 2x8 one cop loses, corner "
              f"policies beat every single cop, and cops (3,0),(4,0) win in <= {worst} rounds")


def test_criterion_7_hypercubes():
    assert bridge_burning_cop_number(fam("hypercube", 2), 2).value == 1
    assert bridge_burning_cop_number(fam("hypercube", 3), 2).value == 1
    for d in (2, 3, 4):
        g = fam("hypercube", d)
        assert exhaust_vs_policy(g, HypercubeMirrorCop(g)).wins_always, d
    report(7, "c_b(Q2) = c_b(Q3) = 1; mirror strategy beats all robbers on Q2, Q3, Q4")


def test_criterion_8_capture_time():
    g = fam("capture_family", 2, 2)
    res = cop_wins_with_k(g, 1)
    assert res.winner == "cop"
    capt = capture_time_bb(g).capture_time_rounds
    assert capt >= 2 * 2 * 2 * 1 // 2 + 1  # m^2 k(k-1)/2 + 1 = 5
    assert capt == CAPTURE_FAMILY_22_CAPT
    assert oracle_capture_time(g) == CAPTURE_FAMILY_22_CAPT
    for inst in [fam("cycle", 7), fam("complete", 5), fam("grid", 2, 5), g]:
        r = cop_wins_with_k(inst, 1)
        assert r.winner == "cop"
        assert r.capture_time_rounds <= inst.edge_count * inst.vertex_count
    assert capture_time_bb(fam("path", 5)).capture_time_rounds == 2
    report(8, f"capt_b(capture family (2,2)) = {capt} >= 5, matches the independent "
              "oracle; all solved capture times within |E|*n")


def test_criterion_9_torus_grid_substitutes():
    for m, n in [(16, 14), (17, 15), (32, 28)]:
        assert len(placement_generators(FamilySpec("torus", (m, n)))) == torus_theorem_upper(m, n)
        assert len(placement_generators(FamilySpec("grid", (m, n)))) == grid_theorem_upper(m, n)

    # distance-safety hypothesis implies no early capture (exhaustive replay)
    from test_distance_lemma import min_robber_moves_before_capture

    checked = 0
    for spec, n_cols, centers, ds in [
        (FamilySpec("grid", (7, 7)), 7, [0, 24], (4, 5)),
        (FamilySpec("torus", (5, 5)), 5, [0, 12], (3, 4)),
    ]:
        g = generate(spec)
        for v in centers:
            for u in g.neighbors(v):
                for w in g.neighbors(u):
                    if w == v:
                        continue
                    walk = [v, u, w, u] if not g.has_edge(w, v) else [v, u, w, v]
                    for d in ds:
                        for cop in range(g.vertex_count):
                            if not robber_distance_safe(g, v, d, walk, (cop,)):
                                continue
                            first = min_robber_moves_before_capture(g, walk, cop)
                            assert first is None or first >= len(walk) - 1
                            checked += 1
    assert checked > 0

    g11 = fam("torus", 11, 11)
    center = 5 * 11 + 5
    dist = all_distances_from(g11, center)
    far = [(v,) for v in range(121) if dist[v] >= 10]
    assert far
    pol = Degree4IsolateRobber(g11, 11, 11, (5, 5), wrap=True)
    assert exhaust_vs_policy(g11, pol, free_side_placements=far).wins_always
    report(9, f"placement counts match both theorems on three (m,n) shapes; "
              f"distance lemma verified on {checked} accepted plans; interior loop "
              f"beats all {len(far)} distance-10 cops on the 11x11 torus")


def test_criterion_10_classic_sanity():
    classes = [t for n in range(2, 9) for t in unlabeled_trees(n)]
    for t in classes:
        assert cop_wins_with_k(t, 1, CLASSIC).winner == "cop", t.edges
    for n in range(4, 9):
        g = fam("cycle", n)
        assert cop_wins_with_k(g, 1, CLASSIC).winner == "robber", n
        assert cop_wins_with_k(g, 2, CLASSIC).winner == "cop", n
    report(10, f"classic variant: c = 1 on all {len(classes)} tree classes <= 8 "
               "vertices, c = 2 on C_4..C_8")


def test_criterion_11_oracle_equivalence():
    pairs = 0
    for n in range(1, 6):
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
                    pairs += 1
    report(11, f"solver == memoization-free minimax oracle on {pairs} single-cop "
               "positions across every connected graph with <= 5 vertices")
