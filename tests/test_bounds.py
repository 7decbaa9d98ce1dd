import pytest
from hypothesis import given, settings, strategies as st

from bridgeburn.bounds import (
    BoundsBudgetError,
    all_cliques,
    domination_numbers,
    family_formula,
    grid_theorem_upper,
    placement_generators,
    torus_theorem_upper,
)
from bridgeburn.families import FamilySpec, FamilySpecError, generate
from bridgeburn.graph import all_distances_from, build_graph


def test_stalemate_parameters(fam):
    rep = domination_numbers(fam("stalemate"))
    assert rep.gamma2 == 1
    assert rep.witnesses["gamma2"][0] in (0, 2)  # u or w
    assert rep.clique_cover_dom == 2
    assert rep.gamma == 2


def test_k23_single_dominating_clique(fam):
    assert domination_numbers(fam("complete_bipartite", 2, 3)).clique_cover_dom == 1


def test_k6_gamma(fam):
    assert domination_numbers(fam("complete", 6)).gamma == 1


def test_witnesses_dominate(fam):
    g = fam("grid", 2, 4)
    rep = domination_numbers(g)
    n = g.vertex_count
    for radius, key in [(1, "gamma"), (2, "gamma2")]:
        covered = set()
        for v in rep.witnesses[key]:
            covered.update(u for u, d in enumerate(all_distances_from(g, v)) if 0 <= d <= radius)
        assert covered == set(range(n))
    covered = set()
    for clique in rep.witnesses["clique_cover_dom"]:
        for v in clique:
            covered.update(u for u, d in enumerate(all_distances_from(g, v)) if d in (0, 1))
        # each witness part is really a clique
        assert all(g.has_edge(a, b) for a in clique for b in clique if a < b)
    assert covered == set(range(n))


def test_gamma2_le_gamma_examples(fam):
    for g in [fam("path", 7), fam("cycle", 8), fam("grid", 3, 3), fam("stalemate")]:
        rep = domination_numbers(g)
        assert rep.gamma2 <= rep.gamma
        assert rep.clique_cover_dom <= rep.gamma  # singletons are cliques


@given(st.integers(0, 1 << 15))
@settings(max_examples=30, deadline=None)
def test_gamma2_le_gamma_random_6(mask):
    import itertools

    pairs = list(itertools.combinations(range(6), 2))
    g = build_graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
    rep = domination_numbers(g)
    assert rep.gamma2 <= rep.gamma


def test_budget_error():
    g = build_graph(14, [(i, i + 1) for i in range(13)])
    with pytest.raises(BoundsBudgetError):
        domination_numbers(g)


def test_all_cliques_k3(fam):
    got = all_cliques(fam("complete", 3))
    assert (0,) in got and (0, 1) in got and (0, 1, 2) in got
    assert len(got) == 7


# --- closed-form formulas ------------------------------------------------------


@pytest.mark.parametrize(
    "family,params,exact",
    [
        ("path", (5,), 1),
        ("path", (6,), 2),
        ("cycle", (9,), 1),
        ("complete", (7,), 1),
        ("complete_bipartite", (3, 4), 1),
        ("grid", (2, 8), 2),
        ("grid", (1, 7), 2),
        ("hypercube", (9,), 1),
        ("stalemate", (), 2),
        ("capture_family", (2, 2), 1),
    ],
)
def test_formula_exact_values(family, params, exact):
    assert family_formula(FamilySpec(family, params)).exact == exact


def test_formula_2xn_matches_ceiling():
    for n in range(1, 30):
        val = family_formula(FamilySpec("grid", (2, n))).exact
        assert val == -(-(n + 2) // 9)


def test_torus_formula_16_14():
    res = family_formula(FamilySpec("torus", (16, 14)))
    assert (res.lower, res.upper, res.exact) == (2, 2, 2)


def test_grid_formula_without_exact_value():
    res = family_formula(FamilySpec("grid", (3, 4)))
    assert (res.lower, res.upper, res.exact) == (1, 4, None)


def test_torus_formula_open_gap():
    res = family_formula(FamilySpec("torus", (40, 40)))
    assert res.exact is None
    assert res.lower == -(-40 * 40 // 121)
    assert res.upper == 2 * -(-40 // 16) * -(-40 // 14)


def test_capture_family_time_bound():
    res = family_formula(FamilySpec("capture_family", (4, 3)))
    assert res.capture_time_lower == 4 * 4 * 3 * 2 // 2 + 1


def test_formula_unknown_family():
    with pytest.raises(FamilySpecError):
        family_formula(FamilySpec("spider", (2, 2)))


# --- constructive placements ---------------------------------------------------


def test_grid2n_placement_example():
    assert placement_generators(FamilySpec("grid", (2, 12))) == (3, 8)


def test_torus_placement_16_14():
    cops = placement_generators(FamilySpec("torus", (16, 14)))
    assert len(cops) == 2
    n = 14
    coords = sorted((v % n, v // n) for v in cops)
    assert coords == [(0, 8), (7, 0)]  # the parity-odd (7k, 8l) points


@pytest.mark.parametrize("mn", [(16, 14), (17, 15), (32, 28), (16, 15), (24, 14), (31, 27)])
def test_placement_counts_match_theorems(mn):
    m, n = mn
    assert len(placement_generators(FamilySpec("torus", (m, n)))) == torus_theorem_upper(m, n)
    assert len(placement_generators(FamilySpec("grid", (m, n)))) == grid_theorem_upper(m, n)


def test_grid2n_placement_counts_across_breakpoints():
    for n in list(range(2, 12)) + [17, 18, 19, 25, 26, 30]:
        cops = placement_generators(FamilySpec("grid", (2, n)))
        assert len(cops) == -(-(n + 2) // 9)
        g = generate(FamilySpec("grid", (2, n)))
        assert all(0 <= v < g.vertex_count for v in cops)


def test_grid_placement_below_applicability():
    with pytest.raises(FamilySpecError):
        placement_generators(FamilySpec("grid", (7, 7)))
