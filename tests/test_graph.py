import itertools
import math
import random
from collections import Counter, deque

import pytest

from bridgeburn.enumeration import connected_graph_classes
from bridgeburn.graph import (
    UNREACHABLE,
    DuplicateEdgeError,
    SelfLoopError,
    VertexRangeError,
    _refine,
    _search,
    all_degrees_even,
    all_distances_from,
    build_graph,
    component_after_burn,
    component_bitmask,
    distance_memo,
    from_edge_list_text,
    from_json_dict,
    to_edge_list_text,
    to_json_dict,
    vertex_orbits,
)
from bridgeburn.families import FamilySpec, generate


def test_build_path3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.neighbors(1) == [0, 2]


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_self_loop_and_range():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])
    with pytest.raises(VertexRangeError):
        build_graph(3, [(0, 3)])


def test_c4_degrees():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert all(g.degree(v) == 2 for v in range(4))


def test_bfs_examples(fam):
    assert all_distances_from(fam("path", 5), 0)[4] == 4
    torus = fam("torus", 3, 3)
    assert all_distances_from(torus, 0)[2 * 3 + 2] == 2  # (0,0) to (2,2) wraps both ways
    two_comp = build_graph(4, [(0, 1), (2, 3)])
    assert all_distances_from(two_comp, 0)[3] == UNREACHABLE


def test_bfs_respects_burned_edges(fam):
    g = fam("path", 3)
    assert all_distances_from(g, 0, burned=1 << g.edge_id(0, 1))[2] == UNREACHABLE


def _queue_bfs(g, u, burned):
    """Distances by a first-in first-out queue, the reference for the
    level-by-level search."""
    dist = [UNREACHABLE] * g.vertex_count
    dist[u] = 0
    q = deque([u])
    while q:
        x = q.popleft()
        for (y, eid) in g.adjacency[x]:
            if not burned >> eid & 1 and dist[y] == UNREACHABLE:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


@pytest.mark.parametrize(
    "family, params", [("grid", (5, 7)), ("torus", (4, 6)), ("hypercube", (4,))]
)
def test_bfs_matches_a_queue_bfs_on_random_burned_masks(family, params):
    g = generate(FamilySpec(family, params))
    rng = random.Random(f"bfs:{family}{params}")
    for p in (0.0, 0.1, 0.3, 0.6):
        for _ in range(10):
            burned = sum(1 << e for e in range(g.edge_count) if rng.random() < p)
            u = rng.randrange(g.vertex_count)
            assert all_distances_from(g, u, burned) == _queue_bfs(g, u, burned)


def _random_tree(n: int, rng: random.Random):
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize(
    "name, make",
    [
        ("grid", lambda rng: generate(FamilySpec("grid", (4, 5)))),
        ("torus", lambda rng: generate(FamilySpec("torus", (4, 4)))),
        ("hypercube", lambda rng: generate(FamilySpec("hypercube", (4,)))),
        ("cycle", lambda rng: generate(FamilySpec("cycle", (9,)))),
        ("spider", lambda rng: generate(FamilySpec("spider", (3, 1, 4)))),
        ("random tree", lambda rng: _random_tree(14, rng)),
    ],
)
def test_component_after_burn_and_distance_memo_along_random_trails(name, make):
    """Burn random robber trails: each component updated from the one before
    the crossing must be the one searched from scratch, and the distance
    memo must give all_distances_from's distances, read-only and once."""
    rng = random.Random(f"trail:{name}")
    branches = set()
    for _ in range(12):
        g = make(rng)
        dist = distance_memo(g)
        u, burned = rng.randrange(g.vertex_count), 0
        comp_u = component_bitmask(g, u, burned)
        while True:
            open_edges = [(v, eid) for v, eid in g.adjacency[u] if not burned >> eid & 1]
            if not open_edges:
                break
            v, eid = rng.choice(open_edges)
            burned |= 1 << eid
            comp_v = component_after_burn(g, burned, u, v, comp_u)
            assert comp_v == component_bitmask(g, v, burned)
            for x in (u, v):
                d = dist(x, burned)
                assert list(d) == all_distances_from(g, x, burned)
                assert dist(x, burned).obj is d.obj  # computed once
            with pytest.raises(TypeError):
                d[0] = 0
            # Which search ran out first: the smaller side, u's on a tie.
            if comp_v == comp_u:
                branches.add("meet")
            elif 2 * comp_v.bit_count() < comp_u.bit_count():
                branches.add("v's side ran out")
            else:
                branches.add("u's side ran out")
            u, comp_u = v, comp_v
    if name in ("spider", "random tree"):  # every edge is a bridge
        assert branches == {"v's side ran out", "u's side ran out"}
    else:
        assert "meet" in branches


def test_distance_memo_holds_every_distance_on_large_graphs():
    """The narrowest typecode that still holds n - 1 and UNREACHABLE."""
    for n in (128, 129, 1 << 15, (1 << 15) + 1):
        path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        dist = distance_memo(path)
        assert dist(0, 0)[n - 1] == n - 1
        assert dist(0, 1 << n - 2)[n - 1] == UNREACHABLE  # the last edge burned


def test_all_degrees_even(fam):
    assert all_degrees_even(fam("torus", 3, 3))
    assert not all_degrees_even(fam("path", 4))
    assert all_degrees_even(fam("cycle", 7))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", (6,)),
        FamilySpec("grid", (3, 4)),
        FamilySpec("stalemate", ()),
        FamilySpec("capture_family", (2, 2)),
    ],
)
def test_serialization_round_trips(spec):
    g = generate(spec)
    assert from_edge_list_text(to_edge_list_text(g)) == g
    assert from_json_dict(to_json_dict(g)) == g
    # bit-identical edge order both ways
    assert from_edge_list_text(to_edge_list_text(g)).edges == g.edges


def test_edge_list_output_normalized(fam):
    g = fam("cycle", 4)  # closing edge entered as (3, 0)
    lines = to_edge_list_text(g).splitlines()
    assert lines[0] == "4 4"
    assert lines[-1] == "0 3"


def _maps_edges_onto_edges(g, sigma):
    edges = set(g.edges)
    return sorted(sigma) == list(range(g.vertex_count)) and all(
        (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) in edges for u, v in g.edges
    )


def _check_orbits(g):
    """Each sigma_r is an automorphism taking r to rho, and rho is the least
    vertex of its orbit: the orbits as the finder reports them."""
    orbits = vertex_orbits(g)
    assert len(orbits) == g.vertex_count
    for r, (rho, sigma) in enumerate(orbits):
        assert sigma[r] == rho <= r
        assert _maps_edges_onto_edges(g, sigma), r
        assert orbits[rho][0] == rho
    return [rho for rho, _sigma in orbits]


def _relabeled(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.vertex_count, edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_vertex_orbits_match_brute_force(n):
    for g in connected_graph_classes(n):
        auts = [p for p in itertools.permutations(range(n)) if _maps_edges_onto_edges(g, p)]
        assert _check_orbits(g) == [min(a[r] for a in auts) for r in range(n)], g.edges


@pytest.mark.parametrize(
    "family, params, count",
    [
        ("hypercube", (3,), 1),
        ("hypercube", (4,), 1),
        ("cycle", (12,), 1),
        ("complete", (6,), 1),
        ("torus", (3, 3), 1),
        ("complete_bipartite", (3, 4), 2),
        *[("grid", (2, n), math.ceil(n / 2)) for n in range(1, 10)],
        ("grid", (3, 4), 4),
        ("spider", (4, 4, 4), 5),
    ],
)
def test_vertex_orbit_counts_on_relabeled_families(fam, family, params, count):
    for seed in range(3):
        assert len(set(_check_orbits(_relabeled(fam(family, *params), seed)))) == count


def _group_order(gens, n):
    """Order of the group the permutations generate: the identity closed
    under composition with each of them."""
    seen = {tuple(range(n))}
    todo = list(seen)
    for a in todo:
        for s in gens:
            b = tuple(s[v] for v in a)
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return len(seen)


@pytest.mark.parametrize(
    "family, params, order",
    [
        ("hypercube", (3,), 48),
        ("hypercube", (4,), 384),
        ("cycle", (12,), 24),
        ("torus", (3, 3), 72),
        ("complete_bipartite", (3, 4), 144),
    ],
)
def test_search_generates_known_automorphism_groups(fam, family, params, order):
    g = _relabeled(fam(family, *params), 1)
    assert _group_order(_search(g)[1], g.vertex_count) == order


@pytest.mark.parametrize("n", range(1, 7))
def test_search_generates_every_automorphism(n):
    for g in connected_graph_classes(n):
        auts = sum(_maps_edges_onto_edges(g, p) for p in itertools.permutations(range(n)))
        assert _group_order(_search(g)[1], n) == auts, g.edges


def _leaf_colourings(g) -> dict:
    """Every leaf of `_search`'s individualisation tree, unpruned, as
    {leaf colouring: path}; fails on two leaves with one colouring."""
    nbrs = [g.neighbors(v) for v in range(g.vertex_count)]
    leaves: dict = {}

    def walk(colour, path):
        colour = _refine(nbrs, colour)
        size = Counter(colour)
        split = [(k, c) for c, k in size.items() if k > 1]
        if not split:
            assert tuple(colour) not in leaves, (g.edges, leaves[tuple(colour)], path)
            leaves[tuple(colour)] = path
            return
        c = min(split)[1]
        for x in [v for v in range(g.vertex_count) if colour[v] == c]:
            walk(colour[:x] + [len(size)] + colour[x + 1:], path + [x])

    walk([0] * g.vertex_count, [])
    return leaves


# A cubic graph whose individualisation tree has leaves at depths 1 and 2.
_CUBIC8 = build_graph(8, [(0, 2), (0, 5), (0, 7), (1, 3), (1, 4), (1, 6), (2, 6), (2, 7),
                          (3, 4), (3, 7), (4, 5), (5, 6)])


def test_search_tree_leaves_have_distinct_colourings():
    """What the guard of `_search`'s third pruning rule rests on: no two
    leaves of one tree share a colouring, even where leaves lie at
    different depths."""
    for n in range(1, 7):
        for g in connected_graph_classes(n):
            _leaf_colourings(g)
    for seed in range(3):
        g = _relabeled(_CUBIC8, seed)
        depths = {len(path) for path in _leaf_colourings(g).values()}
        assert depths == {1, 2}
        auts = sum(_maps_edges_onto_edges(g, p) for p in itertools.permutations(range(8)))
        assert _group_order(_search(g)[1], 8) == auts


@pytest.mark.parametrize("family, params", [("hypercube", (6,)), ("torus", (8, 8))])
def test_vertex_orbits_at_64_vertices(fam, family, params):
    # One vertex-transitive graph each; a blow-up in the search shows as a slow test.
    assert set(_check_orbits(_relabeled(fam(family, *params), 0))) == {0}
