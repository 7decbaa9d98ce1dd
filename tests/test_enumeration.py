"""Class enumerators and the canonical form they deduplicate with."""

import itertools

import pytest
from test_graph import _relabeled

from bridgeburn.enumeration import connected_graph_classes, unlabeled_trees
from bridgeburn.graph import build_graph, canonical_key, is_connected, is_tree

# OEIS A001349 (connected graphs) and A000055 (free trees), from n = 1.
CONNECTED_GRAPHS = [1, 1, 2, 6, 21, 112, 853]
FREE_TREES = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def test_connected_graph_class_counts():
    for n, count in enumerate(CONNECTED_GRAPHS, start=1):
        classes = connected_graph_classes(n)
        assert len(classes) == count, n
        assert all(g.vertex_count == n and is_connected(g) for g in classes)
        assert len({canonical_key(g) for g in classes}) == count


def test_tree_class_counts():
    for n, count in enumerate(FREE_TREES, start=1):
        trees = unlabeled_trees(n)
        assert len(trees) == count, n
        assert all(t.vertex_count == n and is_tree(t) for t in trees)


def test_enumerators_reject_empty_order():
    with pytest.raises(ValueError):
        connected_graph_classes(0)
    with pytest.raises(ValueError):
        unlabeled_trees(0)


def test_canonical_key_matches_brute_force_on_every_5_vertex_graph():
    """Two labelled graphs share a key exactly when the least edge list
    over all 120 relabellings is the same; 34 classes (OEIS A000088)."""
    n = 5
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    brute_of_key, key_of_brute = {}, {}
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        brute = min(tuple(sorted(tuple(sorted((q[u], q[v]))) for u, v in edges)) for q in perms)
        key = canonical_key(build_graph(n, edges))
        assert brute_of_key.setdefault(key, brute) == brute
        assert key_of_brute.setdefault(brute, key) == key
    assert len(brute_of_key) == 34


@pytest.mark.parametrize(
    "family, params",
    [
        ("complete", (6,)),
        ("cycle", (9,)),
        ("path", (7,)),
        ("hypercube", (4,)),
        ("torus", (3, 4)),
        ("grid", (3, 4)),
        ("complete_bipartite", (3, 3)),
        ("spider", (3, 3, 3)),
        ("capture_family", (2, 2)),
        ("stalemate", ()),
        ("hypercube", (5,)),
        ("torus", (6, 6)),
        ("spider", (2, 2, 2, 2, 2, 2, 2, 2)),
    ],
)
def test_canonical_key_ignores_labels_on_families(fam, family, params):
    g = fam(family, *params)
    assert {canonical_key(_relabeled(g, seed)) for seed in range(4)} == {canonical_key(g)}


def test_canonical_key_ignores_labels_on_enumerated_classes():
    classes = [g for n in range(1, 7) for g in connected_graph_classes(n)] + unlabeled_trees(10)
    for seed, g in enumerate(classes):
        assert canonical_key(_relabeled(g, seed)) == canonical_key(g), g.edges
