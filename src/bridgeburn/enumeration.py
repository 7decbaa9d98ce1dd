"""Exhaustive small-graph corpora for oracle-style verification.

Both enumerations grow one vertex at a time and keep one representative
per isomorphism class, so the expensive game solves run once per
unlabeled class.  Trees add a leaf to each class on n - 1 vertices and are
told apart by AHU codes; connected graphs join a new vertex to every
non-empty subset of each class on n - 1 vertices and are told apart by
`graph.canonical_key`.  Every class seen so far is kept in memory, which
is fine at these sizes; McKay's canonical augmentation (1998,
"Isomorph-free exhaustive generation") would drop that store.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .graph import Graph, build_graph, canonical_key


def tree_canonical_key(n: int, edges: list[tuple[int, int]]) -> str:
    """AHU code rooted at the tree center(s); equal iff trees isomorphic."""
    if n == 1:
        return "()"
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _tree_centers(n, adj)
    return min(_ahu(root, n, adj) for root in centers)


def _tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        removed += len(nxt)
        layer = nxt if nxt else layer
    return layer


def _ahu(root: int, n: int, adj: list[list[int]]) -> str:
    # Iterative post-order; children codes sorted for canonicity.
    code: dict[int, str] = {}
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        v, par, done = stack.pop()
        if done:
            children = sorted(code[u] for u in adj[v] if u != par)
            code[v] = "(" + "".join(children) + ")"
        else:
            stack.append((v, par, True))
            for u in adj[v]:
                if u != par:
                    stack.append((u, v, False))
    return code[root]


def unlabeled_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Removing a leaf from a tree leaves a tree, so adding a leaf at each
    vertex of each class on n - 1 vertices reaches every class.
    """
    return _grow(n, lambda m: [1 << v for v in range(m)],
                 lambda t: tree_canonical_key(t.vertex_count, t.edges))


def connected_graph_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Every connected graph on two or more vertices has a vertex whose
    removal leaves it connected (a leaf of a spanning tree), so joining a
    new vertex to each non-empty subset of each class on n - 1 vertices
    reaches every class.
    """
    return _grow(n, lambda m: range(1, 1 << m), canonical_key)


def _grow(
    n: int, joins: Callable[[int], Iterable[int]], key: Callable[[Graph], Hashable]
) -> list[Graph]:
    """Classes on n vertices, grown from K_1.  Each class on m vertices gets
    a vertex m joined to the vertex set of each bitmask in `joins(m)`; the
    first child with a given `key` represents its class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    classes = [build_graph(1, [])]
    for m in range(1, n):
        seen: dict[Hashable, Graph] = {}
        for g in classes:
            for mask in joins(m):
                edges = g.edges + tuple((v, m) for v in range(m) if mask >> v & 1)
                child = build_graph(m + 1, edges)
                seen.setdefault(key(child), child)
        classes = list(seen.values())
    return classes
