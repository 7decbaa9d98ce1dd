"""Exhaustive small-graph corpora for oracle-style verification.

Both enumerations grow one vertex at a time and keep one representative
per isomorphism class, so the expensive game solves run once per
unlabeled class.  Trees add a leaf to each class on n - 1 vertices;
connected graphs join a new vertex to every non-empty subset of each
class on n - 1 vertices.  Both are told apart by `graph.canonical_key`.
Every class seen so far is kept in memory, which is fine at these sizes;
McKay's canonical augmentation (1998, "Isomorph-free exhaustive
generation") would drop that store.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .graph import Graph, build_graph, canonical_key


def unlabeled_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Removing a leaf from a tree leaves a tree, so adding a leaf at each
    vertex of each class on n - 1 vertices reaches every class.
    """
    return _grow(n, lambda m: [1 << v for v in range(m)])


def connected_graph_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Every connected graph on two or more vertices has a vertex whose
    removal leaves it connected (a leaf of a spanning tree), so joining a
    new vertex to each non-empty subset of each class on n - 1 vertices
    reaches every class.
    """
    return _grow(n, lambda m: range(1, 1 << m))


def _grow(n: int, joins: Callable[[int], Iterable[int]]) -> list[Graph]:
    """Classes on n vertices, grown from K_1.  Each class on m vertices gets
    a vertex m joined to the vertex set of each bitmask in `joins(m)`; the
    first child with a given `canonical_key` represents its class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    classes = [build_graph(1, [])]
    for m in range(1, n):
        seen: dict[tuple[int, int], Graph] = {}
        for g in classes:
            for mask in joins(m):
                edges = g.edges + tuple((v, m) for v in range(m) if mask >> v & 1)
                child = build_graph(m + 1, edges)
                seen.setdefault(canonical_key(child), child)
        classes = list(seen.values())
    return classes
