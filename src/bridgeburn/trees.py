"""Polynomial-time bridge-burning cop number for trees.

A leaf is guarded when some cop starts within distance 2 of it; a robber
adjacent to an unguarded leaf isolates himself there and wins, so the
cops must guard every leaf, and a greedy deepest-leaf sweep placing cops
at grandparents is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, all_distances_from, is_tree


class NotATreeError(ValueError):
    pass


@dataclass(frozen=True)
class GuardReport:
    root: int
    placements: tuple[int, ...]  # one cop per algorithm iteration, in order
    guarded_certificate: dict[int, int]  # leaf -> guarding placement (dist <= 2)

    @property
    def N(self) -> int:
        return len(self.placements)

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "N": self.N,
            "placements": list(self.placements),
            "guardedCertificate": {str(k): v for k, v in sorted(self.guarded_certificate.items())},
        }


def tree_cop_number(t: Graph, root: int = 0) -> GuardReport:
    """Greedy guarding sweep; the returned N equals c_b(T).

    Iteration: take the unguarded leaf furthest from the root (ties to the
    smallest vertex index); if it is the root or adjacent to it, place a
    cop at the root, otherwise at the leaf's grandparent.  Stops when all
    leaves sit within distance 2 of some placed cop.  A one-vertex tree
    counts its lone vertex as a leaf.
    """
    if not is_tree(t):
        raise NotATreeError("tree_cop_number requires a connected acyclic graph")
    if not (0 <= root < t.vertex_count):
        raise ValueError(f"root {root} out of range")
    depth = all_distances_from(t, root)
    parent = _parents(t, root, depth)
    leaves = [v for v in range(t.vertex_count) if t.degree(v) <= 1]
    leaf_set = set(leaves)
    placements: list[int] = []
    cop_dist: list[int] = [t.vertex_count + 2] * t.vertex_count
    certificate: dict[int, int] = {}

    def place(c: int) -> None:
        placements.append(c)
        for v, d in enumerate(all_distances_from(t, c)):
            if d < cop_dist[v]:
                cop_dist[v] = d
            if d <= 2 and v in leaf_set:
                certificate.setdefault(v, c)

    while True:
        unguarded = [v for v in leaves if cop_dist[v] > 2]
        if not unguarded:
            break
        v = max(unguarded, key=lambda x: (depth[x], -x))
        if v == root or t.has_edge(v, root):
            place(root)
        else:
            place(parent[parent[v]])

    return GuardReport(root=root, placements=tuple(placements), guarded_certificate=certificate)


def _parents(t: Graph, root: int, depth: list[int]) -> list[int]:
    parent = [-1] * t.vertex_count
    for v in range(t.vertex_count):
        for u in t.neighbors(v):
            if depth[u] == depth[v] - 1:
                parent[v] = u
                break
    return parent

