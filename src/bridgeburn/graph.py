"""Immutable simple undirected graphs with indexed edges.

Every generator and game component works on this representation.  Edges
are numbered 0..m-1 in insertion order; those ids double as bit positions
in the burned-edge bitmask used by the game engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

UNREACHABLE = -1


class GraphError(ValueError):
    """Base class for graph construction/validation failures."""


class VertexRangeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable after construction.

    `edges[eid]` is the normalized (min, max) endpoint pair of edge `eid`.
    `adjacency[v]` lists (neighbor, eid) pairs in edge-insertion order.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(compare=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> list[int]:
        return [u for (u, _eid) in self.adjacency[v]]

    def has_edge(self, u: int, v: int) -> bool:
        return any(w == v for (w, _eid) in self.adjacency[u])

    def edge_id(self, u: int, v: int) -> int:
        for (w, eid) in self.adjacency[u]:
            if w == v:
                return eid
        raise GraphError(f"no edge {u}-{v}")

    def incident_edge_bits(self, v: int) -> int:
        bits = 0
        for (_u, eid) in self.adjacency[v]:
            bits |= 1 << eid
        return bits


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects out-of-range endpoints, self-loops and duplicate edges, each
    with a distinct error type.  Edge ids follow input order; endpoint
    pairs are normalized to (min, max).
    """
    if vertex_count < 0:
        raise VertexRangeError(f"vertex_count must be non-negative, got {vertex_count}")
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for eid, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise VertexRangeError(f"edge ({u},{v}) has endpoint outside [0,{vertex_count})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return Graph(
        vertex_count=vertex_count,
        edges=tuple(norm),
        adjacency=tuple(tuple(a) for a in adj),
    )


def check_vertex(g: Graph, v: int) -> None:
    """Raise VertexRangeError unless v is a vertex of g."""
    if not (0 <= v < g.vertex_count):
        raise VertexRangeError(f"vertex {v} outside [0,{g.vertex_count})")


def all_distances_from(g: Graph, u: int, burned: int = 0) -> list[int]:
    """BFS distances from u to every vertex (UNREACHABLE where disconnected)."""
    check_vertex(g, u)
    dist = [UNREACHABLE] * g.vertex_count
    dist[u] = 0
    q = deque([u])
    while q:
        x = q.popleft()
        d = dist[x] + 1
        for (y, eid) in g.adjacency[x]:
            if burned >> eid & 1:
                continue
            if dist[y] == UNREACHABLE:
                dist[y] = d
                q.append(y)
    return dist


def component_bitmask(g: Graph, v: int, burned: int = 0) -> int:
    """Bitmask over vertices of v's component, skipping burned edges."""
    check_vertex(g, v)
    seen = 1 << v
    stack = [v]
    adjacency = g.adjacency
    while stack:
        x = stack.pop()
        for (y, eid) in adjacency[x]:
            if burned >> eid & 1:
                continue
            b = 1 << y
            if not seen & b:
                seen |= b
                stack.append(y)
    return seen


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    return component_bitmask(g, 0) == (1 << g.vertex_count) - 1


def all_degrees_even(g: Graph) -> bool:
    return all(len(a) % 2 == 0 for a in g.adjacency)


def is_tree(g: Graph) -> bool:
    return g.vertex_count >= 1 and g.edge_count == g.vertex_count - 1 and is_connected(g)


# --- serialization -----------------------------------------------------------
# Edge-list text: first line "n m", then one "u v" line per edge in id order,
# each pair ascending.  JSON: {"n": int, "edges": [[u, v], ...]}.  Both
# round-trip bit-exactly because edge order and normalization are preserved.


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for (u, v) in g.edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphError("edge-list text needs a leading 'n m' line")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise GraphError(f"expected {m} edges, found {(len(tokens) - 2) / 2}")
    it = iter(tokens[2:])
    edges = [(int(a), int(b)) for a, b in zip(it, it)]
    return build_graph(n, edges)


def to_json_dict(g: Graph) -> dict:
    return {"n": g.vertex_count, "edges": [[u, v] for (u, v) in g.edges]}


def from_json_dict(obj: dict) -> Graph:
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise GraphError('JSON graph needs {"n": int, "edges": [[int, int], ...]}')
    return build_graph(n, [tuple(e) for e in edges])
