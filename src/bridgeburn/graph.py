"""Immutable simple undirected graphs with indexed edges.

Every generator and game component works on this representation.  Edges
are numbered 0..m-1 in insertion order; those ids double as bit positions
in the burned-edge bitmask used by the game engine.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    """Raise VertexRangeError unless v is a vertex of g, an int in [0, n)."""
    if not (isinstance(v, int) and 0 <= v < g.vertex_count):
        raise VertexRangeError(f"vertex {v!r} outside [0,{g.vertex_count})")


def all_distances_from(g: Graph, u: int, burned: int = 0) -> list[int]:
    """BFS distances from u to every vertex (UNREACHABLE where disconnected)."""
    check_vertex(g, u)
    dist = [UNREACHABLE] * g.vertex_count
    dist[u] = 0
    adjacency = g.adjacency
    level, d = [u], 0
    while level:
        d += 1
        nxt = []
        for x in level:
            for (y, eid) in adjacency[x]:
                # a visited vertex skips the shift of the burned mask
                if dist[y] == UNREACHABLE and not burned >> eid & 1:
                    dist[y] = d
                    nxt.append(y)
        level = nxt
    return dist


def distance_memo(g: Graph) -> Callable[[int, int], Sequence[int]]:
    """dist(source, burned): `all_distances_from(g, source, burned)`, each
    computed once for the life of the returned callable.

    The memo keeps each result as immutable bytes in the narrowest array
    typecode that holds every distance on g and UNREACHABLE, and returns
    a memoryview on them, so callers share it without copying and none
    can change it.  An entry costs n times that item size plus about 150
    bytes with its key (2n + 150 on a graph with 128 < n <= 2**15), one
    per distinct (source, burned) asked for; a caller that keeps the memo
    for one search bounds it by that search's work.
    """
    typecode = next(tc for tc in "bhiq" if g.vertex_count <= 1 << 8 * array(tc).itemsize - 1)
    memo: dict[tuple[int, int], bytes] = {}

    def dist(source: int, burned: int) -> Sequence[int]:
        key = (source, burned)
        packed = memo.get(key)
        if packed is None:
            packed = memo[key] = array(typecode, all_distances_from(g, source, burned)).tobytes()
        return memoryview(packed).cast(typecode)

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


def component_after_burn(g: Graph, burned: int, u: int, v: int, comp_u: int) -> int:
    """v's component, skipping burned edges, where burned holds the edge
    u-v and comp_u is u's component before that edge burned.

    Two breadth-first searches, from u and from v, take turns one vertex at
    a time.  If they meet, u and v still share a component, which is
    comp_u.  Otherwise the search that runs out first has found a whole
    component: v's is that side or the rest of comp_u.  Either way the cost
    is about twice the smaller side's, not the whole component's (Even &
    Shiloach, "An on-line edge-deletion problem", J. ACM 28, 1981).
    """
    adjacency = g.adjacency
    seen = [1 << u, 1 << v]
    queues = [[u], [v]]
    heads = [0, 0]
    side = 0
    while heads[side] < len(queues[side]):
        queue, mine, other = queues[side], seen[side], seen[1 - side]
        x = queue[heads[side]]
        heads[side] += 1
        for (y, eid) in adjacency[x]:
            if burned >> eid & 1:
                continue
            b = 1 << y
            if other & b:
                return comp_u
            if not mine & b:
                mine |= b
                queue.append(y)
        seen[side] = mine
        side = 1 - side
    part = seen[side]
    return part if part >> v & 1 else comp_u & ~part


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    return component_bitmask(g, 0) == (1 << g.vertex_count) - 1


# --- automorphisms and canonical forms ----------------------------------------
# One individualisation-refinement search (McKay 1981, "Practical graph
# isomorphism"; McKay & Piperno 2014) gives both.  Colour refinement
# (1-dimensional Weisfeiler-Leman) splits vertices by their colour and the
# multiset of their neighbours' colours until no cell splits; individualising
# a vertex of a split cell and refining again walks a tree down to discrete
# colourings.  Leaves that relabel the graph alike give automorphisms, and
# the automorphisms found prune the rest of the walk.


def vertex_orbits(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """For each vertex r, (rho, sigma_r): rho is the least vertex of r's
    orbit under Aut(g), and sigma_r an automorphism with sigma_r[r] == rho.

    The orbits are those of the generators of Aut(g) that `_search`
    returns.  sigma_r is a product of generators along a breadth-first
    tree from rho, checked edge by edge before it is returned; a map that
    fails the check leaves r its own rho.
    """
    n = g.vertex_count
    gens = _search(g)[1]
    least = list(range(n))  # least vertex of each vertex's orbit
    for sigma in gens:
        least = _merge_orbits(least, sigma)
    orbits: list[tuple[int, tuple[int, ...]]] = [(r, tuple(range(n))) for r in range(n)]
    inverses = [_inverse(s) for s in gens]
    moves = list(zip(gens, inverses)) + list(zip(inverses, gens))
    for rho in set(least):
        # sigma_b = sigma_a o m^-1 takes b = m[a] to rho whenever sigma_a takes a there.
        tree = {rho: list(range(n))}
        todo = [rho]
        for a in todo:
            for m, inv in moves:
                b = m[a]
                if b not in tree:
                    tree[b] = [tree[a][inv[v]] for v in range(n)]
                    todo.append(b)
        for r, sigma in tree.items():
            if sigma[r] == rho and _is_automorphism(g, sigma):
                orbits[r] = (rho, tuple(sigma))
    return orbits


def _is_automorphism(g: Graph, sigma) -> bool:
    """Whether sigma (vertex -> image) permutes the vertices of g and maps
    every edge onto an edge."""
    if sorted(sigma) != list(range(g.vertex_count)):
        return False
    edges = set(g.edges)
    return all((sigma[u], sigma[v]) in edges or (sigma[v], sigma[u]) in edges for u, v in g.edges)


def _refine(nbrs: list[list[int]], colour: list[int]) -> list[int]:
    """The coarsest equitable refinement of colour, numbered 0..cells-1.

    Each round numbers the cells in the sorted order of their signatures
    (own colour, sorted neighbour colours), so a vertex's colour depends on
    the colours it started from and never on vertex labels: relabelling
    the graph permutes the vertices and leaves every colour unchanged.
    `canonical_key` relies on that.
    """
    cells = len(set(colour))
    while True:
        sigs = [(colour[v], tuple(sorted([colour[u] for u in a]))) for v, a in enumerate(nbrs)]
        number = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colour = [number[s] for s in sigs]
        if len(number) == cells:
            return colour
        cells = len(number)


def canonical_key(g: Graph) -> tuple[int, int]:
    """A key that two graphs share exactly when they are isomorphic: (n,
    the least adjacency bit string over the leaves of `_search`'s tree).
    Every step of the tree is label-invariant, so isomorphic graphs have
    the same leaves."""
    return g.vertex_count, _search(g)[0]


def _search(g: Graph) -> tuple[int, list[list[int]]]:
    """(the least leaf's bits, generators of Aut(g)) from one walk of the
    individualisation tree.

    A node refines its colouring; while a cell has more than one vertex, it
    individualises each vertex of the smallest such cell (the least colour
    among equal sizes) in turn and recurses.  A leaf's discrete colouring
    numbers the vertices 0..n-1, and the graph so relabelled gives bit
    n*a + b for each edge {a < b}.  An automorphism that fixes a node's
    individualised vertices maps the subtree of each child onto that of
    the child's image, leaves onto leaves with the same bits, so the walk
    skips what the automorphisms it has found account for:
    - a leaf with the bits of the first or the best leaf gives gamma, the
      map from that leaf's numbering to this one's, which is checked edge
      by edge and kept;
    - a child is skipped when an explored sibling is its twin (the swap is
      kept) or maps onto it under the kept maps that fix the node's
      individualised vertices;
    - after gamma, the walk returns to the node where the two leaves'
      paths part when gamma fixes their common prefix and maps the other
      branch onto this one.
    The maps kept generate Aut(g) (McKay 1981, "Practical graph
    isomorphism").

    The third rule's guard has not been seen false, and it is not proven
    that it cannot be.  Each individualised vertex takes the top colour,
    and refinement keeps the order of colours, so a leaf at depth k gives
    its path's vertices the top k colours in path order.  gamma maps each
    vertex to the one with its colour in the other leaf, so for two leaves
    at one depth it maps the other path onto this one, and the guard
    holds.  Leaves can lie at different depths (a cubic graph on 8
    vertices has leaves at depths 1 and 2), and the guard could fail only
    if two distinct leaves of one tree had the same colouring: gamma maps
    the tree onto itself and the other leaf onto a leaf coloured like
    this one.  `tests/test_graph.py` walks whole trees and finds no such
    pair.  A false guard would only keep the walk going, which is sound.
    """
    n = g.vertex_count
    nbrs = [g.neighbors(v) for v in range(n)]
    bits = [sum(1 << u for u in a) for a in nbrs]
    gens: list[list[int]] = []
    leaves: list[tuple[int, list[int], list[int]]] = []  # first and best (bits, path, colour)

    def twins(x: int, y: int) -> bool:
        both = 1 << x | 1 << y
        return bits[x] | both == bits[y] | both

    def leaf(colour: list[int], path: list[int]) -> int | None:
        key = sum(1 << n * min(colour[u], colour[v]) + max(colour[u], colour[v])
                  for u, v in g.edges)
        if not leaves or key < leaves[-1][0]:
            leaves[1:] = [(key, path, colour)]
            return None
        for other_key, other, other_colour in leaves:
            if other_key != key:
                continue
            vertex_at = _inverse(colour)
            gamma = [vertex_at[c] for c in other_colour]
            if _is_automorphism(g, gamma):
                gens.append(gamma)
                d = next(i for i, (a, b) in enumerate(zip(path, other)) if a != b)
                if all(gamma[v] == v for v in path[:d]) and gamma[other[d]] == path[d]:
                    return d
            return None
        return None

    def node(colour: list[int], path: list[int]) -> int | None:
        """Walk the subtree below path; the depth to return to, or None."""
        colour = _refine(nbrs, colour)
        size = Counter(colour)
        split = [(k, c) for c, k in size.items() if k > 1]
        if not split:
            return leaf(colour, path)
        c = min(split)[1]
        new = len(size)  # colours are numbered 0..len(size)-1
        orbit, used = list(range(n)), 0  # orbits of the kept maps that fix path
        done: list[int] = []
        for x in [v for v in range(n) if colour[v] == c]:
            if done:
                for sigma in gens[used:]:
                    if all(sigma[v] == v for v in path):
                        orbit = _merge_orbits(orbit, sigma)
                used = len(gens)
                if any(orbit[x] == orbit[y] for y in done):
                    continue
                twin = next((y for y in done if twins(x, y)), None)
                if twin is not None:
                    swap = list(range(n))
                    swap[x], swap[twin] = twin, x
                    gens.append(swap)
                    continue
            back = node(colour[:x] + [new] + colour[x + 1:], path + [x])
            if back is not None and back < len(path):
                return back
            done.append(x)
        return None

    node([0] * n, [])
    return leaves[-1][0], gens


def _merge_orbits(least: list[int], sigma: list[int]) -> list[int]:
    """least after joining every vertex v with sigma[v]."""
    parent = least.copy()

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for v, w in enumerate(sigma):
        a, b = root(v), root(w)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [root(v) for v in range(len(least))]


def _inverse(sigma) -> list[int]:
    inv = [0] * len(sigma)
    for v, w in enumerate(sigma):
        inv[w] = v
    return inv


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
