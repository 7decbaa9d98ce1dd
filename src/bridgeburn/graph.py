"""Immutable simple undirected graphs with indexed edges.

Every generator and game component works on this representation.  Edges
are numbered 0..m-1 in insertion order; those ids double as bit positions
in the burned-edge bitmask used by the game engine.
"""

from __future__ import annotations

from collections import Counter, deque
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


# --- automorphisms and canonical forms ----------------------------------------
# Colour refinement (1-dimensional Weisfeiler-Leman) splits vertices by their
# colour and the multiset of their neighbours' colours until no cell splits.
# The orbit search refines two copies of the graph as one, so equal colours
# mean the same thing in both copies; the canonical form individualises and
# refines one copy down to discrete colourings (McKay & Piperno 2014).

_SEARCH_NODES = 4096  # refinements per (r, rho) search before it gives up


def vertex_orbits(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """For each vertex r, (rho, sigma_r): rho is the least vertex of r's
    orbit under Aut(g), and sigma_r an automorphism with sigma_r[r] == rho.

    Degree-seeded colour refinement gives the cells orbits cannot cross.
    Vertices go in order; r is searched against the least vertex of each
    earlier orbit in its cell by individualising r and rho and
    backtracking.  Every map found is a generator, and its cycles merge
    orbits, so a vertex it already reaches needs no search.  sigma_r is a
    product of generators along a breadth-first tree from rho, checked
    edge by edge before it is returned.  A search that gives up, or a map
    that fails the check, leaves r its own rho: a coarser answer, never a
    wrong one.
    """
    n = g.vertex_count
    nbrs = [g.neighbors(v) for v in range(n)]
    arcs = {(u, v) for v, a in enumerate(nbrs) for u in a}
    cell = _refine(nbrs, [len(a) for a in nbrs])
    gens: list[list[int]] = []
    least = list(range(n))  # least vertex of each vertex's orbit so far
    for r in range(n):
        if least[r] != r:
            continue
        for rho in sorted({least[v] for v in range(r) if cell[v] == cell[r]}):
            sigma = _map_onto(g, arcs, nbrs, cell, r, rho)
            if sigma is not None:
                gens.append(sigma)
                least = _merge_orbits(least, sigma)
                break
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
            if sigma[r] == rho and _is_automorphism(g, arcs, sigma):
                orbits[r] = (rho, tuple(sigma))
    return orbits


def _is_automorphism(g: Graph, arcs: set[tuple[int, int]], sigma) -> bool:
    """Whether sigma (vertex -> image) permutes the vertices of g and maps
    every edge onto an edge; `arcs` holds each edge of g both ways round."""
    if sorted(sigma) != list(range(g.vertex_count)):
        return False
    return all((sigma[u], sigma[v]) in arcs for u, v in g.edges)


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
    """A key that two graphs share exactly when they are isomorphic.

    The key is (n, the least adjacency bit string over the leaves of the
    individualisation tree).  A node refines its colouring; while a cell
    has more than one vertex, it individualises each vertex of the
    smallest such cell (the least colour among equal sizes) in turn and
    recurses.  A leaf's discrete colouring numbers the vertices 0..n-1, and
    the graph so relabelled gives bit n*a + b for each edge {a < b}.  Every
    step is label-invariant, so isomorphic graphs have the same leaves.

    Twins, two vertices with the same neighbours apart from each other,
    are swapped by an automorphism that fixes every individualised vertex,
    so their subtrees have the same leaves and only the first is searched.
    That is the only pruning: on graphs with large automorphism groups
    that are not made of twins the tree can still be exponential in n.
    This is meant for the classes of `enumeration` (connected graphs up to
    about n = 8, trees up to n = 12), not for the families the solver runs
    on.
    """
    n = g.vertex_count
    nbrs = [g.neighbors(v) for v in range(n)]
    bits = [sum(1 << u for u in a) for a in nbrs]

    def twins(x: int, y: int) -> bool:
        both = 1 << x | 1 << y
        return bits[x] | both == bits[y] | both

    def least(colour: list[int]) -> int:
        colour = _refine(nbrs, colour)
        size = Counter(colour)
        split = [(k, c) for c, k in size.items() if k > 1]
        if not split:
            return sum(1 << n * min(colour[u], colour[v]) + max(colour[u], colour[v])
                       for u, v in g.edges)
        c = min(split)[1]
        cell = [x for x in range(n) if colour[x] == c]
        new = [len(size)]  # colours are numbered 0..len(size)-1
        return min(
            least(colour[:x] + new + colour[x + 1:])
            for i, x in enumerate(cell)
            if not any(twins(x, y) for y in cell[:i])
        )

    return n, least([0] * n)


def _map_onto(
    g: Graph, arcs: set[tuple[int, int]], nbrs: list[list[int]], cell: list[int], r: int, rho: int
) -> list[int] | None:
    """An automorphism taking r to rho, or None if the search finds none
    within _SEARCH_NODES refinements.

    The search refines the disjoint union of two copies of the graph, the
    left copy (vertices 0..n-1) with r individualised and the right one
    (n..2n-1) with rho, so that equal colours mean the same thing on both
    sides.  While the colour counts agree, it individualises the first
    left vertex x of the smallest split cell against each right vertex
    of that cell in turn; a discrete colouring is a bijection, kept if it
    maps edges onto edges.
    """
    n = len(nbrs)
    union = nbrs + [[u + n for u in a] for a in nbrs]
    fresh = max(cell) + 1
    start = cell + cell
    start[r] = start[rho + n] = fresh
    budget = _SEARCH_NODES

    def search(colour: list[int]) -> list[int] | None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            return None
        colour = _refine(union, colour)
        left, right = colour[:n], colour[n:]
        size = Counter(left)
        if size != Counter(right):
            return None
        split = [(k, c) for c, k in size.items() if k > 1]
        if not split:
            image = {c: w for w, c in enumerate(right)}
            sigma = [image[c] for c in left]
            return sigma if _is_automorphism(g, arcs, sigma) else None
        c = min(split)[1]
        x = left.index(c)
        new = len(size)  # colours are numbered 0..len(size)-1
        for y in (w for w in range(n) if right[w] == c):
            trial = colour.copy()
            trial[x] = trial[y + n] = new
            sigma = search(trial)
            if sigma is not None:
                return sigma
        return None

    return search(start)


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
