"""Named graph families with fixed, documented vertex numbering.

Conventions (used by strategies and formula lookups):

* grid(m, n) / torus(m, n): m rows, n columns.  Vertex (i, j) with column
  i < n and row j < m has index j*n + i.  "Right" increases i, "down"
  increases j.
* hypercube(d): vertex = coordinate word read as a binary integer;
  dimension b corresponds to bit b.
* stalemate: the six-vertex graph u,v,w,x,y,z = 0..5 with edges
  uv, vw, wx, xu, vy, xz in that id order.
* capture_family(m, k): clique v1..vk = 0..k-1, pendants u1..uk =
  k..2k-1, then the partite blocks S1..Sk of m vertices each.
* spider(l1, l2, ...): center 0, then each leg as a consecutive chain.

Generation is deterministic: identical specs give bit-identical edge
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, build_graph

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "grid",
    "torus",
    "hypercube",
    "stalemate",
    "capture_family",
    "spider",
)


class FamilySpecError(GraphError):
    """Unknown family or invalid parameter arity/range."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilySpecError(f"unrecognized family {self.family!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        _validate(self.family, self.params)

    def __str__(self) -> str:
        return f"{self.family}({','.join(map(str, self.params))})"


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise FamilySpecError(msg)


def _validate(family: str, p: tuple[int, ...]) -> None:
    if family == "path":
        _need(len(p) == 1 and p[0] >= 1, "path needs n >= 1")
    elif family == "cycle":
        _need(len(p) == 1 and p[0] >= 3, "cycle needs n >= 3")
    elif family == "complete":
        _need(len(p) == 1 and p[0] >= 1, "complete needs n >= 1")
    elif family == "complete_bipartite":
        _need(len(p) == 2 and min(p) >= 1, "complete_bipartite needs m, n >= 1")
    elif family == "grid":
        _need(len(p) == 2 and min(p) >= 1, "grid needs m, n >= 1")
    elif family == "torus":
        # m, n >= 3 keeps the product simple (no multi-edges).
        _need(len(p) == 2 and min(p) >= 3, "torus needs m, n >= 3")
    elif family == "hypercube":
        _need(len(p) == 1 and p[0] >= 1, "hypercube needs d >= 1")
    elif family == "stalemate":
        _need(len(p) == 0, "stalemate takes no parameters")
    elif family == "capture_family":
        _need(len(p) == 2 and p[0] >= 1 and p[1] >= 1, "capture_family needs m, k >= 1")
        m, k = p
        _need(m * (k - 1) % 2 == 0, f"capture_family needs m(k-1) even, got m={m}, k={k}")
    elif family == "spider":
        _need(len(p) >= 1 and min(p) >= 1, "spider needs at least one leg of length >= 1")


def grid_vertex(n_cols: int, i: int, j: int) -> int:
    """Index of grid/torus vertex at column i, row j."""
    return j * n_cols + i


def grid_coords(n_cols: int, v: int) -> tuple[int, int]:
    """(column, row) of grid/torus vertex v; the inverse of grid_vertex."""
    return v % n_cols, v // n_cols


def generate(spec: FamilySpec) -> Graph:
    """Build the named family member with its canonical numbering."""
    fam, p = spec.family, spec.params
    if fam == "path":
        (n,) = p
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        (n,) = p
        return build_graph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])
    if fam == "complete":
        (n,) = p
        return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    if fam == "complete_bipartite":
        m, n = p
        return build_graph(m + n, [(a, m + b) for a in range(m) for b in range(n)])
    if fam == "grid":
        m, n = p
        edges = []
        for j in range(m):
            for i in range(n):
                v = grid_vertex(n, i, j)
                if i + 1 < n:
                    edges.append((v, grid_vertex(n, i + 1, j)))
                if j + 1 < m:
                    edges.append((v, grid_vertex(n, i, j + 1)))
        return build_graph(m * n, edges)
    if fam == "torus":
        m, n = p
        edges = []
        for j in range(m):
            for i in range(n):
                v = grid_vertex(n, i, j)
                edges.append((v, grid_vertex(n, (i + 1) % n, j)))
                edges.append((v, grid_vertex(n, i, (j + 1) % m)))
        return build_graph(m * n, edges)
    if fam == "hypercube":
        (d,) = p
        nn = 1 << d
        edges = [(v, v | (1 << b)) for v in range(nn) for b in range(d) if not v >> b & 1]
        return build_graph(nn, edges)
    if fam == "stalemate":
        # u,v,w,x,y,z = 0..5
        return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 5)])
    if fam == "capture_family":
        m, k = p
        vs, us, blocks = capture_family_blocks(m, k)
        edges = [(a, b) for a in vs for b in vs[a + 1:]]
        for i in range(k):
            for j in range(i + 1, k):
                edges.extend((a, b) for a in blocks[i] for b in blocks[j])
        for v, u, block in zip(vs, us, blocks):
            edges.extend((v, a) for a in block)
            edges.append((v, u))
        return build_graph(2 * k + m * k, edges)
    if fam == "spider":
        edges = []
        nxt = 1
        for leg in p:
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return build_graph(nxt, edges)
    raise FamilySpecError(f"unrecognized family {fam!r}")


def vertex_count(spec: FamilySpec) -> int:
    """Number of vertices of generate(spec), without building it."""
    fam, p = spec.family, spec.params
    if fam in ("grid", "torus"):
        return p[0] * p[1]
    if fam == "hypercube":
        return 1 << p[0]
    if fam == "stalemate":
        return 6
    if fam == "capture_family":
        return (p[0] + 2) * p[1]
    if fam == "spider":
        return 1 + sum(p)
    return sum(p)  # path, cycle, complete: n; complete_bipartite: m + n


def is_member(g: Graph, spec: FamilySpec) -> bool:
    """Whether g is generate(spec) up to the order of its edges; a spec of
    another size is rejected without being built."""
    return vertex_count(spec) == g.vertex_count and set(generate(spec).edges) == set(g.edges)


def capture_family_blocks(m: int, k: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Vertex groups (clique, pendants, partite blocks) of capture_family(m, k)."""
    vs = list(range(k))
    us = list(range(k, 2 * k))
    blocks = [list(range(2 * k + i * m, 2 * k + (i + 1) * m)) for i in range(k)]
    return vs, us, blocks
