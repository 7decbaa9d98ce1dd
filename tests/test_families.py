import pytest

from bridgeburn.families import (
    FamilySpec,
    FamilySpecError,
    capture_family_blocks,
    generate,
    grid_coords,
    grid_vertex,
    is_member,
)
from bridgeburn.graph import all_degrees_even, all_distances_from, build_graph, is_connected


def test_grid_2x3_counts(fam):
    g = fam("grid", 2, 3)
    assert g.vertex_count == 6
    assert g.edge_count == 7  # m(n-1) + n(m-1)


def test_grid_edge_count_formula(fam):
    for m, n in [(3, 3), (3, 5), (4, 4), (2, 9)]:
        g = fam("grid", m, n)
        assert g.edge_count == m * (n - 1) + n * (m - 1)


def test_torus_edge_count(fam):
    for m, n in [(3, 3), (3, 4), (5, 5)]:
        g = fam("torus", m, n)
        assert g.edge_count == 2 * m * n
        assert all_degrees_even(g)


def test_stalemate_shape(fam):
    g = fam("stalemate")
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert sorted(g.degree(v) for v in range(6)) == [1, 1, 2, 2, 3, 3]


def test_capture_family_22(fam):
    g = fam("capture_family", 2, 2)  # n = km + 2k
    assert g.vertex_count == 8
    vs, us, blocks = capture_family_blocks(2, 2)
    assert vs == [0, 1] and us == [2, 3] and blocks == [[4, 5], [6, 7]]
    # each S vertex: m(k-1) block edges plus the edge to its v_i
    for block in blocks:
        for s in block:
            assert g.degree(s) == 2 * 1 + 1
    for u in us:
        assert g.degree(u) == 1


def test_capture_family_s_subgraph_regular(fam):
    m, k = 3, 3
    g = fam("capture_family", m, k)
    _, _, blocks = capture_family_blocks(m, k)
    s_vertices = {v for b in blocks for v in b}
    for v in s_vertices:
        inside = sum(1 for u in g.neighbors(v) if u in s_vertices)
        assert inside == m * (k - 1)


def test_capture_family_parity_validation():
    with pytest.raises(FamilySpecError):
        FamilySpec("capture_family", (3, 2))  # m(k-1) = 3 odd


def test_hypercube(fam):
    g = fam("hypercube", 3)
    assert g.vertex_count == 8
    assert g.edge_count == 12
    assert all_distances_from(g, 0)[7] == 3


def test_spider(fam):
    g = fam("spider", 3, 3, 3)
    assert g.vertex_count == 10
    assert g.degree(0) == 3
    assert sum(1 for v in range(10) if g.degree(v) == 1) == 3


def test_generate_deterministic():
    a = generate(FamilySpec("grid", (3, 4)))
    b = generate(FamilySpec("grid", (3, 4)))
    assert a.edges == b.edges


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", (2,)),
        ("torus", (2, 5)),
        ("path", (0,)),
        ("hypercube", (0,)),
        ("stalemate", (1,)),
        ("nosuch", (3,)),
        ("spider", ()),
    ],
)
def test_spec_validation(family, params):
    with pytest.raises(FamilySpecError):
        FamilySpec(family, params)


def test_all_generated_connected(fam):
    for g in [
        fam("path", 7),
        fam("cycle", 5),
        fam("complete", 4),
        fam("complete_bipartite", 2, 3),
        fam("grid", 4, 5),
        fam("torus", 3, 4),
        fam("hypercube", 4),
        fam("stalemate"),
        fam("capture_family", 2, 3),
        fam("spider", 1, 2, 4),
    ]:
        assert is_connected(g)


SPECS = [
    ("path", (6,)),
    ("cycle", (5,)),
    ("complete", (4,)),
    ("complete_bipartite", (2, 3)),
    ("grid", (2, 5)),
    ("grid", (3, 3)),
    ("torus", (3, 3)),
    ("torus", (3, 4)),
    ("hypercube", (3,)),
    ("stalemate", ()),
    ("capture_family", (2, 3)),
    ("spider", (1, 2, 4)),
]


@pytest.mark.parametrize("family,params", SPECS)
def test_is_member_up_to_edge_order(family, params):
    spec = FamilySpec(family, params)
    g = generate(spec)
    assert is_member(g, spec)
    assert is_member(build_graph(g.vertex_count, [(v, u) for (u, v) in reversed(g.edges)]), spec)
    assert not is_member(build_graph(g.vertex_count, g.edges[1:]), spec)  # a subgraph
    others = [FamilySpec(f, p) for (f, p) in SPECS if (f, p) != (family, params)]
    assert not any(is_member(g, other) for other in others)


def test_is_member_rejects_a_supergraph(fam):
    g = fam("grid", 2, 5)
    plus = build_graph(g.vertex_count, [*g.edges, (0, 6)])
    assert not is_member(plus, FamilySpec("grid", (2, 5)))


def test_grid_coords_inverts_grid_vertex():
    assert [grid_coords(4, grid_vertex(4, i, j)) for j in range(3) for i in range(4)] == [
        (i, j) for j in range(3) for i in range(4)
    ]
