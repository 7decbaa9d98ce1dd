import pytest

from bridgeburn.graph import (
    UNREACHABLE,
    DuplicateEdgeError,
    SelfLoopError,
    VertexRangeError,
    all_degrees_even,
    all_distances_from,
    build_graph,
    from_edge_list_text,
    from_json_dict,
    to_edge_list_text,
    to_json_dict,
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
