import json

import pytest

from bridgeburn.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_copnumber_path6(capsys):
    code, out = run(capsys, "copnumber", "--family", "path", "--params", "6")
    assert code == 0
    assert json.loads(out)["cb"] == 2


def test_formula_torus(capsys):
    code, out = run(capsys, "formula", "--family", "torus", "--params", "16,14")
    obj = json.loads(out)
    assert code == 0
    assert (obj["lower"], obj["upper"]) == (2, 2)


def test_generate_round_trip(capsys, tmp_path):
    code, out = run(capsys, "generate", "--family", "grid", "--params", "2,5")
    assert code == 0 and out.endswith("\n")
    f = tmp_path / "g.json"
    f.write_text(out)
    code, out2 = run(capsys, "copnumber", "--graph", str(f))
    assert code == 0
    assert json.loads(out2)["cb"] == 1


def test_generate_edge_list_round_trip(capsys, tmp_path):
    code, out = run(capsys, "generate", "--family", "spider", "--params", "3,3,3", "--pretty")
    f = tmp_path / "spider333.edges"
    f.write_text(out)
    code, out2 = run(capsys, "tree", "--graph", str(f))
    assert code == 0
    assert json.loads(out2)["N"] == 3


def test_byte_identical_reruns(capsys):
    _, a = run(capsys, "solve", "--family", "cycle", "--params", "6", "--cops", "1")
    _, b = run(capsys, "solve", "--family", "cycle", "--params", "6", "--cops", "1")
    assert a == b


def test_solve_classic_variant(capsys):
    code, out = run(capsys, "solve", "--family", "cycle", "--params", "5",
                    "--cops", "1", "--variant", "classic")
    assert code == 0
    assert json.loads(out)["winner"] == "robber"


def test_exit_domain_error(capsys):
    code, out = run(capsys, "capture-time", "--family", "path", "--params", "6")
    assert code == 1
    assert json.loads(out)["error"] == "domain"


@pytest.mark.parametrize(
    "argv", [["solve", "--cops", "1"], ["copnumber"], ["capture-time"], ["bounds"]]
)
def test_empty_graph_is_input_error(capsys, tmp_path, argv):
    f = tmp_path / "empty.edges"
    f.write_text("0 0\n")
    code, out = run(capsys, *argv, "--graph", str(f))
    assert code == 2
    assert json.loads(out) == {"error": "input", "detail": "empty graph"}


def test_exit_input_error(capsys):
    code, out = run(capsys, "copnumber", "--family", "torus", "--params", "2,4")
    assert code == 2
    code, out = run(capsys, "copnumber", "--graph", "/no/such/file")
    assert code == 2


def test_exit_budget(capsys):
    code, out = run(capsys, "solve", "--family", "grid", "--params", "2,6",
                    "--cops", "1", "--budget", "100")
    assert code == 3
    assert json.loads(out)["error"] == "budget-exceeded"


def test_exit_budget_before_listing_placements(capsys):
    code, out = run(capsys, "solve", "--family", "grid", "--params", "6,6", "--cops", "8")
    assert code == 3
    assert json.loads(out) == {"error": "budget-exceeded", "explored": 10**7}


def test_copnumber_reports_exceeding_max_k(capsys):
    code, out = run(capsys, "copnumber", "--family", "path", "--params", "6", "--max-k", "1")
    obj = json.loads(out)
    assert code == 0
    assert (obj["cb"], obj["exceeds"]) == (None, 1)


def test_capture_time_complete(capsys):
    code, out = run(capsys, "capture-time", "--family", "complete", "--params", "4")
    obj = json.loads(out)
    assert code == 0
    assert (obj["captureTimeRounds"], obj["placement"]) == (1, [0])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "path", "--params", "4", "--cops", "1", "--budget", "-5"],
        ["exhaust", "--family", "path", "--params", "6", "--fixed", "leaf_isolate",
         "--budget", "-1"],
        ["copnumber", "--family", "path", "--params", "4", "--max-k", "-3"],
        ["exhaust", "--family", "path", "--params", "6", "--fixed", "farthest", "--k-cops", "0"],
        ["exhaust", "--family", "path", "--params", "6", "--fixed", "farthest", "--k-cops", "-1"],
    ],
)
def test_counts_and_budgets_below_one_are_input_errors(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be at least 1" in captured.err


def test_exhaust_k_cops_with_a_pinned_cop_is_an_input_error(capsys):
    code, out = run(capsys, "exhaust", "--family", "cycle", "--params", "6",
                    "--fixed", "greedy_closer:0", "--k-cops", "3")
    obj = json.loads(out)
    assert code == 2
    assert obj["error"] == "input" and "k_cops" in obj["detail"]


def test_tree_trace(capsys):
    code, out = run(capsys, "tree", "--family", "path", "--params", "6", "--root", "0")
    obj = json.loads(out)
    assert obj["N"] == 2
    assert obj["placements"] == [3, 0]


def test_bounds_stalemate(capsys):
    code, out = run(capsys, "bounds", "--family", "stalemate")
    obj = json.loads(out)
    assert (obj["gamma2"], obj["cliqueCoverDom"]) == (1, 2)


def test_arena_and_exhaust(capsys):
    code, out = run(capsys, "arena", "--family", "hypercube", "--params", "3",
                    "--cop", "hypercube_mirror", "--robber", "farthest")
    assert code == 0
    assert json.loads(out)["outcome"]["kind"] == "cop_win"
    code, out = run(capsys, "exhaust", "--family", "hypercube", "--params", "3",
                    "--fixed", "hypercube_mirror")
    assert code == 0
    assert json.loads(out)["outcome"] == "wins"


def test_policy_params_parse(capsys):
    code, out = run(capsys, "exhaust", "--family", "grid", "--params", "2,6",
                    "--fixed", "grid2xn_cop:6")
    assert code == 0
    assert json.loads(out)["outcome"] == "wins"


def test_policies_listing(capsys):
    code, out = run(capsys, "policies")
    assert code == 0
    assert "hypercube_mirror" in json.loads(out)["policies"]


@pytest.mark.parametrize(
    "argv",
    [
        ["arena", "--family", "grid", "--params", "2,5",
         "--cop", "grid2xn_cop", "--robber", "farthest"],
        ["arena", "--family", "grid", "--params", "2,5",
         "--cop", "grid2xn_cop:5", "--robber", "corner_isolate:2,8"],
        ["arena", "--family", "grid", "--params", "2,5",
         "--cop", "torus_placement:5", "--robber", "farthest"],
        ["exhaust", "--family", "torus", "--params", "8,8", "--fixed", "grid_placement:8,8"],
        ["exhaust", "--family", "grid", "--params", "3,3", "--fixed", "torus_placement:3,3"],
        ["exhaust", "--family", "grid", "--params", "2,6", "--fixed", "grid2xn_cop:x"],
        ["arena", "--family", "path", "--params", "6",
         "--cop", "farthest", "--robber", "stationary"],
    ],
)
def test_bad_policy_is_input_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "input"


@pytest.mark.parametrize(
    "argv, vertex",
    [
        (["exhaust", "--family", "cycle", "--params", "6", "--fixed", "stationary:99"], 99),
        (["exhaust", "--family", "cycle", "--params", "6", "--fixed", "stationary:-1"], -1),
        (["arena", "--family", "cycle", "--params", "6",
          "--cop", "stationary:99", "--robber", "farthest"], 99),
        (["arena", "--family", "cycle", "--params", "6",
          "--cop", "stationary:-1", "--robber", "leaf_isolate"], -1),
    ],
)
def test_cop_placement_off_the_graph_is_input_error(capsys, argv, vertex):
    code, out = run(capsys, *argv)
    obj = json.loads(out)
    assert code == 2 and obj["error"] == "input"
    assert f"vertex {vertex} " in obj["detail"]


@pytest.mark.parametrize("extra", [["--max-rounds", "-1"], ["--budget", "5"]])
def test_arena_rejects_negative_rounds_and_budget(capsys, extra):
    code, out = run(capsys, "arena", "--family", "path", "--params", "4",
                    "--cop", "stationary", "--robber", "farthest", *extra)
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[0, 1.5]]}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": "3", "edges": []}',
    ],
)
def test_malformed_json_graph_is_input_error(capsys, tmp_path, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, out = run(capsys, "solve", "--graph", str(f), "--cops", "1")
    assert code == 2
    assert json.loads(out)["error"] == "input"


def test_exhaust_names_the_declined_cop_placement(capsys):
    code, out = run(capsys, "exhaust", "--family", "path", "--params", "6",
                    "--fixed", "leaf_isolate:5")
    obj = json.loads(out)
    assert code == 2 and obj["error"] == "input"
    assert "cops (3,)" in obj["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "grid", "--params", "2,5"],
        ["solve", "--family", "cycle", "--params", "6", "--cops", "1"],
        ["copnumber", "--family", "path", "--params", "6"],
        ["capture-time", "--family", "complete", "--params", "4"],
        ["tree", "--family", "path", "--params", "6"],
        ["bounds", "--family", "stalemate"],
        ["formula", "--family", "torus", "--params", "16,14"],
        ["arena", "--family", "hypercube", "--params", "3",
         "--cop", "hypercube_mirror", "--robber", "farthest"],
        ["exhaust", "--family", "hypercube", "--params", "3", "--fixed", "hypercube_mirror"],
        ["policies"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_flags_and_help_of_every_command(capsys, argv):
    code, default = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--json") == (0, default)
    code, pretty = run(capsys, *argv, "--pretty")
    assert code == 0 and pretty.endswith("\n") and pretty != default
    code, usage = run(capsys, argv[0], "--help")
    assert code == 0 and usage.startswith(f"usage: bridgeburn {argv[0]} ")
