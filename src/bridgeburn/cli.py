"""Command-line interface.

Commands: generate, solve, copnumber, capture-time, tree, bounds, formula,
arena, exhaust, policies.  Output is JSON by default (one schema per
command, keys stable, newline-terminated); --pretty switches to
human-readable text.

Each command is one function from the parsed args to (JSON object, pretty
lines), registered on its subparser with set_defaults(run=...); the flags
several commands share are declared once, as parent parsers.  `dispatch`
alone writes stdout and maps an exception to an exit code.

Exit codes: 0 success, 1 game/domain error, 2 input error, 3 explored-state
budget exceeded.  `exploredStates` and `--budget` count the states of the
solver's quotient game spaces, one space per orbit of robber starts under
the graph's automorphisms (see `bridgeburn.solver`), not raw game states.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import graph as graph_mod
from .arena import exhaust_vs_policy, run_match
from .engine import BRIDGE_BURNING, CLASSIC
from .families import FamilySpec, FamilySpecError, generate
from .graph import Graph, GraphError
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CaptureTimeDomainError,
    DisconnectedGraphError,
    bridge_burning_cop_number,
    capture_time_bb,
    cop_wins_with_k,
)
from .strategies import PolicyApplicabilityError, make_policy, policy_names
from .trees import NotATreeError, tree_cop_number

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

VARIANTS = {"bb": BRIDGE_BURNING, "classic": CLASSIC}


class _InputError(Exception):
    pass


def _load_graph(args) -> Graph:
    if args.graph:
        try:
            with open(args.graph) as f:
                text = f.read()
        except OSError as e:
            raise _InputError(f"cannot read {args.graph}: {e}")
        try:
            if text.lstrip().startswith("{"):
                return graph_mod.from_json_dict(json.loads(text))
            return graph_mod.from_edge_list_text(text)
        except (GraphError, ValueError, KeyError) as e:
            raise _InputError(f"bad graph file: {e}")
    if args.family:
        return generate(_family_spec(args))
    raise _InputError("need --graph FILE or --family NAME [--params a,b]")


def _family_spec(args) -> FamilySpec:
    try:
        params = [int(x) for x in args.params.split(",") if x != ""]
    except ValueError:
        raise _InputError(f"bad --params {args.params!r}")
    return FamilySpec(args.family, tuple(params))


def _parse_policy(text: str, g: Graph):
    name, _, raw = text.partition(":")
    return make_policy(name, g, [x for x in raw.split(",") if x != ""])


def positive_int(text: str) -> int:
    """argparse type of every count and budget: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# --- commands: parsed args -> (JSON object, pretty lines) ---------------------


def _generate(args):
    g = _load_graph(args)
    return graph_mod.to_json_dict(g), [graph_mod.to_edge_list_text(g).rstrip("\n")]


def _solve(args):
    res = cop_wins_with_k(_load_graph(args), args.cops, VARIANTS[args.variant], args.budget)
    return res.to_json_dict(), [
        f"winner: {res.winner} (k={res.k})",
        f"placement: {res.optimal_placement}",
        f"capture time (rounds): {res.capture_time_rounds}",
        f"explored states: {res.explored_states}",
    ]


def _copnumber(args):
    res = bridge_burning_cop_number(
        _load_graph(args), args.max_k, VARIANTS[args.variant], args.budget)
    obj = {"cb": res.value, "maxK": res.k_max, "exploredStates": res.explored_states}
    if res.exceeded:
        obj["exceeds"] = res.k_max
    return obj, [f"cop number: {res.value if res.value is not None else f'> {res.k_max}'}"]


def _capture_time(args):
    res = capture_time_bb(_load_graph(args), args.budget)
    obj = {"captureTimeRounds": res.capture_time_rounds,
           "placement": list(res.optimal_placement or ()),
           "exploredStates": res.explored_states}
    return obj, [f"capt_b: {res.capture_time_rounds} rounds"]


def _tree(args):
    rep = tree_cop_number(_load_graph(args), args.root)
    return rep.to_json_dict(), [f"N = {rep.N} (root {rep.root})",
                                f"placements: {list(rep.placements)}"]


def _bounds(args):
    rep = bounds_mod.domination_numbers(_load_graph(args))
    return rep.to_json_dict(), [
        f"gamma = {rep.gamma}, gamma2 = {rep.gamma2}, cliqueCoverDom = {rep.clique_cover_dom}"]


def _formula(args):
    spec = _family_spec(args)
    res = bounds_mod.family_formula(spec)
    return res.to_json_dict(), [f"{spec}: exact={res.exact} lower={res.lower} upper={res.upper}"]


def _arena(args):
    g = _load_graph(args)
    tr = run_match(g, _parse_policy(args.cop, g), _parse_policy(args.robber, g), args.max_rounds)
    return tr.to_json_dict(), [f"outcome: {tr.outcome.kind} (round {tr.outcome.round})"]


def _exhaust(args):
    g = _load_graph(args)
    fixed = _parse_policy(args.fixed, g)
    verdict = exhaust_vs_policy(g, fixed, k_cops=args.k_cops, budget=args.budget)
    return verdict.to_json_dict(), [
        f"{fixed.name}: {verdict.outcome} ({verdict.nodes_searched} nodes)"]


def _policies(args):
    return {"policies": policy_names()}, policy_names()


def _family_flags(required: bool) -> argparse.ArgumentParser:
    """--family/--params: required by formula, optional beside --graph."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", required=required, help="named family (path, cycle, grid, ...)")
    p.add_argument("--params", default="", help="comma-separated family parameters")
    return p


def _parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="JSON output (default)")
    output.add_argument("--pretty", action="store_true", help="human-readable output")
    source = argparse.ArgumentParser(add_help=False, parents=[_family_flags(required=False)])
    source.add_argument("--graph", help="edge-list or JSON graph file (auto-detected)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET,
                        help="explored-state cap, in quotient states (default 10^7)")
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--variant", choices=list(VARIANTS), default="bb")

    ap = argparse.ArgumentParser(prog="bridgeburn",
                                 description="bridge-burning Cops and Robbers toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, output])
        p.set_defaults(run=run)
        return p

    command("generate", _generate, "emit a named family member", source)
    p = command("solve", _solve, "decide the game for k cops", source, budget, variant)
    p.add_argument("--cops", type=positive_int, required=True)
    p = command("copnumber", _copnumber, "least k cops that win", source, budget, variant)
    p.add_argument("--max-k", type=positive_int, default=8)
    command("capture-time", _capture_time, "capt_b for a c_b = 1 graph", source, budget)
    p = command("tree", _tree, "tree cop number with guarding trace", source)
    p.add_argument("--root", type=int, default=0)
    command("bounds", _bounds, "domination-style parameters", source)
    command("formula", _formula, "closed-form value/bounds for a family",
            _family_flags(required=True))
    p = command("arena", _arena, "run one policy-vs-policy match", source)
    p.add_argument("--cop", required=True, help="cop policy NAME[:p1,p2,...]")
    p.add_argument("--robber", required=True, help="robber policy NAME[:p1,p2,...]")
    p.add_argument("--max-rounds", type=int, default=None)
    p = command("exhaust", _exhaust, "validate one policy against all play", source, budget)
    p.add_argument("--fixed", required=True, help="pinned policy NAME[:p1,p2,...]")
    p.add_argument("--k-cops", type=positive_int, default=1,
                   help="free-side cop count when the robber is pinned")
    command("policies", _policies, "list policy names")
    return ap


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        obj, lines = args.run(args)
    except BudgetExceeded as e:
        code, error = EXIT_BUDGET, {"error": "budget-exceeded", "explored": e.explored}
    except (CaptureTimeDomainError, DisconnectedGraphError) as e:
        code, error = EXIT_DOMAIN, {"error": "domain", "detail": str(e)}
    except (_InputError, FamilySpecError, GraphError, NotATreeError,
            PolicyApplicabilityError, bounds_mod.BoundsBudgetError, ValueError) as e:
        code, error = EXIT_INPUT, {"error": "input", "detail": str(e)}
    else:
        if args.pretty:
            sys.stdout.write("".join(line + "\n" for line in lines))
        else:
            sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
        return EXIT_OK
    sys.stdout.write(json.dumps(error) + "\n")  # unsorted: "error" stays the first key
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
