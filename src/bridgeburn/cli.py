"""Command-line interface.

Commands: generate, solve, copnumber, capture-time, tree, bounds, formula,
arena, exhaust.  Output is JSON by default (one schema per command, keys
stable, newline-terminated); --pretty switches to human-readable text.

Exit codes: 0 success, 1 game/domain error, 2 input error, 3 explored-state
budget exceeded.  `exploredStates` and `--budget` count the states of the
solver's quotient game space (see `bridgeburn.solver`), not raw game states.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import graph as graph_mod
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


class _InputError(Exception):
    pass


def _load_graph(args) -> Graph:
    if getattr(args, "graph", None):
        try:
            text = open(args.graph).read()
        except OSError as e:
            raise _InputError(f"cannot read {args.graph}: {e}")
        stripped = text.lstrip()
        try:
            if stripped.startswith("{"):
                return graph_mod.from_json_dict(json.loads(text))
            return graph_mod.from_edge_list_text(text)
        except (GraphError, ValueError, KeyError) as e:
            raise _InputError(f"bad graph file: {e}")
    if getattr(args, "family", None):
        return generate(_family_spec(args))
    raise _InputError("need --graph FILE or --family NAME [--params a,b]")


def _family_spec(args) -> FamilySpec:
    params = []
    if args.params:
        try:
            params = [int(x) for x in args.params.split(",") if x != ""]
        except ValueError:
            raise _InputError(f"bad --params {args.params!r}")
    return FamilySpec(args.family, tuple(params))


def positive_int(text: str) -> int:
    """argparse type of every count and budget: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(args, obj: dict, pretty_lines=None) -> None:
    if getattr(args, "pretty", False) and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _add_common(p, family=True, budget=False):
    p.add_argument("--graph", help="edge-list or JSON graph file (auto-detected)")
    if family:
        p.add_argument("--family", help="named family (path, cycle, grid, ...)")
        p.add_argument("--params", default="", help="comma-separated family parameters")
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    if budget:
        p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET,
                       help="explored-state cap, in quotient states (default 10^7)")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bridgeburn",
                                 description="bridge-burning Cops and Robbers toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a named family member")
    _add_common(p)

    p = sub.add_parser("solve", help="decide the game for k cops")
    _add_common(p, budget=True)
    p.add_argument("--cops", type=positive_int, required=True)
    p.add_argument("--variant", choices=["bb", "classic"], default="bb")

    p = sub.add_parser("copnumber", help="least k cops that win")
    _add_common(p, budget=True)
    p.add_argument("--max-k", type=positive_int, default=8)
    p.add_argument("--variant", choices=["bb", "classic"], default="bb")

    p = sub.add_parser("capture-time", help="capt_b for a c_b = 1 graph")
    _add_common(p, budget=True)

    p = sub.add_parser("tree", help="tree cop number with guarding trace")
    _add_common(p)
    p.add_argument("--root", type=int, default=0)

    p = sub.add_parser("bounds", help="domination-style parameters")
    _add_common(p)

    p = sub.add_parser("formula", help="closed-form value/bounds for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("arena", help="run one policy-vs-policy match")
    _add_common(p)
    p.add_argument("--cop", required=True, help="cop policy NAME[:p1,p2,...]")
    p.add_argument("--robber", required=True, help="robber policy NAME[:p1,p2,...]")
    p.add_argument("--max-rounds", type=int, default=None)

    p = sub.add_parser("exhaust", help="validate one policy against all play")
    _add_common(p, budget=True)
    p.add_argument("--fixed", required=True, help="pinned policy NAME[:p1,p2,...]")
    p.add_argument("--k-cops", type=positive_int, default=1,
                   help="free-side cop count when the robber is pinned")

    p = sub.add_parser("policies", help="list policy names")
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    return ap


def _parse_policy(text: str, g: Graph):
    name, _, raw = text.partition(":")
    params = [x for x in raw.split(",") if x != ""] if raw else []
    return make_policy(name, g, params)


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except BudgetExceeded as e:
        sys.stdout.write(json.dumps({"error": "budget-exceeded", "explored": e.explored}) + "\n")
        return EXIT_BUDGET
    except (CaptureTimeDomainError, DisconnectedGraphError) as e:
        sys.stdout.write(json.dumps({"error": "domain", "detail": str(e)}) + "\n")
        return EXIT_DOMAIN
    except (_InputError, FamilySpecError, GraphError, NotATreeError,
            PolicyApplicabilityError, bounds_mod.BoundsBudgetError, ValueError) as e:
        sys.stdout.write(json.dumps({"error": "input", "detail": str(e)}) + "\n")
        return EXIT_INPUT


def _run(args) -> int:
    cmd = args.command

    if cmd == "generate":
        g = _load_graph(args)
        _emit(args, graph_mod.to_json_dict(g),
              pretty_lines=[graph_mod.to_edge_list_text(g).rstrip("\n")])
        return EXIT_OK

    if cmd == "solve":
        g = _load_graph(args)
        variant = BRIDGE_BURNING if args.variant == "bb" else CLASSIC
        res = cop_wins_with_k(g, args.cops, variant, args.budget)
        _emit(args, res.to_json_dict(), pretty_lines=[
            f"winner: {res.winner} (k={res.k})",
            f"placement: {res.optimal_placement}",
            f"capture time (rounds): {res.capture_time_rounds}",
            f"explored states: {res.explored_states}",
        ])
        return EXIT_OK

    if cmd == "copnumber":
        g = _load_graph(args)
        variant = BRIDGE_BURNING if args.variant == "bb" else CLASSIC
        res = bridge_burning_cop_number(g, args.max_k, variant, args.budget)
        obj = {"cb": res.value, "maxK": res.k_max, "exploredStates": res.explored_states}
        if res.exceeded:
            obj["exceeds"] = res.k_max
        _emit(args, obj, pretty_lines=[
            f"cop number: {res.value if res.value is not None else f'> {res.k_max}'}"
        ])
        return EXIT_OK

    if cmd == "capture-time":
        g = _load_graph(args)
        res = capture_time_bb(g, args.budget)
        _emit(args, {"captureTimeRounds": res.capture_time_rounds,
                     "placement": list(res.optimal_placement or ()),
                     "exploredStates": res.explored_states},
              pretty_lines=[f"capt_b: {res.capture_time_rounds} rounds"])
        return EXIT_OK

    if cmd == "tree":
        g = _load_graph(args)
        rep = tree_cop_number(g, args.root)
        _emit(args, rep.to_json_dict(), pretty_lines=[
            f"N = {rep.N} (root {rep.root})",
            f"placements: {list(rep.placements)}",
        ])
        return EXIT_OK

    if cmd == "bounds":
        g = _load_graph(args)
        rep = bounds_mod.domination_numbers(g)
        _emit(args, rep.to_json_dict(), pretty_lines=[
            f"gamma = {rep.gamma}, gamma2 = {rep.gamma2}, cliqueCoverDom = {rep.clique_cover_dom}"
        ])
        return EXIT_OK

    if cmd == "formula":
        spec = _family_spec(args)
        res = bounds_mod.family_formula(spec)
        _emit(args, res.to_json_dict(), pretty_lines=[
            f"{spec}: exact={res.exact} lower={res.lower} upper={res.upper}"
        ])
        return EXIT_OK

    if cmd == "arena":
        from .arena import run_match

        g = _load_graph(args)
        cop = _parse_policy(args.cop, g)
        robber = _parse_policy(args.robber, g)
        tr = run_match(g, cop, robber, args.max_rounds)
        _emit(args, tr.to_json_dict(), pretty_lines=[
            f"outcome: {tr.outcome.kind} (round {tr.outcome.round})"
        ])
        return EXIT_OK

    if cmd == "exhaust":
        from .arena import exhaust_vs_policy

        g = _load_graph(args)
        fixed = _parse_policy(args.fixed, g)
        verdict = exhaust_vs_policy(g, fixed, k_cops=args.k_cops, budget=args.budget)
        _emit(args, verdict.to_json_dict(), pretty_lines=[
            f"{fixed.name}: {verdict.outcome} ({verdict.nodes_searched} nodes)"
        ])
        return EXIT_OK

    if cmd == "policies":
        _emit(args, {"policies": policy_names()}, pretty_lines=policy_names())
        return EXIT_OK

    raise _InputError(f"unknown command {cmd}")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
