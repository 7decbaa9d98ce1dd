"""Per-layer tracing from outside the library.

The tracer replaces library callables, as their callers look them up, with
timing wrappers, and puts the originals back afterwards; no library file
changes.  Coarse boundaries (instance, cop_wins_with_k, capture_time_bb,
solve_position, expand_to, run_attractor, exhaust_vs_policy) record spans
of (name, label, start, end, parent).  Hot per-state calls only add to call
counts and times, so a traced pass never stores millions of records.

A wrapper's self time is its duration minus the time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()  # totals taken from results
        self.spans: list[list] = []  # [name, label, start, end, parent index]
        self._stack: list[list] = []  # per open timed call: [child seconds, span index]
        self._undo: list[tuple] = []

    def timed(self, name: str, fn, span: bool = False, result_count=None):
        """Wrap fn; result_count(counts, result) may add totals from its result."""
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = stack[-1][1] if stack else None
            if span:
                spans.append([name, None, 0.0, 0.0, sid])
                sid = len(spans) - 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                seconds[name] += dt
                self_seconds[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    spans[sid][2:4] = t0, t0 + dt
            if result_count is not None:
                result_count(counts, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str, label: str):
        """A span around code the benchmark runs itself, such as one instance."""
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append([name, label, 0.0, 0.0, parent])
        sid = len(self.spans) - 1
        self._stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2:4] = t0, time.perf_counter()

    def patch(self, owner, attr: str, wrapper_of) -> None:
        """Replace owner.attr (module, class or instance) by wrapper_of(original)."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper_of(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"name": n, "label": lab, "start": s - origin, "end": e - origin, "parent": p}
            for n, lab, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")


def install(tracer: Tracer, bb, ops) -> None:
    """Wrap each layer's entry points as the calling module sees them."""
    t = tracer

    def span(name, count=None):
        return lambda fn: t.timed(name, fn, span=True, result_count=count)

    def hot(name, count=None):
        return lambda fn: t.timed(name, fn, result_count=count)

    def states(counts, result):
        counts["solver.states"] += result.explored_states

    def successors(counts, result):
        counts["engine.successors.out"] += len(result)

    def nodes(counts, verdict):
        counts["arena.nodes"] += verdict.nodes_searched

    solver, space = bb.solver, bb.solver._GameSpace
    t.patch(solver, "capture_time_bb", span("solver.capture_time_bb"))
    t.patch(solver, "cop_wins_with_k", span("solver.cop_wins_with_k", states))
    t.patch(solver, "_evaluate_placement", lambda fn: t.counted("solver.placements", fn))
    t.patch(solver, "solve_position", span("solver.solve_position"))
    t.patch(space, "expand_to", span("solver.expand"))
    t.patch(space, "run_attractor", span("solver.attractor"))
    t.patch(solver, "cop_successors", hot("engine.cop_successors", successors))
    t.patch(solver, "robber_successors", hot("engine.robber_successors", successors))
    original = bb.graph.component_bitmask
    for module in bb.modules():
        if module.__dict__.get("component_bitmask") is original:
            t.patch(module, "component_bitmask", hot("graph.component_bitmask"))
    t.patch(bb.graph.Graph, "has_edge", hot("graph.has_edge"))
    t.patch(bb.graph.Graph, "edge_id", hot("graph.edge_id"))
    t.patch(bb.arena, "exhaust_vs_policy", span("arena.exhaust_vs_policy", nodes))
    t.patch(bb.arena, "robber_component_check", hot("arena.robber_component_check"))
    for op in ops:
        if op.policy is not None:
            t.patch(op.policy, "choose", hot("strategies.choose"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, secs, own, counts = t.calls, t.seconds, t.self_seconds, t.counts
    solves = calls["solver.solve_position"]
    out = {
        "solver.cop_wins_with_k.self_s": (own["solver.cop_wins_with_k"], "s"),
        "solver.solve_position.calls": (solves, "count"),
        "solver.starts_per_placement": (_ratio(solves, calls["solver.placements"]), "ratio"),
        "solver.expand.self_s": (own["solver.expand"], "s"),
        "solver.expand.calls": (calls["solver.expand"], "count"),
        "solver.states": (counts["solver.states"], "count"),
        "solver.attractor.s": (secs["solver.attractor"], "s"),
        "solver.attractor.calls": (calls["solver.attractor"], "count"),
        "solver.stages_per_solve": (_ratio(calls["solver.attractor"], solves), "ratio"),
    }
    for name in ("engine.cop_successors", "engine.robber_successors"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (secs[name], "s")
    out["engine.successors.out"] = (counts["engine.successors.out"], "count")
    out["graph.component_bitmask.calls"] = (calls["graph.component_bitmask"], "count")
    out["graph.component_bitmask.s"] = (secs["graph.component_bitmask"], "s")
    out["graph.component.miss_ratio"] = (
        _ratio(calls["graph.component_bitmask"], counts["solver.states"]),
        "ratio",
    )
    for name in ("graph.has_edge", "graph.edge_id"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (secs[name], "s")
    out["arena.exhaust_vs_policy.self_s"] = (own["arena.exhaust_vs_policy"], "s")
    out["arena.nodes"] = (counts["arena.nodes"], "count")
    out["arena.robber_component_check.calls"] = (calls["arena.robber_component_check"], "count")
    out["arena.robber_component_check.s"] = (secs["arena.robber_component_check"], "s")
    out["strategies.choose.calls"] = (calls["strategies.choose"], "count")
    out["strategies.choose.s"] = (secs["strategies.choose"], "s")
    return {name: (float(v) if unit != "count" else v, unit) for name, (v, unit) in out.items()}
