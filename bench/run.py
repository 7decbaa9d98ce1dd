"""Benchmark of the bridgeburn solver toolkit.

Run from the repository root:

    python3 bench/run.py --workload solve-copwin --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One run builds the workload's inputs from the seed (the set-up, repeated
and reported as a median), then repeats whole passes over the workload for
about --seconds, one process, threads=1.  Every answer is checked.  Times
are corrected for the host's speed (hostspeed.py).  It prints one line per
pass and operation, the metrics with their units, and as its last line a
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports per-layer metrics from the first traced pass plus the
tracing overhead, and writes that pass's spans to .bench_out/.  "--workload
all" runs each workload in its own process and prefixes its metric names
with the workload's.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bridgeburn" / "__init__.py").is_file():
        print(f"error: no bridgeburn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args)


def set_up(workload: str, seed: int):
    """Fresh import of bridgeburn, then every input and expected answer.

    Returns (modules, operations, probe, set-up seconds, corrected seconds),
    the times being medians over SETUP_REPEATS set-ups."""
    walls, nets = [], []
    with HostSpeed() as hs:
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules if m == "bridgeburn" or m.startswith("bridgeburn.")]:
                del sys.modules[name]
            mark, t0 = hs.mark(), time.perf_counter()
            bb, ops, probe = workloads.build(workload, seed)
            walls.append(time.perf_counter() - t0)
            nets.append(hs.net(walls[-1], mark))
    corrected = [hs.corrected(n) for n in nets]
    return bb, ops, probe, statistics.median(walls), statistics.median(corrected)


def run_pass(ops, tracer=None):
    """Run every operation once; returns (seconds, results or exceptions)."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            if tracer is None:
                results.append(op.run())
            else:
                with tracer.span("instance", op.name):
                    results.append(op.run())
        except Exception as e:  # a failed operation, counted, not fatal
            results.append(e)
    return time.perf_counter() - t0, results


def sampled_pass(ops):
    """An untraced pass under the host-speed sampler: (wall, net, corrected, results)."""
    gc.collect()
    with HostSpeed() as hs:
        wall, results = run_pass(ops)
    net = hs.net(wall, 0)
    return wall, net, hs.corrected(net), results


def traced_pass(ops, bb):
    """A pass with every layer wrapped: (wall, per-layer metrics, tracer, results)."""
    gc.collect()
    tracer = tracing.Tracer()
    tracing.install(tracer, bb, ops)
    try:
        wall, results = run_pass(ops, tracer)
    finally:
        tracer.restore()
    return wall, tracing.layer_metrics(tracer), tracer, results


def judge(op, result) -> tuple[str | None, bool]:
    """(what was wrong or None, whether the operation or its check raised)."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}", True
    try:
        return op.check(result), False
    except Exception as e:
        return f"check raised {type(e).__name__}: {e}", True


def describe(result) -> str:
    if isinstance(result, Exception):
        return type(result).__name__
    if hasattr(result, "explored_states"):
        rounds = f" in {result.capture_time_rounds} rounds" if result.capture_time_rounds else ""
        return f"{result.winner} wins{rounds}, {result.explored_states} states"
    return f"{result.outcome}, {result.nodes_searched} nodes"


def counts_of(layer: dict) -> dict:
    return {k: v for k, (v, unit) in layer.items() if unit != "s"}


def run_workload(args) -> int:
    bb, ops, probe, setup_wall, setup_s = set_up(args.workload, args.seed)
    if not Path(bb.solver.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bridgeburn was imported from {bb.solver.__file__}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(probe)} untimed probes, threads=1")
    print(f"set-up: median {setup_wall:.4f} s wall, {setup_s:.4f} s corrected")

    walls, nets, corrected, traced, layers = [], [], [], [], []
    problems: dict[int, str] = {}
    attempted = failed = 0
    first_tracer = None
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, net, fixed, results = sampled_pass(ops)
        walls.append(wall)
        nets.append(net)
        corrected.append(fixed)
        print(f"pass {len(walls)}: wall {wall:.4f} s, corrected {fixed:.4f} s")
        outcomes = [results]
        if args.trace:
            wall, layer, tracer, results = traced_pass(ops, bb)
            traced.append(wall)
            layers.append(layer)
            first_tracer = first_tracer or tracer
            print(f"pass {len(walls)} traced: wall {wall:.4f} s")
            outcomes.append(results)
        for results in outcomes:
            for i, (op, result) in enumerate(zip(ops, results)):
                attempted += 1
                msg, _ = judge(op, result)
                if msg is not None:
                    failed += 1
                    problems.setdefault(i, msg)
        step = statistics.median(walls) + (statistics.median(traced) if args.trace else 0)
        if time.perf_counter() + step > deadline:
            break

    for i, (op, result) in enumerate(zip(ops, results)):
        print(f"{'FAILED' if i in problems else 'ok'} {op.name}: "
              f"{problems.get(i) or describe(result)}")
    probe_failed, probe_broken = 0, False
    for op in probe:  # untimed: its failures count in ops_ok_frac, not in wall_s
        _, (result,) = run_pass([op])
        msg, broken = judge(op, result)
        probe_failed += msg is not None
        probe_broken |= broken
        print(f"probe {'FAILED' if msg else 'ok'} {op.name} (expected: wins): {msg or describe(result)}")

    # Per-layer counts repeat exactly between traced passes of one run.
    repeat = all(counts_of(layer) == counts_of(layers[0]) for layer in layers)
    if not repeat:
        print("FAILED per-layer counts differ between traced passes")

    print(f"untraced passes: {len(walls)}, wall median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    if args.trace:
        metrics = dict(layers[0])
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(nets) - 1, "ratio")
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        first_tracer.write_spans(spans)
        print(f"spans of the first traced pass: {spans.relative_to(ROOT)}")
    else:
        total = len(ops) + len(probe)
        metrics = {
            "wall_s": (statistics.median(corrected), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (setup_s, "s"),
            "ops_ok_frac": ((total - len(problems) - probe_failed) / total, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not probe_broken and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
