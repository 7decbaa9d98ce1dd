"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench/baseline/e2e-set1.json

Each (workload, seed) is one `run.py` process, run one after another.  For
every metric the summary gives the median and the quartiles of its values
over the seeds (`statistics.quantiles(values, n=4)`), and their distance
as a share of the median.  Untraced runs also keep every pass's wall and
corrected time.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
PASS = re.compile(r"pass \d+: wall ([\d.]+) s, corrected ([\d.]+) s")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
            result = json.loads(lines[-1])
            result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
            passes = [m for m in map(PASS.match, lines) if m]
            result["pass_wall_s"] = [float(m[1]) for m in passes]
            result["pass_corrected_s"] = [float(m[2]) for m in passes]
            runs[seed] = result
            print(workload, seed, json.dumps(result), flush=True)
        names = runs[args.seeds[0]]["metrics"]
        report["workloads"][workload] = {
            "runs": runs,
            "summary": {n: summarise([r["metrics"][n] for r in runs.values()]) for n in names},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
