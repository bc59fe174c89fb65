#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload once per
seed and prints, per metric, the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.

    python3 direbench/spread.py --workload ivm_churn --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--seconds", default=None, help="defaults to BENCHMARK.json run_seconds")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        run = subprocess.run(spec["command"] + ["--workload", args.workload, "--seed", seed,
                                                "--seconds", seconds, "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    worst = 0.0
    print(f"{'metric':26} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else (" >1/3 bound" if spread <= m["bound"] else " >BOUND")
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:26} {med:12.6g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
