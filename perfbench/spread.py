#!/usr/bin/env python3
"""Runs the benchmark once per seed on each named workload and prints, for
every end-to-end metric, its median and its spread: the distance between
the first and third quartiles as a share of the median, beside the bound
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --runs 10 serve_rollover backtest_table1

Run it from the repository root. Output per run goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stderr.write(out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
            print(f"{workload:16} {name:26} median {med:14.4f} spread {spread:7.4f} bound {bound}{flag}")
            print(f"{'':16} {'':26} runs {' '.join(f'{v:.4g}' for v in vs)}")
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
