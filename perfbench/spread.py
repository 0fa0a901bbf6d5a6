#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload native-service --seeds 1-10 [--seconds 20]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds_of(a.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        vals = " ".join(f"{n}={m['value']:.6g}"
                        for n, m in res["metrics"].items())
        print(f"seed {seed}: exit {out.returncode} correct {res['correct']} "
              f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = 0.0
        bound = bounds[name]
        print(f"{name:34s} median {med:<14.6g} spread {spread:.3f} "
              f"bound {bound:.2f} (1/3: {bound / 3:.3f})")


if __name__ == "__main__":
    main()
