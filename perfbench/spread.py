#!/usr/bin/env python3
"""Run one workload at several seeds and print each metric's median and
spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload W [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for i in range(a.runs):
        seed = a.seed0 + i
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              a.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(a.trace)], capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last)
        print(f"seed {seed}: exit={out.returncode} correct={res.get('correct')} "
              f"failed={res.get('failed')}", flush=True)
        for k, v in res.get("metrics", {}).items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':44} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(k)
        print(f"{k:44} {med:14.4f} {spread:10.4f} {b if b is not None else '':>6}")


if __name__ == "__main__":
    main()
