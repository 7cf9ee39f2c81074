#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

    python3 perfbench/spread.py --workload sim-o --runs 10 [--seconds 20] [--trace 0]

Run from the repository root. Run i uses seed first_seed+i. For every metric
it prints the median, the quartiles (statistics.quantiles, n=4), the range,
and the distance between the quartiles as a share of the median, and with
--json writes the raw values too.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write the raw values to this file")
    a = ap.parse_args()

    values = {}
    units = {}
    for i in range(a.runs):
        seed = a.first_seed + i
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}" for n, m in sorted(res["metrics"].items())),
              file=sys.stderr, flush=True)

    print(f"{a.workload}: {a.runs} runs of {a.seconds} s, trace={a.trace}")
    print(f"{'metric':32} {'unit':8} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'iqr/med':>8}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:8} {med:11.5g} {q1:11.5g} {q3:11.5g} {min(v):11.5g} {max(v):11.5g} {spread:8.3f}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "seconds": a.seconds, "trace": a.trace,
                       "units": units, "values": values}, f, indent=1)


if __name__ == "__main__":
    main()
