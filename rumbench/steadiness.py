#!/usr/bin/env python3
"""Runs each workload N times on one commit and prints every metric's spread.

    python3 rumbench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--trace 0|1]
                                   [--seconds S] [--json out.json]

Run it from the root of a checkout. Each run uses its own seed. For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median. For
end-to-end metrics, setup_s included, it also prints the bound from
BENCHMARK.json and marks a spread above a third of it WIDE and one above the
bound OVER. It also prints the share of failed operations, which must read
the same on every run. Use it to set the bounds and to re-check them; the
exit status is 1 when a run failed or a spread is OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--json", help="also write every run's result here")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            line = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(line[0]) if proc.returncode == 0 else None
            if result is None or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                status = 1
                continue
            results.append(result)
        everything[workload] = results
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share "
              f"{'/'.join(f'{s:g}' for s in sorted(shares))}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER"
                status = 1
            elif bound is not None and spread > bound / 3:
                flag = "  WIDE"
            print(f"  {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
