#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on each workload and
prints, per end-to-end metric, the median and the quartile spread (the
distance between the first and third quartile as a share of the median),
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads sweep_cold,...] [--out FILE]

Run from the repository root. A metric is steady when its spread is below
a third of its bound; setup_s is held to the same rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", help="append every run's result as JSON")
    args = parser.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        **result}) + "\n")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs, seeds %d..%d)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            spread = stats.quartile_spread(values[name])
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            print("  %-18s median %12.4f %-4s spread %6.3f  bound %.2f %s" % (
                name, statistics.median(values[name]), metric["unit"],
                spread, metric["bound"], "" if ok else "NOT STEADY"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
