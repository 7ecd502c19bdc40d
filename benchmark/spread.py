#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed, and
report each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median), next to its bound from
BENCHMARK.json.

    python3 benchmark/spread.py [--runs 10] [--seed-base 100]
                                [--workloads pop-scale,full-mix,serve-warm]
                                [--out benchmark/baseline.json]

With --out the table is also written as JSON, stamped with the git revision
(when the checkout is a git repository) and the host's core count. Run from
the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs differ from the pins")
    return {name: m["value"] for name, m in result["metrics"].items()}


def revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed_base + i, bench["run_seconds"]) for i in range(args.runs)]
        table[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            table[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                     "spread": spread, "bound": bound, "values": values}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:<11} {name:<17} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:6.2%} bound {bound:.0%}{flag}", flush=True)
    if args.out:
        record = {"revision": revision(), "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
                  "seeds": [args.seed_base, args.seed_base + args.runs - 1], "workloads": table}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
