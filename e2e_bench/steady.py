#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, each with another seed,
and prints every metric's median, quartiles and spread against its bound
in BENCHMARK.json.

Run from the repository root:

    python3 e2e_bench/steady.py                      # 10 runs, all workloads
    python3 e2e_bench/steady.py --runs 5 --workload lattice --seconds 10

The spread is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). Every end-to-end metric is judged: "ok"
when its spread is below a third of its bound, "WITHIN BOUND" up to the
bound, "UNSTEADY" beyond it (the exit code is then 1). The share of failed
operations must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(REPO_DIR, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for w in workloads:
        results = [run_once(w, args.seed_base + i, args.seconds)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {w}: {args.runs} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        steady = steady and correct and len(shares) == 1
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            steady = steady and spread <= bound
            verdict = "ok" if spread < bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "UNSTEADY")
            print(f"  {name:40s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.2%}  "
                  f"bound {bound}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
