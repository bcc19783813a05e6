#!/usr/bin/env python3
"""Rerun every workload of the end-to-end benchmark and report, for each
end-to-end metric, its median, quartiles and run-to-run spread against the
bound in BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/spread.py                 # 10 seeds per workload
    python3 e2ebench/spread.py --runs 5 --workloads api_get_1k
    python3 e2ebench/spread.py --traced 3      # also report tracing overhead

The spread is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). setup_s is reported but not held to
its bound, which limits how much worse its median may get between
commits rather than its spread. The failed-operation share must be the
same in every run of a workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit("run failed (exit %d): %s\n%s" % (p.returncode, " ".join(args), p.stderr[-2000:]))
    acct = next((l for l in p.stderr.splitlines() if "accounting" in l), "")
    return json.loads(p.stdout.strip().splitlines()[-1]), acct


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload for the tracing overhead")
    a = ap.parse_args()
    if a.runs < 2:
        sys.exit("--runs must be at least 2 to give quartiles")

    steady = True
    for w in a.workloads:
        results = []
        for i in range(a.runs):
            seed = a.first_seed + i
            res, acct = run_once(bench["command"], w, seed, a.seconds, 0)
            results.append(res)
            print("%s seed=%d correct=%s attempted=%d failed=%d" % (
                w, seed, res["correct"], res["attempted"], res["failed"]), flush=True)
            if res["failed"]:
                print("   ", acct)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n%s: failed share %s, correct in %d/%d runs" % (
            w, "same in every run" if len(shares) == 1 else "DIFFERS: %s" % sorted(shares),
            sum(r["correct"] for r in results), len(results)))
        steady &= len(shares) == 1 and all(r["correct"] for r in results)
        print("  %-20s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        medians = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            medians[m["name"]] = med
            held = m["name"] == "setup_s" or sp <= m["bound"] / 3
            steady &= held
            print("  %-20s %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %s" % (
                m["name"], med, q1, q3, 100 * sp, 100 * m["bound"],
                "" if held else "<- above a third of the bound"))
        if a.traced:
            traced = [run_once(bench["command"], w, a.first_seed + i, a.seconds, 1)[0]
                      for i in range(a.traced)]
            def tmed(name):
                return statistics.median(r["metrics"][name]["value"] for r in traced)
            print("  tracing overhead (median of %d traced runs against the untraced median):" % a.traced)
            for traced_name, plain, scale in (
                    ("traced.latency_p50_us", "latency_p50_ms", 1e3),
                    ("traced.cpu_us_per_op", "cpu_us_per_op", 1),
                    ("traced.allocs_per_op", "allocs_per_op", 1)):
                base = medians[plain] * scale
                print("    %-22s traced %10.4g  untraced %10.4g  overhead %+6.1f%%" % (
                    plain, tmed(traced_name), base, 100 * (tmed(traced_name) / base - 1)))
        print(flush=True)
    print("all spreads below a third of their bounds" if steady else "NOT STEADY: see the marked rows")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
