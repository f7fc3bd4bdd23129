#!/usr/bin/env python3
"""Noise study: the driver's acceptance test, run by hand.

Runs the benchmark RUNS times on each workload, each time with another seed,
in SETS sets. One workload's runs are consecutive and the sets alternate (set
0 run 0, set 1 run 0, set 0 run 1, ...), so both sets see the same stretch of
machine time. Prints for every workload x end-to-end metric each set's median,
its quartile spread (Q3-Q1 of statistics.quantiles(n=4) over the median) and
how much worse the last set's median is than the first's, next to the metric's
bound from BENCHMARK.json. The tables in NOISE.md are this script's output.

    python3 bench/noise.py [--runs 10] [--sets 2] [--out runs.jsonl]

Run it from the root of the checkout, on an otherwise idle machine.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default="", help="also append every run's result line to this file")
    ap.add_argument("--load", default="", help="tabulate an earlier --out file instead of running")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    if args.load:
        rows = [json.loads(line) for line in open(args.load)]
    else:
        rows = run_all(bench, args)
    tabulate(bench, rows)


def run_all(bench, args):
    rows = []
    for w in bench["workloads"]:
        for run in range(args.runs):
            for s in range(args.sets):
                seed = 1000 * (s + 1) + run
                cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                # The run's own line on standard error says how many stalled attempts it retried.
                stalled = int(re.search(r"stalled attempts retried (\d+)", out.stderr).group(1))
                row = {"set": s, "workload": w["name"], "seed": seed, "stalled": stalled,
                       **json.loads(out.stdout.splitlines()[-1])}
                rows.append(row)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(row) + "\n")
                print(f"set {s} run {run} {w['name']}: attempted {row['attempted']} failed {row['failed']} "
                      f"stalled attempts {stalled}", file=sys.stderr)
    return rows


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tabulate(bench, rows):
    sets = sorted({r["set"] for r in rows})
    head = "| workload | metric | bound |"
    for s in sets:
        head += f" median {s} | Q1..Q3 {s} | spread {s} |"
    head += " worse by |"
    print(head)
    print("|" + "---|" * (head.count("|") - 1))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            line = f"| {w['name']} | {m['name']} | {m['bound']:.0%} |"
            medians = []
            for s in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in rows if r["set"] == s and r["workload"] == w["name"]]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                medians.append(statistics.median(vals))
                line += f" {medians[-1]:.5g} | {q1:.5g}..{q3:.5g} | {spread(vals):.2%} |"
            # How much worse the last set's median is than the first's.
            worse = (medians[-1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            line += f" {worse:+.2%} |"
            print(line)
    print()
    print("| workload | set | ops attempted | ops failed | stalled attempts retried | per op |")
    print("|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        for s in sets:
            mine = [r for r in rows if r["set"] == s and r["workload"] == w["name"]]
            att, fail = sum(r["attempted"] for r in mine), sum(r["failed"] for r in mine)
            stalled = sum(r["stalled"] for r in mine)
            print(f"| {w['name']} | {s} | {att} | {fail} | {stalled} | {stalled / att:.2%} |")


if __name__ == "__main__":
    main()
