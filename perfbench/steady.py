#!/usr/bin/env python3
"""Steadiness report for the kncube benchmark.

    python3 perfbench/steady.py [--seeds N] [--first-seed S] [--seconds T]
                                [--workloads a,b] [--trace 0|1] [--log FILE]

Runs every chosen workload once per seed, interleaved (seed 1: every
workload, then seed 2: every workload, ...), so slow drifts of the host hit
all workloads alike. Then prints, per workload and metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound from BENCHMARK.json. A spread
above a third of the bound is flagged "noisy", above the bound "FAIL".
--log appends every raw result line as JSON, so two sets of runs can be
compared afterwards with --compare.

    python3 perfbench/steady.py --compare first.jsonl second.jsonl

prints each metric's median in both sets and its relative change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(rows, bounds):
    """rows: {(workload, metric): [values]}"""
    print(f"{'workload':<24}{'metric':<34}{'n':>3}{'median':>14}{'Q1':>14}"
          f"{'Q3':>14}{'spread':>9}{'bound':>7}")
    for (workload, metric), values in sorted(rows.items()):
        if len(values) < 2:
            continue
        med, q1, q3, sp = spread(values)
        bound = bounds.get(metric)
        flag = ""
        if bound is not None:
            flag = "FAIL" if sp > bound else ("noisy" if sp > bound / 3 else "ok")
        print(f"{workload:<24}{metric:<34}{len(values):>3}{med:>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{sp:>9.4f}{bound if bound is not None else '-':>7} {flag}")


def compare(paths, bounds):
    sets = []
    for path in paths:
        rows = {}
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                for metric, m in rec["result"]["metrics"].items():
                    rows.setdefault((rec["workload"], metric), []).append(m["value"])
        sets.append(rows)
    print(f"{'workload':<24}{'metric':<34}{'median A':>14}{'median B':>14}"
          f"{'change':>9}{'bound':>7}")
    for key in sorted(set(sets[0]) & set(sets[1])):
        a, b = statistics.median(sets[0][key]), statistics.median(sets[1][key])
        change = (b - a) / a if a else float("inf")
        bound = bounds.get(key[1])
        flag = "" if bound is None else ("FAIL" if abs(change) > bound else "ok")
        print(f"{key[0]:<24}{key[1]:<34}{a:>14.6g}{b:>14.6g}{change:>9.4f}"
              f"{bound if bound is not None else '-':>7} {flag}")


def main():
    config = load_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description="kncube benchmark steadiness report")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", help="append raw results (JSON lines) here")
    parser.add_argument("--compare", nargs=2, metavar="LOG",
                        help="compare the medians of two --log files")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare, bounds)
        return 0

    rows = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads.split(","):
            result = run_once(workload, seed, args.seconds, args.trace)
            failures += result["failed"]
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            for metric, m in result["metrics"].items():
                rows.setdefault((workload, metric), []).append(m["value"])
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    report(rows, bounds)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
