#!/usr/bin/env python3
"""Self-test of the kncube benchmark.

    python3 perfbench/test_benchmark.py [--seed N]

Checks, against BENCHMARK.json:
  * a short untraced run of every workload is correct and reports exactly
    the end-to-end metrics, with their units;
  * a traced run reports exactly the per-layer metrics, with their units;
  * two traced runs with one seed print identical exact counts (the
    "exact:" line: simulated or deterministic counts), even when started
    under different workload names.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    lines = proc.stdout.splitlines()
    exact = next((l for l in lines if l.startswith("exact:")), "")
    return json.loads(lines[-1]), exact


def check_metrics(label, result, expected, errors):
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{label}: metrics differ: missing "
                      f"{sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
    for name, m in got.items():
        if name in units and m["unit"] != units[name]:
            errors.append(f"{label}: {name} has unit {m['unit']}, expected {units[name]}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")


def main():
    parser = argparse.ArgumentParser(description="kncube benchmark self-test")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]
    errors = []

    for workload in workloads:
        result, _ = run(workload, args.seed, 2, 0)
        check_metrics(f"{workload} --trace 0", result, config["end_to_end"], errors)

    first, exact_a = run(workloads[0], args.seed, 2, 1)
    second, exact_b = run(workloads[-1], args.seed, 2, 1)
    check_metrics("--trace 1", first, config["per_layer"], errors)
    check_metrics("--trace 1", second, config["per_layer"], errors)
    if not exact_a or exact_a != exact_b:
        errors.append(f"exact counts differ between runs with seed {args.seed}:\n"
                      f"  {exact_a}\n  {exact_b}")

    for e in errors:
        print("FAIL:", e)
    if not errors:
        print(f"ok: {len(workloads)} workloads, exact counts repeat ({exact_a})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
