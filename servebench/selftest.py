#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 servebench/selftest.py

Runs every workload briefly, untraced and traced, on two seeds, and checks
the output format against BENCHMARK.json: the last stdout line is one JSON
object with exactly correct/attempted/failed/metrics; every answer was
right; the untraced run reports exactly the end-to-end metrics and the
traced run exactly the per-layer metrics, each with its declared unit; every
layer of the latency budget is non-negative and the part of the client p50
no layer accounts for is between 0 and a quarter of it; and the
modeled-cost figures repeat exactly when a seed is run again.  Last, it
checks that run.py fails without printing a result in a directory holding
only the benchmark.  Takes about five minutes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEEDS = (1, 2)
BUDGET_LAYERS = ("net", "server", "index", "engine", "core", "kernels")
UNACCOUNTED_SHARE = 0.25


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(proc, expected, label):
    check(proc.returncode == 0,
          f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, value in metrics.items():
        check(value["unit"] == expected[name], f"{label}: {name} unit")
        check(isinstance(value["value"], (int, float)) and
              math.isfinite(value["value"]), f"{label}: {name} value")
    return metrics


def modeled_line(proc):
    match = re.search(r"^modeled .*$", proc.stdout, re.MULTILINE)
    check(match is not None, "traced run printed no modeled-cost line")
    return match.group(0)


def main():
    bench = spec()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        modeled = {}
        for seed in SEEDS:
            label = f"{name} seed {seed}"
            metrics = check_result(run(name, seed, 0), end_to_end,
                                   label + " untraced")
            for m in end_to_end:
                check(metrics[m]["value"] > 0, f"{label}: {m} is not positive")
            traced = run(name, seed, 1)
            metrics = check_result(traced, per_layer, label + " traced")
            for layer in BUDGET_LAYERS:
                check(metrics[f"budget.{layer}_ms"]["value"] >= 0,
                      f"{label}: budget.{layer}_ms is negative")
            # What no layer measures (loopback transit, client receive,
            # wake-ups) is a small non-negative share of the median query.
            rest = metrics["budget.unaccounted_ms"]["value"]
            client = metrics["budget.client_p50_ms"]["value"]
            check(0 <= rest <= UNACCOUNTED_SHARE * client,
                  f"{label}: budget.unaccounted_ms {rest} is outside "
                  f"[0, {UNACCOUNTED_SHARE} x client p50 {client}]")
            modeled[seed] = modeled_line(traced)
        again = modeled_line(run(name, SEEDS[0], 1))
        check(again == modeled[SEEDS[0]],
              f"{name}: modeled cost did not repeat:\n{again}\n"
              f"{modeled[SEEDS[0]]}")
        print(f"ok {name}", flush=True)

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
        check(proc.returncode != 0, "run.py succeeded without sources")
        check('"correct"' not in proc.stdout,
              "run.py printed a result without sources")
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
