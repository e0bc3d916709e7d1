#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed (run_seconds from BENCHMARK.json
unless --seconds is given) and prints, per end-to-end metric, the
median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound.  A spread above a third of its bound is marked.  Each
run's result line is appended to .bench_build/perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    log_path = os.path.join(REPO, ".bench_build", "perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False)
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, run.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        env = next((json.loads(line[4:]) for line in lines
                    if line.startswith("env ")), {})
        with open(log_path, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "env": env, "result": result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s, steal=%.3f" % (seed, ", ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items()),
            env.get("host_steal_frac", float("nan"))))

    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        if len(v) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
        print("%-24s median %-12.6g spread %.4f bound %.2f%s" % (
            metric["name"], med, spread, metric["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
