#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at minimal size (one cycle of units), untraced and
traced, and checks that each run passes its output checks and prints
exactly the metrics BENCHMARK.json names, each with its unit.  Then
checks the failure paths: a deliberately wrong pinned digest and a wrong
pinned Monte-Carlo golden must each count as a failed unit and fail the
run, a run at a non-default seed must pass on its agreement checks, and
a directory holding only BENCHMARK.json and perfbench/ must make run.py
exit non-zero without printing a result.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FAILURES = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run(workload, seed=1, trace="0", pins=None, root=REPO):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", trace]
    if pins:
        command += ["--pins", pins]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            what = "%s --trace %s" % (workload, trace)
            code, result = run(workload, trace=trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  what + ": exit 0, correct, no failed unit")
            printed = {} if result is None else {
                name: m.get("unit") for name, m in result["metrics"].items()}
            check(printed == expected[trace],
                  what + ": prints every BENCHMARK.json metric with its unit")

    code, result = run("mc_yield", seed=2)
    check(code == 0 and result is not None and result["correct"],
          "mc_yield at seed 2 passes its agreement checks")

    build = os.path.join(REPO, ".bench_build", "perfbench")
    with open(os.path.join(HERE, "pins.txt")) as f:
        pins = f.read().splitlines()
    # One report digest with its last hex digit changed, and the
    # classic 9 V*nm golden with one failure too many.
    wrong_pins = {
        "recon_faulted_tiled": lambda v: v[:-1] + ("0" if v[-1] != "0"
                                                   else "1"),
        "mc_yield": lambda v: v.replace("failures=210 ", "failures=211 "),
    }
    for workload, corrupt in wrong_pins.items():
        lines = list(pins)
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(workload + " ") and corrupt(line) != line)
        lines[i] = corrupt(lines[i])
        wrong = os.path.join(build, "wrong_pins.txt")
        with open(wrong, "w") as f:
            f.write("\n".join(lines) + "\n")
        code, result = run(workload, pins=wrong)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              workload + ": a wrong pin fails a unit and the run")

    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=build)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run("mc_yield", root=bare)
        check(code != 0 and result is None,
              "without the library sources run.py fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all passed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
