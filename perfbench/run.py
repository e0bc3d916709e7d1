#!/usr/bin/env python3
"""Build the hifi library and the hifi_perfbench program from source, then
run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run configures and builds
a Release tree under .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only rebuild what changed.  The program's last stdout line is
one JSON object (correct, attempted, failed, metrics), re-printed here
after validation.  Exit status: 0 when every unit passed its output
check, 1 when one failed, 2 when the build or the arguments are
unusable, 3 when the program crashed, hung or printed no result.

Extra options: --pins FILE (default perfbench/pins.txt), --print-pins.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, base, "perfbench")


def build(out_dir):
    """Configure once, then build hifi_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(2, "library sources (src/) not found next to perfbench/; "
                "run from a full checkout")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "hifi_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail(2, "build failed (" + " ".join(step) + ")")
    return os.path.join(out_dir, "hifi_perfbench")


def commit_id():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library sources, identifying a checkout that is
    not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.txt"))
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)

    # Scratch files (spilled tiles, service checkpoints) stay inside the
    # checkout: the library puts them under TMPDIR.
    tmp = os.path.join(out_dir, "tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--pins", args.pins,
               "--commit", commit_id(), "--source-digest", source_digest()]
    if args.print_pins:
        command.append("--print-pins")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(3, "hifi_perfbench exceeded %d s and was killed" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail(run.returncode if run.returncode == 2 else 3,
             "hifi_perfbench exited with status %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(3, "last output line is not JSON: " + lines[-1])
    if set(result) != RESULT_KEYS:
        fail(3, "result keys %s != %s" % (sorted(result), sorted(RESULT_KEYS)))
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
