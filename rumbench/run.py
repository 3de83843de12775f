#!/usr/bin/env python3
"""Builds the rumbench program and runs one workload.

    python3 rumbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The program is built with CMake from
rumbench/CMakeLists.txt (which compiles the library from src/) into
$CARGO_TARGET_DIR/rumbench, or .bench_build/rumbench when that variable is
unset. Build output goes to stderr. The last line of stdout is the result:
one JSON object with the keys correct, attempted, failed and metrics.
A traced run (--trace 1) also writes its span records next to the build.
The exit status is the program's: 0 when every check passed.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "rumbench")


def build(bdir):
    """Configures (once) and builds the program; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "rumbench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return None
    return os.path.join(bdir, "rumbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--inject", default="",
                   help="break one named check on purpose (selftest.py)")
    args = p.parse_args()

    bdir = build_dir()
    program = build(bdir)
    if program is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        print("run.py: the program printed no result", file=sys.stderr)
        return proc.returncode or 4
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
