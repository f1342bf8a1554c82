#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of an ORWL checkout. The first call configures and builds
perfbench/ (CMake, the repository libraries included) under the directory
named by $CARGO_TARGET_DIR, or .bench_build; later calls rebuild
incrementally. The perfbench binary's output is passed through; its last line
is the JSON result. A run that produces no result, or outlives its time
limit, exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the perfbench target; returns the binary."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler scratch stays inside the checkout
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()
    if not args.list and not args.workload:
        ap.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no ORWL sources around {HERE}: run from a full checkout")
        return 2

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build")),
        "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    if args.list:
        return subprocess.run([binary, "--list"]).returncode
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s, killed")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"keys {sorted(result)}")
    except (ValueError, IndexError) as e:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload}: no result line ({e}); exit {proc.returncode}")
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
