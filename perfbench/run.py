#!/usr/bin/env python3
"""Control-loop benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt compiles ../src) and runs one
workload:

    python3 perfbench/run.py --workload isp-drift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("isp-drift", "policy-stream", "replay-lp")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
