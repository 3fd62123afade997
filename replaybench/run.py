#!/usr/bin/env python3
"""Build and run raidsim's replay benchmark for one workload.

    python3 replaybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr. The benchmark's stdout is passed through:
its last line is the result JSON. The exit code is the benchmark's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "replaybench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "replaybench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("replaybench: raidsim sources (src/) not found beside "
              "replaybench/; run from a full checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"replaybench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--out", build_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
