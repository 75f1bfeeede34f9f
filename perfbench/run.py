#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <suite-sweep|rpc-closed|rpc-pipelined>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary (perfbench/CMakeLists.txt) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later runs only
re-check the build.  Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result.  The exit code is the
benchmark's: 0 only when every operation was correct.

--tiny 1 and --corrupt y|reply are for perfbench/selftest.py.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-sweep", "rpc-closed", "rpc-pipelined")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure (once) and build the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "spmv_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("y", "reply"))
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "spmv_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny),
           "--trace-dir", os.path.join(out_dir, "perfbench-trace")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
