#!/usr/bin/env python3
"""Build and run the checker's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (and the library
sources it includes) with CMake into $CARGO_TARGET_DIR, default
.bench_build, then runs one closed-loop measurement (--trace 0) or one
traced run (--trace 1).  The last stdout line is the JSON result; build
output goes to stderr.  Exits nonzero when the build fails or a job's
output differs from perfbench/expected.txt.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    out = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0 and os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        # A cache from another source tree: start the build dir over.
        shutil.rmtree(build_dir)
        out = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(["cmake", "--build", build_dir, "--target", "ftbench",
                          "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return out.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(build_dir, "ftbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt"),
           "--scratch", scratch]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
