#!/usr/bin/env python3
"""Builds the end-to-end benchmark in Release and runs one workload.

Run from the repository root:

    python3 e2e_bench/run.py --workload regions --seed 1 --seconds 40 --trace 0
    python3 e2e_bench/run.py --sizes --seed 1      # input sizes per workload

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory, in a subdirectory named after a hash of the source
tree's path; every argument is passed on to the benchmark binary,
whose last line of standard output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO_DIR, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(REPO_DIR, "src")):
        sys.exit("e2e_bench: the library sources (CMakeLists.txt, src/) "
                 "are not next to the benchmark directory")
    # One build directory per source tree: checkouts that share a build
    # root never build or run each other's sources.
    tree = hashlib.sha1(REPO_DIR.encode()).hexdigest()[:12]
    build_dir = os.path.join(build_root, "e2e_bench-" + tree)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2e_bench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2e_bench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    cmd = [binary, "--out-dir", build_root] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
