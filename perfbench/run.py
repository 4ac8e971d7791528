#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ with
the dune cache disabled, so nothing is written outside the checkout.
Build output goes to stderr; stdout carries only the benchmark's own
lines, the last of which is the result object.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    # A SIGTERM becomes SystemExit, on which subprocess.run kills and
    # reaps the child before returning.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a fictionette checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    # Every workload but gate_domains (which passes its own job count)
    # runs on one domain.
    env["FICTIONETTE_JOBS"] = "1"
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
