#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim-fig10 --seed 1 --seconds 20 --trace 0

The benchmark is its own dune project (perfbench/dune-project) built
against the repository's libraries with the release profile into
.bench_build. The program's last stdout line is the JSON result; the exit
code is the program's (0 only when every correctness check passed).
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    # The benchmark needs the repository's sources next to it.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no repository sources here (dune-project, lib/)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.Popen([EXE] + sys.argv[1:])
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    finally:
        # on a timeout or a signal, stop the benchmark and wait for it
        if run.poll() is None:
            run.kill()
            run.wait()


def stop(signum, _frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main())
