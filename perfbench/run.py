#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload bipart|kway|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to perfbench/_build and
the run's scratch files to perfbench/_work (removed again after the run).
The last line of standard output is the JSON result; build and progress
output goes to standard error.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD = "perfbench/_build"
EXE = f"{BUILD}/default/perfbench/perfbench.exe"
MLPART = f"{BUILD}/default/bin/mlpart.exe"


def main():
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} missing; run from the root of an mlpart checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD), "--profile", "release",
         "perfbench/perfbench.exe", "bin/mlpart.exe"],
        stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")
    # Own process group, so that a run cut off by the timeout takes the
    # serve daemon it started down with it.
    bench = subprocess.Popen(
        [EXE, *sys.argv[1:], "--mlpart", MLPART, "--workdir", "perfbench/_work"],
        start_new_session=True)
    try:
        sys.exit(bench.wait(timeout=170))
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit("run.py: benchmark timed out")


if __name__ == "__main__":
    main()
