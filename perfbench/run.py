#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (inside the checkout's
_build directory, shared dune cache off), then runs it with the same
arguments.  The benchmark's result is the last line of standard output;
build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a dssoc_emu checkout (no dune-project or lib/ here)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
