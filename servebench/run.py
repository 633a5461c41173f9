#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Builds servebench/servebench.exe with dune (into the checkout's _build)
and runs it with the same arguments; its last output line is the JSON
result. Exits non-zero without a result when the repository sources are
missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "servebench", "servebench.exe")


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("servebench: run from a checkout of the repository "
                         "(dune-project and lib/ are missing)\n")
        return 2
    # The shared dune cache lives outside the checkout: build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--profile", "release",
         "./servebench/servebench.exe"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.stderr.write("servebench: build failed\n")
        return 3
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
