#!/usr/bin/env python3
"""Build the store from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is the
JSON result; the full result (with provenance) and, for --trace 1, the
Chrome trace are written to perfbench/out/. The git rev recorded in the
provenance is taken from $PERFBENCH_REV, else from git, else "unknown".
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def git_rev():
    rev = os.environ.get("PERFBENCH_REV")
    if rev:
        return rev
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: no store sources next to perfbench/ (dune-project, lib/)")

    build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                           cwd=ROOT, capture_output=True, text=True, timeout=880)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.exit("perfbench: build failed")

    cmd = [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", os.path.join(ROOT, "perfbench", "out"), "--rev", git_rev()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
