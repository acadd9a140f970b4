#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage (from the repository root):
  python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                           [--threads T] [--size full|tiny]

The first run configures and compiles the simulator library and perfbench
(Release) into .bench_build/perfbench; later runs only re-check that build.
Build output goes to stderr. The benchmark's own stdout passes through, so the
last line printed is its result JSON; its exit code is returned (2 = bad
arguments). Checkpoints and span files are written under
.bench_build/perfbench/run.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main(argv):
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # --out-dir goes first so a trailing flag without a value is reported
    # as such by perfbench.
    cmd = [str(exe), "--out-dir", str(BUILD / "run"), *argv]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
