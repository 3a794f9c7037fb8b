#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload lab_forward --seed 1 --seconds 10 --trace 0

The harness (perfbench/*.cpp, built with perfbench/CMakeLists.txt against
../src) is compiled into .bench_build/perfbench on first use; later runs only
check that it is up to date. Build output goes to stderr, so the last line
on stdout is the harness's result object. Exits non-zero, printing no
result, if the build fails (for example when the RNL sources are missing).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rnl_perfbench"


def build() -> bool:
    steps = []
    if not BINARY.exists():  # first run, or an earlier configure failed
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "rnl_perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"run.py: {' '.join(step)}: {error}", file=sys.stderr)
            return False
    return BINARY.exists()


def main() -> int:
    if not build():
        return 1
    sys.stdout.flush()
    done = subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
