#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first run configures and
builds servebench/ (which compiles the library sources under src/) into
.bench_build/servebench; later runs rebuild only what changed.  Build output
goes to stderr, so the benchmark's standard output, whose last line is the
JSON result, passes through unchanged.  Every argument is handed to the
benchmark binary, which validates it.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
# The benchmark bounds its own run time; this only stops a hung run.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no library sources at src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"servebench: build failed: {err}")
    # A SIGTERM to this wrapper also stops the benchmark it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([BINARY] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
