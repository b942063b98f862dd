#!/usr/bin/env python3
"""Build and run the end-to-end tune() benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload pruner-online-r50 --seed 1 \
        --seconds 20 --trace 0

Configures and builds e2ebench/ (which builds the pruner library from the
repository's sources) into $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench, then runs the e2e_tune binary with the same
arguments. Build output goes to stderr; the binary's report, ending in one
JSON line, goes to stdout. Exits non-zero when the sources are missing,
the build fails, or any output check of the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "e2e_tune", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "pruner.hpp")):
        fail("no pruner sources next to the benchmark (expected src/)")
    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "e2e_tune")
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    cmd = [binary, *sys.argv[1:], "--work-dir", work,
           "--reference", os.path.join(ROOT, "BENCH_PR10.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
