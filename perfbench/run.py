#!/usr/bin/env python3
"""Builds the benchmark and `softhw-serve` from source, then runs one
workload of the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <service_mix|decide_mix|paper_queries> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build` at the root).
Build output goes to standard error; the benchmark's last line of
standard output is its JSON result. Exits 2 without a result if either
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not (
        build(["--manifest-path", "perfbench/Cargo.toml"])
        and build(["--manifest-path", "Cargo.toml", "--bin", "softhw-serve"])
    ):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "softhw-perfbench")] + sys.argv[1:]
    cmd += ["--serve", os.path.join(release, "softhw-serve")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
