#!/usr/bin/env python3
"""Builds the Lumina-Sim benchmark from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, configured once and brought up to date on every call. All
arguments are passed to the benchmark program (perfbench/main.cc); its last
line of output is the result JSON, and its exit code is returned. Build
output goes to stderr.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the simulator sources (src/) are not next to "
                 f"{os.path.relpath(BENCH_DIR, ROOT)}/; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-G",
                        "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "lumina_perfbench", "-j", "2"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lumina_perfbench")


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"error: build failed: {error}")
    args = sys.argv[1:]

    def value(flag, default):
        return args[args.index(flag) + 1] if flag in args[:-1] else default

    if value("--trace", "0") == "1":
        name = f"spans-{value('--workload', '')}-{value('--seed', '1')}.json"
        args += ["--spans-out", os.path.join(build_dir, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
