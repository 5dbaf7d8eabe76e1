#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode_hbm --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (Release); traces and aging
checkpoints go under .bench_build/out. The binary prints every metric by name
and unit, and a JSON result object as its last line. `--test` instead builds
and runs the benchmark's own tests.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j4"],
                   check=True, stdout=sys.stderr)


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main(args):
    try:
        if "--test" in args:
            build("perfbench_test")
            os.makedirs(OUT, exist_ok=True)
            return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                                  env={**os.environ, "TEST_TMPDIR": OUT}).returncode
        build("perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    workload = option(args, "--workload", "none")
    seed = option(args, "--seed", "1")
    command = [os.path.join(BUILD, "perfbench"), *args,
               "--work-dir", OUT,
               "--reference", os.path.join(HERE, "reference_digests.txt")]
    if option(args, "--trace", "0") == "1":
        command += ["--trace-out",
                    os.path.join(OUT, f"trace_{workload}_seed{seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
