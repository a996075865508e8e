#!/usr/bin/env python3
"""Build and run the ringshare benchmark of record.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep_n6, ladder, serve_open, delta_stream (see README.md).
The first run configures and builds the library and the benchmark from
source into .bench_build/perfbench (a few minutes); later runs only check
that the build is current. The benchmark prints a full result record and,
as its last line, the JSON result object; the record is also written to
.bench_build/perfbench/results/. Exits non-zero on a build failure, a usage
error, or any failed correctness check.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep_n6", "ladder", "serve_open", "delta_stream")


def build() -> Path:
    """Configure once, then bring the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "ringshare_bench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return BUILD / "ringshare_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    scratch = BUILD / "scratch"
    results = BUILD / "results"
    scratch.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sys.stdout.flush()
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--scratch", str(scratch), "--out", str(record)],
        env=dict(os.environ))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
