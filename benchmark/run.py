#!/usr/bin/env python3
"""Build saris_bench from source and run one benchmark workload.

Run from the repository root:

    python3 benchmark/run.py --workload warm_base --seed 3 --trace 0

The first call configures and builds `benchmark/` (Release) into
`.bench_build/cmake`; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is saris_bench's result line.
Unless `--json OUT` is given, the full result record is written to
`.bench_build/results/<workload>-seed<S>-trace<T>.json`.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def build():
    """Configure (once) and build saris_bench; return its path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} missing at {ROOT}; the benchmark builds "
                     "the simulator from the repository sources")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "saris_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "saris_bench")


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    known, _ = ap.parse_known_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    args = sys.argv[1:]
    if known.json is None:
        os.makedirs(RESULTS, exist_ok=True)
        name = f"{known.workload}-seed{known.seed}-trace{known.trace}.json"
        args += ["--json", os.path.join(RESULTS, name)]
    sys.stdout.flush()
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    main()
