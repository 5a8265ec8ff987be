#!/usr/bin/env python3
"""Layer-ladder benchmark: build the `ladder` binary, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Workloads: serving, churn, pressure (see perfbench/workload.hpp and
BENCHMARK.json). --trace 0 reports the end-to-end metrics; --trace 1 runs
the layer ladder, prints its table, writes its spans to
.bench_build/perfbench/spans/<workload>-seed<seed>.json and reports the
per-layer metrics. The binary is built in Release from the repository's
sources into .bench_build/perfbench (the first run compiles the library).
Build output goes to standard error; the last line of standard output is
the result JSON. The exit status is the binary's: 0 only when every
cross-layer check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ladder")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", BUILD, "--target", "ladder", "-j", jobs]
    for attempt in range(2):
        if attempt == 1:
            log("incremental build failed; rebuilding from scratch")
            shutil.rmtree(BUILD, ignore_errors=True)
        ok = True
        for command in ([] if os.path.exists(
                os.path.join(BUILD, "CMakeCache.txt")) else [configure]) + [
                    compile_]:
            if subprocess.run(command, stdout=sys.stderr).returncode != 0:
                ok = False
                break
        if ok:
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are not next to perfbench/")
        return 2
    if not build():
        log("build failed")
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--span-file", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("ladder did not finish within %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
