#!/usr/bin/env python3
"""Builds and runs the ESDB benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # oracle and statistics tests

The first call configures and builds the engine and the benchmark with
CMake into $CARGO_TARGET_DIR (default: .bench_build) under the checkout;
later calls reuse that build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run also writes
its spans, one JSON object per line, to
<build dir>/trace_<workload>_<seed>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # stdout of the build goes to our stderr: stdout carries the result.
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.stderr.write("build step failed (%d): %s\n" % (rc, " ".join(cmd)))
            return None
    return os.path.join(out, target)


def main(argv):
    if "--test" in argv:
        binary = build("perfbench_test")
        return 2 if binary is None else subprocess.call([binary])
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("engine sources not found under %s\n" % ROOT)
        return 2
    binary = build("esdb_perfbench")
    if binary is None:
        return 2
    args = list(argv)
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] != "0":
            workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
            seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
            args += ["--trace-out", os.path.join(
                build_dir(), "trace_%s_%s.jsonl" % (workload, seed))]
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
