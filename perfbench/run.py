#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # build and run the reducer tests

Run from the repository root. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that compiles ../src; it is built on first use
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of stdout is the JSON result printed by the benchmark binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "kv", "rig.hpp")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True,
                       **quiet)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   check=True, **quiet)
    return os.path.join(out, target)


def main(argv):
    if argv == ["--test"]:
        return subprocess.run([build("reducers_test")]).returncode
    try:
        binary = build("sanbench")
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
