#!/usr/bin/env python3
"""Build (if needed) and run the end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload city_kpm --seed 1 --seconds 10 --trace 0

The benchmark package (e2ebench/CMakeLists.txt) compiles the repository's
libraries from src/ in Release mode into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Every
other argument is passed through to the benchmark binary.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(build_root, "e2ebench"))
    jobs = str(min(4, os.cpu_count() or 1))

    def step(cmd):
        # Build chatter goes to stderr; stdout stays the benchmark's own.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if step(["cmake", "-S", here, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            print("e2ebench: configure failed", file=sys.stderr)
            return 1
    if step(["cmake", "--build", build, "-j", jobs]) != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build, "out")]
    return subprocess.run([os.path.join(build, "e2ebench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
