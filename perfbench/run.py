#!/usr/bin/env python3
"""Build and run the PerfPlay benchmark.

    python3 perfbench/run.py --workload plan_wide|plan_narrow|sweep_pbin \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `perfbench` crate next
to this file with the release profile into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it with the same arguments from the current
directory. The benchmark's standard output passes through unchanged; its last
line is the result object. The exit code is the benchmark's, or non-zero if
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
