#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-cluster2 --seed 1 --seconds 15 --trace 0

The Go program is built from source into .bench_build/ (or $CARGO_TARGET_DIR
when set) with the build cache kept there too, so nothing is written outside
the checkout. Every argument is passed through to the program; its exit code
is this script's exit code. A failed build exits nonzero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def main() -> int:
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    # Everything the go command writes (build cache, module cache, its
    # telemetry counters under the user config directory) stays in out_dir;
    # nothing is downloaded.
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
