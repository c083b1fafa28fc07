#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 bench/run.py --workload rack-drained --seed 42 --seconds 25 --trace 0

Every argument is passed to the benchmark binary unchanged. The build and
the Go caches live in the build directory ($CARGO_TARGET_DIR if set, else
.bench_build), so nothing is read or written outside the checkout. The
binary runs with the checkout root as its working directory; its exit code
is returned.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomodcache"),
        GOPATH=str(build / "gopath"),
        XDG_CONFIG_HOME=str(build / "config"),
        XDG_CACHE_HOME=str(build / "cache"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOTELEMETRY="off",
    )
    binary = build / "bench"
    try:
        built = subprocess.run(
            ["go", "build", "-o", str(binary), "."],
            cwd=root / "bench", env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"bench/run.py: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("bench/run.py: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([str(binary)] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench/run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
